"""Executing ops in-process, the calibration loop and the tracer.

An op is one `mcifc.cli.run(argv)` call with stdout/stderr captured and its
artifacts written under a per-case directory. The tracer wraps the program's
public functions under the names their callers use (a module attribute
rebinding), records one span per wrapped call, and restores every binding
when it is uninstalled.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# ---------------------------------------------------------------------------
# Calibration: a fixed loop of interpreter and small-numpy work, the same mix
# the program spends its time in. Its duration tracks the machine's speed.
# ---------------------------------------------------------------------------

# Calibration time on the reference machine (2-core x86 VM, Python
# 3.11, numpy 2.4). Normalized times read as "ms on that machine".
CAL_REF_S = 0.0010

# How op time follows calibration time: on the reference machine, when the
# loop ran k times slower, ops ran about k**0.85 times slower (fitted per
# workload: 0.6-0.8, biased low by the loop's own noise). Scaling by the
# full ratio overcorrected, and runs made in a slow spell then read faster.
CAL_ELASTICITY = 0.85


def calibrate() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    vec = np.arange(8.0)
    for i in range(400):
        acc += float(np.log2(1.0 + i)) * 0.5
        doc = {"k": i, "v": [i, i + 1]}
        acc += len(doc["v"]) + float(vec.sum())
    return time.perf_counter() - t0


def scaled(seconds: float, cal: float) -> float:
    """`seconds` measured while the calibration loop took `cal`, as it would
    read on the reference machine."""
    return seconds * (CAL_REF_S / cal) ** CAL_ELASTICITY


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------


@dataclass
class OpResult:
    exit_code: int | None  # None when the CLI raised
    seconds: float
    cpu_seconds: float
    stdout: str
    error: str
    artifacts: dict[str, bytes]
    digest: str


def materialize(case: dict, workdir: Path) -> list[str]:
    """Write the case's input file and return its concrete argv."""
    case_dir = workdir / case["id"]
    case_dir.mkdir(parents=True, exist_ok=True)
    in_path = case_dir / "in.json"
    if case["input"] is not None:
        in_path.write_text(json.dumps(case["input"]))
    out_name = "out.csv" if case["argv"][0] in ("region", "dpc-compare", "dmc-capacity") \
        else "out.json"
    subst = {"{in}": str(in_path), "{out}": str(case_dir / out_name)}
    return [subst.get(a, a) for a in case["argv"]]


def execute(cli, argv: list[str], case_dir: Path) -> OpResult:
    """One timed CLI invocation; artifacts are collected after the clock stops."""
    for old in case_dir.iterdir():
        if old.name != "in.json":
            old.unlink()
    out, err = io.StringIO(), io.StringIO()
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    except Exception as exc:  # the op failed; the run goes on and counts it
        code = None
        err.write(f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    cpu = time.process_time() - c0
    artifacts = {p.name: p.read_bytes() for p in sorted(case_dir.iterdir())
                 if p.name != "in.json"}
    h = hashlib.sha256(f"{code}\n{out.getvalue()}".encode())
    for name, data in artifacts.items():
        h.update(name.encode() + b"\0" + data)
    return OpResult(code, seconds, cpu, out.getvalue(), err.getvalue(), artifacts,
                    h.hexdigest())


def fresh_workdir(root: Path, name: str) -> Path:
    path = root / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


class Tracer:
    """Spans (name, start_ns, end_ns, parent span, op id) of wrapped calls.

    Spans nest strictly (one thread, synchronous calls), so self time is
    accumulated online: a closing span adds its duration to its parent's
    child time. `calls` counts every wrapped call, including count-only
    wrappers that record no span.
    """

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int, int]] = []
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._child_ns: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def spanned(self, name: str, fn, on_result=None):
        name_id = self._name_id(name)
        spans, stack, child_ns = self.spans, self._stack, self._child_ns
        self_ns, calls = self.self_ns, self.calls

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            child_ns.append(0)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                inner = child_ns.pop()
                spans[idx] = (name_id, t0, t1, parent, self.op_id)
                self_ns[name] += t1 - t0 - inner
                calls[name] += 1
                if child_ns:
                    child_ns[-1] += t1 - t0
            if on_result is not None:
                on_result(self.counts, result, args, kwargs)
            return result

        return wrapper

    def counted(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def wrap(self, owner, attr: str, name: str, count_only: bool = False,
             on_result=None) -> None:
        fn = getattr(owner, attr)
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, self.counted(name, fn) if count_only
                else self.spanned(name, fn, on_result))

    def install(self) -> None:
        install_wrappers(self)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            fh.write("name,start_ns,end_ns,parent,op\n")
            for name_id, t0, t1, parent, op in self.spans:
                fh.write(f"{self.names[name_id]},{t0},{t1},{parent},{op}\n")


def _on_check(counts: Counter, report, args, kwargs) -> None:
    counts["dmc_regions.check_regime.dists_checked"] += report.samples_checked
    counts["dmc_regions.check_regime.failed"] += 0 if report.passed else 1


def _on_fme(counts: Counter, system, args, kwargs) -> None:
    counts["polytope.fme_project.rows_out"] += len(system)


def _on_search(counts: Counter, witness, args, kwargs) -> None:
    from mcifc.dmc_regions import CxSearchConfig

    cfg = args[0] if args else kwargs.get("cfg", CxSearchConfig())
    screened = witness.seed_used + 1 if witness is not None else cfg.budget
    counts["dmc_regions.counterexample.channels_screened"] += screened


def install_wrappers(tracer: Tracer) -> None:
    """Rebind each public function where its caller looks it up."""
    from mcifc import cli, dmc_regions, dpc, gaussian

    tracer.wrap(cli, "run", "cli.run")
    tracer.wrap(cli.jsonschema, "validate", "cli.schema_validate")
    tracer.wrap(cli, "sample_input_dist", "info_theory.sample_input_dist", count_only=True)

    dr = dmc_regions
    tracer.wrap(dr, "mutual_information", "info_theory.mutual_information")
    tracer.wrap(dr, "compose_with_channel", "info_theory.compose_with_channel")
    tracer.wrap(dr, "sample_input_dist", "info_theory.sample_input_dist", count_only=True)
    tracer.wrap(dr, "fme_project", "polytope.fme_project", on_result=_on_fme)
    for fn in ("project_to_frontier", "frontier_union", "concave_envelope", "region_equal"):
        tracer.wrap(dr, fn, f"polytope.{fn}")
    tracer.wrap(dr, "check_regime", "dmc_regions.check_regime", on_result=_on_check)
    for fn in ("dmc_capacity_region", "verify_fme_inner_bound", "inner_bound_region",
               "coding_constraint_system"):
        tracer.wrap(dr, fn, f"dmc_regions.{fn}")
    tracer.wrap(dr, "vsi_vwi_counterexample_search",
                "dmc_regions.vsi_vwi_counterexample_search", on_result=_on_search)

    for fn in ("classify_gaussian", "region_mp_vsi", "region_mp_wi", "region_mp_mixed",
               "region_ms_vsi"):
        tracer.wrap(gaussian, fn, f"gaussian.{fn}")
    tracer.wrap(gaussian, "half_log2", "gaussian.half_log2", count_only=True)

    for fn in ("comparison_sweep", "optimize_md_x", "block_expansion_baseline"):
        tracer.wrap(dpc, fn, f"dpc.{fn}")
    for fn in ("md_dpc_rate", "half_log2", "gaussian_mi"):
        tracer.wrap(dpc, fn, f"dpc.{fn}", count_only=True)
