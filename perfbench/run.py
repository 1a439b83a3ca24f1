"""The mcifc benchmark: one closed-loop client driving `mcifc.cli.run`.

    python3 perfbench/run.py --workload dmc-scan --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from `./src`. The run
plans one pass of the workload's ops from `--seed`, sets up (imports, input
files, one warm-up op per subcommand), then repeats the pass while another
one fits into `--seconds`, one op at a time with no threads. Afterwards every
distinct op's outputs are checked against the committed reference and every
repeat against its first run. A report goes to stdout, ending with one JSON
line: end-to-end metrics with `--trace 0`, per-layer metrics with
`--trace 1`. See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

# One client and no threads, set-up probes included. Left to its default,
# numpy's BLAS starts a thread pool at import that spins on the other core,
# and set-up time then depends on what else the machine runs there. The ops
# work on arrays far too small for BLAS threads to take part.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import check  # noqa: E402
import gen  # noqa: E402
import harness  # noqa: E402

SETUP_PROBES = 9
TAIL_PCT = 90

END_TO_END = {
    "ops_per_s": "ops/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "setup_s": "s", "peak_rss_mb": "MB",
}

# (metric, unit): "calls"/"self_ms" read the tracer's per-name totals, the
# rest are derived in layer_metrics. All are per op of the traced phase.
PER_LAYER = [
    ("cli.run.self_ms", "ms"),
    ("cli.schema_validate.ms", "ms"),
    ("info_theory.mutual_information.calls", "count"),
    ("info_theory.mutual_information.self_ms", "ms"),
    ("info_theory.compose_with_channel.calls", "count"),
    ("info_theory.compose_with_channel.self_ms", "ms"),
    ("info_theory.sample_input_dist.calls", "count"),
    ("polytope.fme_project.calls", "count"),
    ("polytope.fme_project.self_ms", "ms"),
    ("polytope.fme_project.rows_out", "count"),
    ("polytope.project_to_frontier.calls", "count"),
    ("polytope.project_to_frontier.self_ms", "ms"),
    ("polytope.frontier_union.calls", "count"),
    ("polytope.frontier_union.self_ms", "ms"),
    ("polytope.concave_envelope.self_ms", "ms"),
    ("polytope.region_equal.self_ms", "ms"),
    ("dmc_regions.check_regime.calls", "count"),
    ("dmc_regions.check_regime.self_ms", "ms"),
    ("dmc_regions.check_regime.dists_checked", "count"),
    ("dmc_regions.check_regime.fail_frac", "ratio"),
    ("dmc_regions.dmc_capacity_region.self_ms", "ms"),
    ("dmc_regions.verify_fme_inner_bound.self_ms", "ms"),
    ("dmc_regions.inner_bound_region.self_ms", "ms"),
    ("dmc_regions.coding_constraint_system.self_ms", "ms"),
    ("dmc_regions.counterexample.channels_screened", "count"),
    ("gaussian.region_mp_wi.self_ms", "ms"),
    ("gaussian.region_mp_vsi.self_ms", "ms"),
    ("gaussian.region_mp_mixed.self_ms", "ms"),
    ("gaussian.region_ms_vsi.self_ms", "ms"),
    ("gaussian.classify_gaussian.self_ms", "ms"),
    ("gaussian.half_log2.calls", "count"),
    ("dpc.comparison_sweep.self_ms", "ms"),
    ("dpc.optimize_md_x.self_ms", "ms"),
    ("dpc.block_expansion_baseline.self_ms", "ms"),
    ("dpc.md_dpc_rate.calls", "count"),
    ("dpc.half_log2.calls", "count"),
    ("dpc.gaussian_mi.calls", "count"),
    ("trace.overhead_frac", "ratio"),
]

# Calls that must stay zero on a workload, because its ops never reach them.
ISOLATION = {
    "gaussian-dpc": ("info_theory.", "polytope.fme_project"),
    "fme-verify": ("gaussian.", "dpc."),
}

# Small fixed ops, one per subcommand, run before timing so that first-call
# costs (lazy imports, numpy dispatch caches) land in set-up.
_WARMUP = {
    "verify-fme": {"argv": ["verify-fme", "--samples", "2", "--out", gen.OUT], "input": None},
    "counterexample": {"argv": ["counterexample", "--budget", "1", "--out", gen.OUT],
                       "input": None},
    "dmc-capacity": {"argv": ["dmc-capacity", "--in", gen.IN, "--out", gen.OUT, "--regime",
                              "VWI", "--samples", "2", "--budget", "2"],
                     "input": {"axes": [["X1", 2], ["X2", 2], ["Y1", 2], ["Z1", 2]],
                               "probs": [0.5, 0.0, 0.0, 0.5, 0.25, 0.25, 0.25, 0.25,
                                         0.25, 0.25, 0.25, 0.25, 0.0, 0.5, 0.5, 0.0]}},
    "region": {"argv": ["region", "--in", gen.IN, "--out", gen.OUT, "--grid", "11"],
               "input": {"class": "multi_primary", "b": [0.5, -0.7], "a": 0.8,
                         "P1": 1.0, "P2": 2.0}},
    "dpc-compare": {"argv": ["dpc-compare", "--in", gen.IN, "--out", gen.OUT, "--grid", "3"],
                    "input": {"P1": 3.0, "P2": 1.0, "a1": 0.75, "a2": -0.5, "b": 0.1}},
}


def fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def import_program(root: Path):
    """Import mcifc from the checkout's src/, never from an installed copy."""
    src = root / "src"
    if not (src / "mcifc" / "__init__.py").is_file():
        fail(f"no program source at {src}/mcifc; run from the repository root")
    sys.path.insert(0, str(src))
    from mcifc import cli

    if Path(cli.__file__).resolve().parent != (src / "mcifc").resolve():
        fail(f"imported mcifc from {cli.__file__}, not from {src}")
    return cli


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Setup:
    cli: object
    ops: list[dict]
    argvs: list[list[str]]
    refs: dict[str, dict]
    workdir: Path
    rss_imports_mb: float  # peak RSS once the program and harness are imported
    rss_setup_mb: float  # ... and once inputs are written and warm-up has run
    # The first run of each case, kept whole for the reference check; later
    # runs keep only their digest and timings, so memory does not grow with
    # the number of ops completed.
    first: dict[str, harness.OpResult] = field(default_factory=dict)


def set_up(root: Path, workload: str, seed: int, workdir: Path) -> Setup:
    """Everything before the first timed op: imports, inputs, warm-up."""
    cli = import_program(root)
    rss_imports = rss_mb()
    if not gen.catalogue_path(workload).is_file():
        fail(f"missing {gen.catalogue_path(workload)}")
    ops = gen.plan(gen.load_catalogue(workload), workload, seed)
    argvs = [harness.materialize(case, workdir) for case in ops]
    refs = {case["id"]: case["reference"] for case in ops}
    for command in sorted({case["argv"][0] for case in ops}):
        warm = dict(_WARMUP[command], id=f"warmup-{command}")
        harness.execute(cli, harness.materialize(warm, workdir), workdir / warm["id"])
    return Setup(cli, ops, argvs, refs, workdir, rss_imports, rss_mb())


def probe_setup(args) -> None:
    """Child-process mode: set up once and say so."""
    root = Path.cwd()
    workdir = harness.fresh_workdir(root / ".perfbench", f"probe-{os.getpid()}")
    try:
        set_up(root, args.workload, args.seed, workdir)
        sys.stdout.write("ready\n")
        sys.stdout.flush()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setups(args) -> list[tuple[float, float]]:
    """(seconds from spawn to ready, calibration) of fresh set-up processes.
    The calibration is the median of loops run just before the spawn and
    just after the child has exited."""
    out = []
    for _ in range(SETUP_PROBES):
        cals = [harness.calibrate() for _ in range(5)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--probe-setup"],
            stdout=subprocess.PIPE, text=True)
        try:
            ready = proc.stdout.readline()
            seconds = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=120)
        if code != 0 or ready.strip() != "ready":
            fail(f"set-up probe exited with code {code}")
        cals += [harness.calibrate() for _ in range(5)]
        out.append((seconds, statistics.median(cals)))
    return out


# ---------------------------------------------------------------------------
# Timed phase
# ---------------------------------------------------------------------------


@dataclass
class Phase:
    results: list[harness.OpResult]
    case_ids: list[str]
    cals: list[float]  # calibration before the first op and after each op
    passes: int

    def normalized_ms(self) -> list[float]:
        """Op latencies scaled to the reference machine speed: each op by the
        median of the calibration samples around it."""
        out = []
        for i, r in enumerate(self.results):
            local = statistics.median(self.cals[max(0, i - 1): i + 3])
            out.append(1000.0 * harness.scaled(r.seconds, local))
        return out

    def case_latency_ms(self) -> list[float]:
        """One latency per distinct op: the median of the normalized
        latencies of its runs, so a momentary stall of the machine does not
        decide a percentile, and the number of passes does not either."""
        runs: dict[str, list[float]] = {}
        for case_id, ms in zip(self.case_ids, self.normalized_ms()):
            runs.setdefault(case_id, []).append(ms)
        return [statistics.median(v) for v in runs.values()]


def run_phase(s: Setup, seconds: float, passes: int | None = None,
              tracer: harness.Tracer | None = None) -> Phase:
    """Whole passes while another pass of the mean length still fits into
    `seconds` (at least one), or exactly `passes`."""
    phase = Phase([], [], [harness.calibrate()], 0)
    t0 = time.perf_counter()
    while True:
        for case, argv in zip(s.ops, s.argvs):
            if tracer is not None:
                tracer.op_id = len(phase.results)
            result = harness.execute(s.cli, argv, s.workdir / case["id"])
            if case["id"] in s.first:
                result = replace(result, stdout="", artifacts={})
            else:
                s.first[case["id"]] = result
            phase.results.append(result)
            phase.case_ids.append(case["id"])
            phase.cals.append(harness.calibrate())
        phase.passes += 1
        if passes is not None:
            if phase.passes >= passes:
                return phase
        elif (time.perf_counter() - t0) * (phase.passes + 1) / phase.passes > seconds:
            return phase


def check_phases(s: Setup, phases: list[Phase]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems). An op fails when it raised, when its
    outputs differ from the first run of the same case (in any phase), or
    when that first run fails its reference check."""
    first = s.first
    problems: list[str] = []
    bad_cases: set[str] = set()
    cases = {case["id"]: case for case in s.ops}
    for case_id, r in first.items():
        if r.exit_code is None:
            found = [r.error]
        else:
            try:
                found = check.check_op(cases[case_id], s.refs[case_id], r.exit_code,
                                       r.stdout, r.artifacts)
            except Exception as exc:  # outputs the check cannot even read
                found = [f"check raised {type(exc).__name__}: {exc}"]
        if found:
            bad_cases.add(case_id)
            problems += [f"{case_id}: {p}" for p in found]
    attempted = failed = 0
    for phase in phases:
        for case_id, r in zip(phase.case_ids, phase.results):
            attempted += 1
            if case_id in bad_cases or r.digest != first[case_id].digest:
                failed += 1
                if r.digest != first[case_id].digest:
                    problems.append(f"{case_id}: a repeat wrote different outputs")
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, int]:
    """(value, values above it) at the TAIL_PCT percentile, interpolated
    linearly between neighbouring ranks. The values are one per distinct op,
    so the ranks are fixed by the pass size. Interpolating keeps the tail off
    the slowest op of a group of similar cost, where it would be the maximum
    of several noisy medians."""
    value = statistics.quantiles(values, n=100, method="inclusive")[TAIL_PCT - 1]
    return value, sum(v > value for v in values)


def throughput(phase: Phase) -> float:
    return len(phase.results) / (sum(phase.normalized_ms()) / 1000.0)


def end_to_end(phase: Phase, setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    ms = phase.case_latency_ms()
    tail_ms, above = tail(ms)
    setup_norm = [harness.scaled(sec, cal) for sec, cal in setups]
    values = {
        "ops_per_s": throughput(phase),
        "op_p50_ms": statistics.median(ms),
        "op_tail_ms": tail_ms,
        "setup_s": statistics.median(setup_norm),
        "peak_rss_mb": rss_mb(),
    }
    per_op = f"each the median of its {phase.passes} runs"
    notes = {
        "ops_per_s": f"n={len(phase.results)} ops in {phase.passes} passes",
        "op_p50_ms": f"n={len(ms)} distinct ops, {per_op}",
        "op_tail_ms": f"p{TAIL_PCT} of n={len(ms)} distinct ops, {above} above it "
                      f"({above * phase.passes} runs), {per_op}",
        "setup_s": f"median of {len(setups)} set-ups: "
                   + ", ".join(f"{v:.3f}" for v in setup_norm),
        "peak_rss_mb": "ru_maxrss of the benchmark process",
    }
    return values, notes


def layer_metrics(tracer: harness.Tracer, ops: int, traced: Phase,
                  untraced: Phase) -> dict[str, float]:
    cal = statistics.median(traced.cals)
    out = {}
    for name, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = tracer.calls[base] / ops
        elif field in ("self_ms", "ms"):
            out[name] = 1000.0 * harness.scaled(tracer.self_ns[base] * 1e-9, cal) / ops
        elif name == "dmc_regions.check_regime.fail_frac":
            checks = tracer.calls["dmc_regions.check_regime"]
            out[name] = tracer.counts["dmc_regions.check_regime.failed"] / checks \
                if checks else 0.0
        elif name == "trace.overhead_frac":
            out[name] = throughput(untraced) / throughput(traced) - 1.0
        else:
            out[name] = tracer.counts[name] / ops
    return out


def isolation(workload: str, tracer: harness.Tracer) -> list[str]:
    prefixes = ISOLATION.get(workload, ())
    return [f"{name} called {n} times" for name, n in sorted(tracer.calls.items())
            if n and name.startswith(prefixes)]


def print_diagnostics(s: Setup, phase: Phase) -> None:
    raw_ms = [r.seconds * 1000.0 for r in phase.results]
    cpu = [r.cpu_seconds for r in phase.results]
    cals = [c * 1000.0 for c in phase.cals]
    print(f"diagnostics: raw ops/s {len(raw_ms) / (sum(raw_ms) / 1000.0):.3f}, "
          f"raw p50 {statistics.median(raw_ms):.3f} ms, "
          f"cpu/wall {sum(cpu) / (sum(raw_ms) / 1000.0):.3f}, "
          f"cpu per op {1000.0 * sum(cpu) / len(cpu):.3f} ms")
    print(f"calibration: median {statistics.median(cals):.4f} ms "
          f"(min {min(cals):.4f}, max {max(cals):.4f}, reference "
          f"{harness.CAL_REF_S * 1000.0:.4f}), {len(cals)} samples")
    print(f"peak rss: {s.rss_imports_mb:.1f} MB after imports, "
          f"{s.rss_setup_mb:.1f} MB after set-up, {rss_mb():.1f} MB at the end")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.probe_setup:
        probe_setup(args)
        return 0

    root = Path.cwd()
    workdir = harness.fresh_workdir(root / ".perfbench", f"work-{os.getpid()}")
    try:
        s = set_up(root, args.workload, args.seed, workdir)
        wl = gen.WORKLOADS[args.workload]
        print(f"workload {args.workload} (seed {args.seed}): {wl.why}")
        print(f"pass: {len(s.ops)} ops; inputs: {json.dumps(gen.describe(s.ops))}")

        if args.trace:
            tracer = harness.Tracer()
            tracer.install()
            try:
                traced = run_phase(s, args.seconds / 2, tracer=tracer)
            finally:
                tracer.uninstall()
            untraced = run_phase(s, 0, passes=traced.passes)
            phases = [traced, untraced]
            metrics = layer_metrics(tracer, len(traced.results), traced, untraced)
            units = dict(PER_LAYER)
            notes = {}
        else:
            setups = measure_setups(args)
            timed = run_phase(s, args.seconds)
            phases = [timed]
            metrics, notes = end_to_end(timed, setups)
            units = END_TO_END

        attempted, failed, problems = check_phases(s, phases)
        broken = isolation(args.workload, tracer) if args.trace else []
        for problem in problems[:20]:
            print(f"FAILED {problem}")
        print_diagnostics(s, phases[0])
        print(f"failed_frac {failed / attempted:.6f} ratio ({failed} of {attempted} ops)")
        for name, value in metrics.items():
            print(f"{name:46s} {value:14.6f} {units[name]:6s} {notes.get(name, '')}")
        if args.trace:
            print("isolation: " + ("ok" if not broken else "VIOLATED: " + "; ".join(broken)))
            print(f"traced phase: {traced.passes} passes, {len(traced.results)} ops; "
                  f"tracing overhead {100 * metrics['trace.overhead_frac']:.1f}% of ops/s")
            span_file = root / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.csv"
            tracer.write(span_file)
            print(f"spans: {len(tracer.spans)} written to {span_file.relative_to(root)}")
        print(json.dumps({
            "correct": failed == 0 and not broken,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
