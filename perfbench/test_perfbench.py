"""Self-tests of the benchmark (not part of the program's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py

Run from the repository root. Takes a few minutes: it runs one traced and
one untraced pass of every workload.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402


@pytest.fixture(scope="module")
def catalogue():
    return {workload: gen.load_catalogue(workload) for workload in gen.WORKLOADS}


def test_plan_is_deterministic_per_seed(catalogue):
    for workload in gen.WORKLOADS:
        ids = [[c["id"] for c in gen.plan(catalogue[workload], workload, seed)]
               for seed in (5, 5, 6)]
        assert ids[0] == ids[1]
        assert ids[0] != ids[2]
        assert len(ids[0]) == sum(gen.WORKLOADS[workload].slots.values())


def test_case_builders_are_deterministic_and_match_the_catalogue(catalogue):
    """Rebuilding the program-independent kinds from CATALOGUE_SEED gives the
    committed inputs back."""
    kinds = {kind: cases for cat in catalogue.values() for kind, cases in cat.items()}
    for kind, builder in gen.KIND_BUILDERS.items():
        if kind.startswith("region"):
            continue
        rng = gen._kind_rng(gen.CATALOGUE_SEED, kind)
        for i, case in enumerate(kinds[kind]):
            fresh = builder(rng, i)
            assert (fresh["argv"], fresh["input"]) == (case["argv"], case["input"]), kind


def test_a_counterexample_without_its_witness_fails_the_check(catalogue):
    run.import_program(ROOT)
    case = catalogue["dmc-scan"]["counterexample"][0]
    assert case["reference"]["found"]
    assert check.check_op(case, case["reference"], 0, json.dumps({"found": False}), {}) \
        == ["counterexample found=False, expected True"]
    assert check.check_op(case, case["reference"], 0, json.dumps({"found": True}), {}) \
        == ["counterexample reports a witness but wrote no out.json"]


def test_tail_interpolates_between_fixed_ranks_of_the_distinct_ops():
    value, above = run.tail([float(v) for v in range(10, 0, -1)])
    assert (round(value, 9), above) == (9.1, 1)
    value, above = run.tail([float(v) for v in range(1, 89)])
    assert (round(value, 9), above) == (79.3, 9)


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER


@pytest.fixture(scope="module")
def passes():
    """Per workload: a traced pass, a second traced pass, an untraced pass."""
    out = {}
    workdir = harness.fresh_workdir(ROOT / ".perfbench", "selftest")
    try:
        for workload in gen.WORKLOADS:
            s = run.set_up(ROOT, workload, 11, workdir)
            tracers, phases = [], []
            for _ in range(2):
                tracer = harness.Tracer()
                tracer.install()
                try:
                    phases.append(run.run_phase(s, 0, passes=1, tracer=tracer))
                finally:
                    tracer.uninstall()
                tracers.append(tracer)
            phases.append(run.run_phase(s, 0, passes=1))
            out[workload] = (s, tracers, phases)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return out


def test_traced_and_untraced_runs_write_identical_artifacts(passes):
    for workload, (s, _, phases) in passes.items():
        digests = [[r.digest for r in p.results] for p in phases]
        assert digests[0] == digests[1] == digests[2], workload
        attempted, failed, problems = run.check_phases(s, phases)
        assert failed == 0, problems


def test_trace_counts_repeat_exactly(passes):
    for workload, (_, tracers, _) in passes.items():
        a, b = tracers
        assert a.calls == b.calls and a.counts == b.counts, workload


def test_wrappers_are_restored():
    run.import_program(ROOT)
    from mcifc import cli, dmc_regions, dpc, gaussian

    before = (cli.run, cli.jsonschema.validate, dmc_regions.mutual_information,
              gaussian.half_log2, dpc.gaussian_mi)
    tracer = harness.Tracer()
    tracer.install()
    assert dmc_regions.mutual_information is not before[2]
    tracer.uninstall()
    assert (cli.run, cli.jsonschema.validate, dmc_regions.mutual_information,
            gaussian.half_log2, dpc.gaussian_mi) == before


def test_workload_isolation(passes):
    for workload, (_, tracers, _) in passes.items():
        assert run.isolation(workload, tracers[0]) == [], workload
    gaussian_calls = passes["gaussian-dpc"][1][0].calls
    assert gaussian_calls["gaussian.half_log2"] > 0
    assert passes["fme-verify"][1][0].calls["polytope.fme_project"] > 0

    def dists_per_op(workload):
        s, tracers, _ = passes[workload]
        return tracers[0].counts["dmc_regions.check_regime.dists_checked"] / len(s.ops)

    # early exit: screening checks at most half as many distributions per op
    assert dists_per_op("dmc-screen") < 0.5 * dists_per_op("dmc-scan")


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dmc-screen", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
