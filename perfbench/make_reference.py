"""Build the benchmark's catalogue of cases and their reference outputs.

    python3 perfbench/make_reference.py

Run from the repository root. It draws every op kind's cases with
`gen.CATALOGUE_SEED`, runs each once through `mcifc.cli.run`, and writes the
inputs, their cost-driving properties and the outputs to
`perfbench/data/<workload>.json.gz`, one file per workload. The committed
files were produced this way from the commit that introduced the benchmark;
later commits are checked against them, so rebuilding them is only right when
an output change is intended.
"""

from __future__ import annotations

import gzip
import json
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import harness  # noqa: E402
from mcifc import cli  # noqa: E402

COST_REPEATS = 3


def reference_of(case: dict, result: harness.OpResult) -> dict:
    ref = {"exit": result.exit_code}
    command = case["argv"][0]
    if command == "verify-fme":
        report = json.loads(result.artifacts["out.json"])
        ref.update(failures=report["failures"], instances=report["instances"])
    elif command == "counterexample":
        ref["found"] = json.loads(result.stdout)["found"]
    elif command == "dpc-compare":
        ref.update(csv=result.artifacts["out.csv"].decode(),
                   sidecar=result.artifacts["out.csv.json"].decode())
    elif command in ("region", "dmc-capacity") and result.exit_code == 0:
        ref["frontier"] = result.artifacts["out.csv"].decode()
    elif command == "dmc-capacity":
        witness = json.loads(result.stdout)["report"]["witness"]
        ref.update(condition=witness["condition"], receiver=witness["receiver"])
    return ref


def cost_ms(case: dict, argv: list[str], workdir: Path, digest: str) -> float:
    """Median calibrated latency of a few more runs (which must repeat the
    reference run byte for byte). Plans use it to stratify cases by cost."""
    times = []
    for _ in range(COST_REPEATS):
        result = harness.execute(cli, argv, workdir / case["id"])
        if result.digest != digest:
            raise SystemExit(f"{case['id']}: a repeat wrote different outputs")
        times.append(1000.0 * harness.scaled(result.seconds, harness.calibrate()))
    return round(statistics.median(times), 3)


def main() -> int:
    catalogue = gen.build_catalogue(gen.CATALOGUE_SEED)
    workdir = harness.fresh_workdir(HERE.parent / ".perfbench", "reference")
    try:
        for kind, cases in catalogue.items():
            for case in cases:
                argv = harness.materialize(case, workdir)
                result = harness.execute(cli, argv, workdir / case["id"])
                if result.exit_code not in (0, 2):
                    raise SystemExit(f"{case['id']}: exit {result.exit_code}: {result.error}")
                case["reference"] = reference_of(case, result)
                case["cost_ms"] = cost_ms(case, argv, workdir, result.digest)
                print(f"{case['id']:26s} exit {result.exit_code} "
                      f"{case['cost_ms']:8.1f} ms", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for workload, spec in gen.WORKLOADS.items():
        doc = {"catalogue_seed": gen.CATALOGUE_SEED,
               "kinds": {kind: catalogue[kind] for kind in spec.slots}}
        path = gen.catalogue_path(workload)
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(gzip.compress(
            json.dumps(doc, sort_keys=True, separators=(",", ":")).encode(), mtime=0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
