"""Profile every catalogue case of one benchmark workload under cProfile.

    python3 tools/profile_workload.py WORKLOAD [--kind KIND ...] [--sort tottime|cumtime] [--top N]

Run from the repository root. Every case of `perfbench/data/WORKLOAD.json.gz`,
or only those of the kinds named by `--kind` (repeatable; e.g. dmc-screen's
`screen-shallow` apart from its `screen-deep`), runs once, in this process,
against `src/` of the working tree, through
`perfbench.harness.materialize` and `execute` as `tools/artifact_diff.py`
runs them. Inputs and artifacts go to the work directory `.profile-workload/`
(git-ignored), which is removed at the end. The report gives the number of
cases, their total wall time under the profiler, the cases that raised, and
the top N functions by the chosen sort key. The exit status is 1 when a case
raised and 0 otherwise.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from artifact_diff import ROOT, WORKLOADS  # noqa: E402

WORKDIR = ROOT / ".profile-workload"


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workload", choices=WORKLOADS)
    p.add_argument("--kind", action="append", metavar="KIND",
                   help="profile only the cases of this kind (repeatable)")
    p.add_argument("--sort", choices=("tottime", "cumtime"), default="tottime")
    p.add_argument("--top", type=int, default=25)
    args = p.parse_args(argv)
    if args.top < 1:
        p.error("--top must be >= 1")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen
    import harness
    from mcifc import cli

    catalogue = gen.load_catalogue(args.workload)
    kinds = args.kind or list(catalogue)
    unknown = sorted(set(kinds) - set(catalogue))
    if unknown:
        p.error(f"{args.workload} has no kind {', '.join(unknown)}; "
                f"its kinds are {', '.join(sorted(catalogue))}")
    cases = [c for kind in catalogue if kind in kinds for c in catalogue[kind]]
    shutil.rmtree(WORKDIR, ignore_errors=True)
    profiler = cProfile.Profile()
    raised = []
    t0 = time.perf_counter()
    try:
        for case in cases:
            argv_case = harness.materialize(case, WORKDIR)
            profiler.enable()
            res = harness.execute(cli, argv_case, WORKDIR / case["id"])
            profiler.disable()
            if res.exit_code is None:
                raised.append(f"{case['id']}: {res.error}")
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    wall = time.perf_counter() - t0
    label = args.workload + (f" ({', '.join(args.kind)})" if args.kind else "")
    print(f"{label}: {len(cases)} cases, {wall:.2f} s wall under cProfile, "
          f"{len(raised)} raised")
    for line in raised:
        print(f"  raised {line}")
    pstats.Stats(profiler, stream=sys.stdout).sort_stats(args.sort).print_stats(args.top)
    return 1 if raised else 0


if __name__ == "__main__":
    sys.exit(main())
