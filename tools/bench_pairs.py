"""Run the benchmark in pairs on a git revision and on the working tree.

    python3 tools/bench_pairs.py REV WORKLOAD [--pairs 10] [--seed 1]

Run from the repository root. `src/` at REV and `src/` of the working tree
(untracked files included) are exported as `tools/artifact_diff.py` exports
them, into two roots of a temporary directory; both roots get a copy of the
working tree's `perfbench/`, so the benchmark code is identical. Pair i runs
`perfbench/run.py --workload WORKLOAD --seed SEED+i --seconds 20 --trace 0`
in both roots, REV first in even pairs and the working tree first in odd
ones. The report gives, for each end-to-end metric of `BENCHMARK.json`, each
side's median and quartiles over the pairs and the share of pairs the working
tree won (ties count for neither), and each side's failed ops. A metric
whose tree median is worse than the rev median by more than its
`BENCHMARK.json` bound is marked WORSE, and the exit status is 1 when any
metric is marked WORSE, 0 otherwise. A metric whose rev IQR exceeds its
bound times the rev median is marked UNRESOLVED, unless every tree run beats
every rev run: its runs spread too widely for a change of the median to be
read as a move.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from artifact_diff import ROOT, export_src, working_tree  # noqa: E402

SECONDS = 20


def make_root(tree: str, dest: Path) -> Path:
    export_src(tree, dest)
    shutil.copytree(ROOT / "perfbench", dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def bench(root: Path, workload: str, seed: int) -> dict:
    """The final JSON line of one untraced benchmark run in `root`."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=root, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("rev")
    p.add_argument("workload")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be >= 2")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs: dict[str, list[dict]] = {"rev": [], "tree": []}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        roots = {"rev": make_root(args.rev, tmp / "rev"),
                 "tree": make_root(working_tree(tmp), tmp / "tree")}
        for i in range(args.pairs):
            seed = args.seed + i
            for side in ("rev", "tree") if i % 2 == 0 else ("tree", "rev"):
                runs[side].append(bench(roots[side], args.workload, seed))
            values = {side: {m["name"]: runs[side][-1]["metrics"][m["name"]]["value"]
                             for m in metrics} for side in runs}
            print(f"pair {i} seed {seed}: " + "; ".join(
                f"{name} {values['rev'][name]:.4g} -> {values['tree'][name]:.4g}"
                for name in values["rev"]), flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs, seeds {args.seed}-"
          f"{args.seed + args.pairs - 1}, {SECONDS} s runs; {args.rev} vs the working tree")
    print(f"{'metric':12s} {'rev q1/median/q3':>30s} {'tree q1/median/q3':>30s} "
          f"{'change':>8s} {'tree won':>9s}")
    worse = []
    for m in metrics:
        name, sign = m["name"], (1 if m["better"] == "higher" else -1)
        old = [r["metrics"][name]["value"] for r in runs["rev"]]
        new = [r["metrics"][name]["value"] for r in runs["tree"]]
        won = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        (oq1, omed, oq3), (nq1, nmed, nq3) = quartiles(old), quartiles(new)
        if sign * (omed - nmed) / omed > m["bound"]:
            worse.append(name)
        unresolved = oq3 - oq1 > m["bound"] * omed \
            and not min(sign * b for b in new) > max(sign * a for a in old)
        print(f"{name:12s} {oq1:9.4g} {omed:9.4g} {oq3:9.4g}  {nq1:9.4g} {nmed:9.4g} "
              f"{nq3:9.4g} {(nmed - omed) / omed:+8.1%} {won:4d}/{len(old)}"
              f"  (rev IQR {oq3 - oq1:.4g}, bound {m['bound']:.0%})"
              + ("  WORSE" if name in worse else "") + ("  UNRESOLVED" if unresolved else ""))
    for side in runs:
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        correct = all(r["correct"] for r in runs[side])
        print(f"{side}: {failed} of {attempted} ops failed; correct in every run: {correct}")
    if worse:
        print(f"worse than {args.rev} beyond the bound: {', '.join(worse)}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
