"""Compare the CLI's outputs at a git revision with the working tree's.

    python3 tools/artifact_diff.py REV [--workload W ...]

Run from the repository root. `src/` at REV and `src/` of the working tree
(untracked files included) are each exported with `git archive` into a
temporary directory. Each side then runs every case of the benchmark
catalogues (`perfbench/data/*.json.gz`), or of the catalogues named by
`--workload` (repeatable), in one subprocess of its own, through
`perfbench.harness.materialize` and `execute`, in the same work directory
(`.artifact-diff/`), so the paths the CLI echoes on stdout match. The report
lists every case whose exit code, stdout, stderr or artifact bytes differ;
the exit status is 0 when none does and 1 otherwise.
"""

from __future__ import annotations

import argparse
import base64
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".artifact-diff"
WORKLOADS = ("fme-verify", "dmc-scan", "dmc-screen", "gaussian-dpc")


def git(*args: str, env=None) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, env=env, check=True,
                          capture_output=True).stdout


def export_src(tree: str, dest: Path) -> Path:
    """Extract `src/` of a git tree-ish under `dest` and return its path."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", tree, "src"))) as tar:
        tar.extractall(dest)
    return dest / "src"


def working_tree(scratch: Path) -> str:
    """A tree object of the working tree's `src/`, built in a private index
    so the repository's own index is left alone."""
    env = {**os.environ, "GIT_INDEX_FILE": str(scratch / "index")}
    git("add", "-A", "src", env=env)
    return git("write-tree", env=env).decode().strip()


def run_side(src: str, out_path: str, workloads: list[str]) -> None:
    """Subprocess body: run every case of `workloads` against the program in
    `src`."""
    sys.path.insert(0, src)
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen
    import harness
    from mcifc import cli

    results = {}
    for workload in workloads:
        for cases in gen.load_catalogue(workload).values():
            for case in cases:
                argv = harness.materialize(case, WORKDIR)
                res = harness.execute(cli, argv, WORKDIR / case["id"])
                results[f"{workload}/{case['id']}"] = {
                    "exit": res.exit_code, "stdout": res.stdout, "stderr": res.error,
                    "artifacts": {name: base64.b64encode(data).decode()
                                  for name, data in res.artifacts.items()},
                }
    Path(out_path).write_text(json.dumps(results))


def run(src: Path, out: Path, workloads: list[str]) -> dict:
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir()
    # one thread: the CLI's arrays are far too small for a BLAS pool to help
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    subprocess.run([sys.executable, __file__, "--side", str(src), str(out), *workloads],
                   check=True, env=env)
    return json.loads(out.read_text())


def main(argv: list[str]) -> int:
    if len(argv) >= 4 and argv[1] == "--side":
        run_side(argv[2], argv[3], argv[4:])
        return 0
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("rev", help="git revision to compare the working tree with")
    p.add_argument("--workload", action="append", choices=WORKLOADS,
                   help="diff only this catalogue (repeatable; default: all)")
    args = p.parse_args(argv[1:])
    workloads = list(dict.fromkeys(args.workload or WORKLOADS))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        base = run(export_src(args.rev, tmp / "rev"), tmp / "rev.json", workloads)
        head = run(export_src(working_tree(tmp), tmp / "tree"), tmp / "tree.json", workloads)
    shutil.rmtree(WORKDIR, ignore_errors=True)
    differing = []
    for case in sorted(base.keys() | head.keys()):
        old, new = base.get(case), head.get(case)
        if old != new:
            fields = [k for k in ("exit", "stdout", "stderr", "artifacts")
                      if old is None or new is None or old[k] != new[k]]
            differing.append(case)
            print(f"{case}: {', '.join(fields)} differ")
    print(f"{len(differing)} of {len(base.keys() | head.keys())} cases differ "
          f"between {args.rev} and the working tree")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
