"""List the statements of `src/mcifc` that a run never executes.

    python3 tools/line_coverage.py [--catalogue] [PYTEST_ARG ...]

Run from the repository root. A `sys.settrace` tracer records every line of
`src/mcifc` that runs, from before the package is first imported. By default
the run is the Tier-1 suite, in this process (`pytest -q`, plus any
PYTEST_ARG); with `--catalogue` it is every case of the benchmark catalogues
(`perfbench/data/*.json.gz`), each through `perfbench.harness.materialize`
and `execute`, as `tools/artifact_diff.py` runs them, with the artifacts
written to a temporary directory. Lines run only by a child process (the CLI
tests that start a fresh interpreter) are not seen.

The report gives, per module, the statements run out of those that compile
to code, and per function (by qualified name; `<module>` for top-level code)
the first line of each statement never run. A statement counts as run when
any of its own lines runs: a compound statement owns its header lines, a
simple one all of its lines. The body of an `if TYPE_CHECKING:` is not
counted, since no run executes it; its `else` branch is. The exit status is
pytest's, or 0 for `--catalogue`.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mcifc"
WORKLOADS = ("fme-verify", "dmc-scan", "dmc-screen", "gaussian-dpc")
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def code_lines(code) -> set[int]:
    """The lines that hold bytecode of `code` and of the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def own_lines(stmt: ast.stmt) -> range:
    """The lines of `stmt` that are not lines of the statements in its body."""
    bodies = [getattr(stmt, field, None) for field in ("body", "orelse", "finalbody", "handlers")]
    starts = [block[0].lineno for block in bodies if isinstance(block, list) and block]
    if isinstance(stmt, SCOPES):
        # a definition runs at its decorators and its def line
        first = min([stmt.lineno] + [d.lineno for d in stmt.decorator_list])
        return range(first, stmt.body[0].lineno)
    return range(stmt.lineno, (min(starts) if starts else stmt.end_lineno + 1))


def type_checking_only(stmt: ast.stmt) -> bool:
    """Whether `stmt` is `if TYPE_CHECKING:` or `if typing.TYPE_CHECKING:`."""
    test = stmt.test if isinstance(stmt, ast.If) else None
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def statements(tree: ast.Module):
    """(qualified name of the enclosing scope, statement) for each statement
    of the module; a docstring is not listed, nor the body of an
    `if TYPE_CHECKING:`."""
    def walk(body, scope):
        for i, stmt in enumerate(body):
            if (i == 0 and isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, str)):
                continue
            yield scope, stmt
            inner = scope
            if isinstance(stmt, SCOPES):
                inner = stmt.name if scope == "<module>" else f"{scope}.{stmt.name}"
            fields = ("orelse",) if type_checking_only(stmt) else ("body", "orelse", "finalbody")
            for field in fields:
                block = getattr(stmt, field, None)
                if isinstance(block, list):
                    yield from walk(block, inner)
            for part in getattr(stmt, "handlers", []) + getattr(stmt, "cases", []):
                yield from walk(part.body, inner)
    yield from walk(tree.body, "<module>")


def report(hits: dict[str, set[int]]) -> list[str]:
    out, run_total, all_total = [], 0, 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        executable = code_lines(compile(source, str(path), "exec"))
        ran = hits.get(str(path), set())
        missed: dict[str, list[int]] = {}
        count = run = 0
        for scope, stmt in statements(ast.parse(source)):
            lines = set(own_lines(stmt))
            if not lines & executable:
                continue
            count += 1
            if lines & ran:
                run += 1
            else:
                missed.setdefault(scope, []).append(stmt.lineno)
        run_total, all_total = run_total + run, all_total + count
        out.append(f"{path.relative_to(ROOT)}: {run} of {count} statements run")
        out += [f"  {scope}: {', '.join(map(str, lines))}" for scope, lines in missed.items()]
    out.append(f"total: {run_total} of {all_total} statements run")
    return out


class LineTracer:
    """Records (file, line) for every line run in a file of `src/mcifc`."""

    def __init__(self):
        self.prefix = str(PACKAGE) + "/"
        self.hits: dict[str, set[int]] = {}

    def __enter__(self):
        sys.settrace(self.call)
        threading.settrace(self.call)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)
        threading.settrace(None)

    def call(self, frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(self.prefix):
            return None
        seen = self.hits.setdefault(path, set())

        def line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return line
        return line


def run_catalogue() -> int:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen
    import harness
    from mcifc import cli

    with tempfile.TemporaryDirectory() as workdir:
        for workload in WORKLOADS:
            for cases in gen.load_catalogue(workload).values():
                for case in cases:
                    argv = harness.materialize(case, Path(workdir))
                    harness.execute(cli, argv, Path(workdir) / case["id"])
    return 0


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--catalogue", action="store_true",
                   help="run the benchmark catalogues instead of the Tier-1 suite")
    args, pytest_args = p.parse_known_args(argv[1:])
    # the package comes from this checkout, here and in any child process
    src = str(PACKAGE.parent)
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    with LineTracer() as tracer:
        if args.catalogue:
            status = run_catalogue()
        else:
            import pytest
            status = int(pytest.main(["-q", *pytest_args]))
    print("\n".join(report(tracer.hits)))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
