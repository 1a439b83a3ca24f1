"""The benchmark's tracer (`perfbench/harness.py`) wraps program functions
under the names their callers look them up by. Renaming or deleting one of
those names in `src/` breaks every traced benchmark run; these tests make
such a change fail the program's own suite as well, and make an import kept
only for the tracer fail it once the tracer stops wrapping that name."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HARNESS = ROOT / "perfbench" / "harness.py"
TRACED = "(perfbench/harness.py traces it here)"


def _load_harness():
    spec = importlib.util.spec_from_file_location("perfbench_harness", HARNESS)
    harness = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = harness
    spec.loader.exec_module(harness)
    return harness


def test_tracer_wraps_and_restores_every_attribute():
    harness = _load_harness()
    originals = []

    class Recording(harness.Tracer):
        def wrap(self, owner, attr, *args, **kwargs):
            originals.append((owner, attr, getattr(owner, attr)))
            super().wrap(owner, attr, *args, **kwargs)

    tracer = Recording()
    try:
        tracer.install()
        assert len(originals) > 20
        for owner, attr, fn in originals:
            assert getattr(owner, attr) is not fn, f"{owner.__name__}.{attr} was not wrapped"
    finally:
        tracer.uninstall()
    for owner, attr, fn in originals:
        assert getattr(owner, attr) is fn, f"{owner.__name__}.{attr} was not restored"


def _traced_imports() -> list[tuple[str, str]]:
    """(module, bound name) of each `src/mcifc` line that carries the
    traced-import comment: the last word of its code, as in `name,`,
    `import name` or `import name as alias`."""
    return [(f"mcifc.{path.stem}", line.split("#")[0].strip().rstrip(",").split()[-1])
            for path in sorted((ROOT / "src" / "mcifc").glob("*.py"))
            for line in path.read_text().splitlines() if TRACED in line]


def test_each_traced_import_binds_a_name_the_tracer_wraps_there():
    harness = _load_harness()
    wrapped = set()

    class Recording(harness.Tracer):
        def wrap(self, owner, attr, *args, **kwargs):
            wrapped.add((owner.__name__, attr))

    harness.install_wrappers(Recording())
    for module, name in _traced_imports():
        assert hasattr(importlib.import_module(module), name), (module, name)
        assert (module, name) in wrapped, f"{module}.{name} is imported for the tracer, " \
            "which does not wrap it there"
