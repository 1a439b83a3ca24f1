"""The benchmark's tracer (`perfbench/harness.py`) wraps program functions
under the names their callers look them up by. Renaming or deleting one of
those names in `src/` breaks every traced benchmark run; this test makes
such a change fail the program's own suite as well."""

import importlib.util
import sys
from pathlib import Path

HARNESS = Path(__file__).resolve().parent.parent / "perfbench" / "harness.py"


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
