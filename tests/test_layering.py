"""Each module of `mcifc` keeps its leading-underscore names to itself: no
module imports or reads a private name of another. A rule one module needs
from another is made public there, so every decision has one owner and its
name says it is shared."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mcifc"
MODULES = {path.stem for path in SRC.glob("*.py")}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _module_of(node: ast.ImportFrom) -> str | None:
    """The `mcifc` module a `from ... import` names, "" for the package
    itself, or None for any other package."""
    if node.level == 1:
        return node.module or ""
    if node.module == "mcifc":
        return ""
    if node.module and node.module.startswith("mcifc."):
        return node.module.split(".", 1)[1]
    return None


def private_reads(path: Path) -> list[str]:
    """Every private name of another `mcifc` module that the module at
    `path` imports or reads as an attribute, as "module.name"."""
    tree = ast.parse(path.read_text(), filename=str(path))
    here = path.stem
    bound = {}  # local name -> the mcifc module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (module := _module_of(node)) is not None:
            for alias in node.names:
                if module == "" and alias.name in MODULES:
                    bound[alias.asname or alias.name] = alias.name
                elif module != here and _private(alias.name):
                    found.append(f"{module or 'mcifc'}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "mcifc" and len(parts) == 2 and alias.asname:
                    bound[alias.asname] = parts[1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = bound.get(node.value.id)
            if module is not None and module != here and _private(node.attr):
                found.append(f"{module}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    reads = {path.name: private_reads(path) for path in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in reads.items() if found} == {}


def test_the_guard_sees_each_form_of_read(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "from . import gaussian, dmc_regions as dr\n"
        "from .gaussian import _validate_partition, sorted_unique\n"
        "from mcifc.dpc import _Lanes\n"
        "import mcifc.polytope as pt\n"
        "def f():\n"
        "    gaussian._coherent(None)\n"
        "    return dr._CHUNK_CAP, pt._projection_cone, gaussian.region, dr.__name__\n")
    assert sorted(private_reads(path)) == [
        "dmc_regions._CHUNK_CAP", "dpc._Lanes", "gaussian._coherent",
        "gaussian._validate_partition", "polytope._projection_cone"]
