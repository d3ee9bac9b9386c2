"""Rules that hold across the modules of the package."""

import ast
from pathlib import Path

import pytest

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "rankspectral"
PACKAGE = PACKAGE_DIR.name
MODULES = sorted(path.stem for path in PACKAGE_DIR.glob("*.py"))


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _module_of(node):
    """The package module an ``import`` or ``from`` statement names, else None."""
    if node.level > 1:
        return None
    dotted = node.module or ""
    if node.level == 0:
        if dotted.split(".")[0] != PACKAGE:
            return None
        dotted = dotted[len(PACKAGE) + 1 :]
    return dotted if dotted in MODULES else ("" if not dotted else None)


def private_crossings(source, module):
    """``_``-prefixed names that ``module``'s source takes from another package module.

    Counts ``from .other import _name`` (relative or absolute) and
    ``alias._name`` where ``alias`` is bound to another package module by an
    import. Dunder names are not private.
    """
    tree = ast.parse(source)
    aliases = {}  # local name -> package module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            target = _module_of(node)
            if target is None:
                continue
            for alias in node.names:
                if target == "":  # from . import other / from rankspectral import other
                    if alias.name in MODULES:
                        aliases[alias.asname or alias.name] = alias.name
                elif target != module and _private(alias.name):
                    found.append(f"{target}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == PACKAGE and len(parts) == 2 and parts[1] in MODULES:
                    if alias.asname:
                        aliases[alias.asname] = parts[1]
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and _private(node.attr)):
            continue
        value = node.value
        target = None
        if isinstance(value, ast.Name):
            target = aliases.get(value.id)
        elif (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id == PACKAGE
            and value.attr in MODULES
        ):
            target = value.attr
        if target is not None and target != module:
            found.append(f"{target}.{node.attr}")
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_private_name_crosses_modules(module):
    source = (PACKAGE_DIR / f"{module}.py").read_text(encoding="utf-8")
    assert private_crossings(source, module) == []


CASES = {
    "relative-from": ("from .symmetric import _parse_blocks", ["symmetric._parse_blocks"]),
    "absolute-from": ("from rankspectral.ranking import _BLOCK as B", ["ranking._BLOCK"]),
    "module-attribute": ("from . import symmetric\nsymmetric._columns(3)", ["symmetric._columns"]),
    "aliased-module": ("from . import symmetric as s\nx = s._KEY_BLOCK", ["symmetric._KEY_BLOCK"]),
    "imported-as": ("import rankspectral.ranking as rk\nrk._order_dtype", ["ranking._order_dtype"]),
    "dotted-path": ("import rankspectral.rng\nrankspectral.rng._x", ["rng._x"]),
    "own-module": ("from .spectra import _frobenius", []),
    "public-and-dunder": ("from .symmetric import row_offsets, __doc__", []),
    "public-attribute": ("from . import symmetric\nsymmetric.row_offsets(3)", []),
    "other-package": ("import numpy as np\nnp._NoValue", []),
    "class-attribute": ("from .models import Uniform\nUniform._private", []),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_crossing_detector(case):
    source, expected = CASES[case]
    assert private_crossings(source, "spectra") == expected


ROOT = PACKAGE_DIR.parents[1]
# The writer half of the bit-exact round-trip contract: only tests save a
# matrix, to check that loading what was saved gives it back bit for bit.
EXPORTS_WITHOUT_CALLER = {"save_matrix"}


def used_names(paths):
    """Every identifier the sources at ``paths`` read, as a name or an attribute."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_has_a_caller_outside_tests():
    import rankspectral

    callers = [path for path in PACKAGE_DIR.glob("*.py") if path.name != "__init__.py"]
    for folder in ("demos", "tools", "perfbench"):
        callers += sorted((ROOT / folder).rglob("*.py"))
    used = used_names(callers)
    unused = set(rankspectral.__all__) - used - EXPORTS_WITHOUT_CALLER
    assert sorted(unused) == []
