"""Rules that hold across the modules of the package."""

import ast
import inspect
import math
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


def caller_paths():
    """The sources outside ``tests/`` that use the package: its modules, demos, tools, benchmark."""
    paths = [path for path in PACKAGE_DIR.glob("*.py") if path.name != "__init__.py"]
    for folder in ("demos", "tools", "perfbench"):
        paths += sorted((ROOT / folder).rglob("*.py"))
    return paths


def test_every_export_has_a_caller_outside_tests():
    import rankspectral

    used = used_names(caller_paths())
    unused = set(rankspectral.__all__) - used - EXPORTS_WITHOUT_CALLER
    assert sorted(unused) == []


def exported_classes():
    import rankspectral

    objects = (getattr(rankspectral, name) for name in rankspectral.__all__)
    return [obj for obj in objects if inspect.isclass(obj)]


def passed_arguments(paths):
    """name -> (most positional arguments, keyword names) over the calls of ``name``.

    A call names its callee by the last part of its dotted name. A ``*args``
    counts as every position, a ``**kwargs`` as every keyword.
    """
    passed = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            positions = math.inf if starred else len(node.args)
            keywords = {kw.arg for kw in node.keywords}
            most, names = passed.get(name, (0, set()))
            passed[name] = (max(most, positions), names | keywords)
    return passed


def options(function, bound):
    """(position, name) of each defaulted parameter; a bound method's first one is not counted."""
    params = list(inspect.signature(function).parameters.values())[1 if bound else 0 :]
    return [
        (position, param.name)
        for position, param in enumerate(params)
        if param.default is not inspect.Parameter.empty
    ]


def test_every_option_has_a_caller_outside_tests():
    """Every option of an export, or of an exported class's public method, is passed outside tests.

    An option is a defaulted parameter, passed by position or by keyword.
    Callers are matched by name only, so a call of another function of the
    same name counts too.
    """
    import rankspectral

    targets = []
    for name in sorted(set(rankspectral.__all__) - EXPORTS_WITHOUT_CALLER):
        obj = getattr(rankspectral, name)
        if inspect.isfunction(obj):
            targets.append((name, obj.__name__, obj, False))
    for cls in exported_classes():
        for attr, member in vars(cls).items():
            if attr.startswith("_") or not callable(getattr(cls, attr)):
                continue
            bound = not isinstance(member, (staticmethod, classmethod))
            targets.append((f"{cls.__name__}.{attr}", attr, getattr(cls, attr), bound))
    passed = passed_arguments(caller_paths())
    unpassed = []
    for label, callee, function, bound in targets:
        most, keywords = passed.get(callee, (0, set()))
        for position, option in options(function, bound):
            if position >= most and option not in keywords and None not in keywords:
                unpassed.append(f"{label}({option})")
    assert unpassed == []


def test_every_public_member_has_a_caller_outside_tests():
    """Every public member an exported class defines is read somewhere outside ``tests/``.

    Members are the methods, properties and class attributes in the class
    body, dataclass fields aside. Readers are matched by name only, so a
    read of another object's member of the same name counts too.
    """
    used = used_names(caller_paths())
    unread = []
    for cls in exported_classes():
        fields = getattr(cls, "__dataclass_fields__", {})
        for attr in vars(cls):
            if not attr.startswith("_") and attr not in fields and attr not in used:
                unread.append(f"{cls.__name__}.{attr}")
    assert sorted(unread) == []
