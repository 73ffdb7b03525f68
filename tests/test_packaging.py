"""Packaging metadata tests: what pyproject.toml declares must exist."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def test_sources_parse_as_python_3_10():
    # requires-python's floor; this checks syntax only.  The next test
    # checks stdlib names; nothing checks the numpy APIs the code calls
    paths = sorted([*(ROOT / "src" / "myobridge").glob("*.py"),
                    *(ROOT / "tests").glob("*.py")])
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))


# stdlib modules and names added after Python 3.10, requires-python's floor
_NEWER_THAN_3_10 = {
    "itertools.batched", "math.sumprod", "math.cbrt", "math.exp2",
    "operator.call", "typing.Self", "enum.StrEnum", "tomllib",
    "datetime.UTC", "hashlib.file_digest", "contextlib.chdir",
}


def _dotted_names(tree):
    """Each module the tree imports, as `m`, each name it imports from a
    module, as `m.name`, and each attribute it reads off a name an import
    binds, as `m.name.attr` or `m.attr`."""
    bound = {}  # local name -> the dotted name an import binds to it
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name] = alias.name
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            for alias in node.names:
                bound[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}")
                yield f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            yield f"{bound[node.value.id]}.{node.attr}"


def test_sources_use_no_stdlib_name_newer_than_python_3_10():
    probe = ast.parse("import tomllib\nimport itertools as it\n"
                      "from math import cbrt\nit.batched('ab', 1)\n")
    assert {"tomllib", "itertools.batched", "math.cbrt"} <= set(
        _dotted_names(probe))
    paths = sorted((ROOT / "src").rglob("*.py"))
    assert paths
    found = [(path.name, name) for path in paths
             for name in _dotted_names(ast.parse(
                 path.read_text(encoding="utf-8"), filename=str(path)))
             if name in _NEWER_THAN_3_10]
    assert not found, f"src uses names Python 3.10 lacks: {found}"


def test_console_scripts_resolve_to_callables():
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module_name, _, attr_path = target.partition(":")
        obj = importlib.import_module(module_name)
        for attr in attr_path.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), f"{name} = {target!r} is not callable"


def test_package_version_is_the_declared_version():
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    with open(PYPROJECT, "rb") as fh:
        declared = tomllib.load(fh)["project"]["version"]
    assert importlib.import_module("myobridge").__version__ == declared


def _package_modules():
    return {"myobridge"} | {f"myobridge.{path.stem}" for path in
                            (ROOT / "src" / "myobridge").glob("*.py")}


def _benchmark_references(package_modules):
    """(file, module, name) of every myobridge name perfbench/*.py uses:
    each `from myobridge.x import y` and each `<module>.<name>` attribute
    read off a name an import binds to a myobridge module."""
    refs = []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for dotted in _dotted_names(tree):
            module, _, name = dotted.rpartition(".")
            if module in package_modules:
                refs.append((path.name, module, name))
    return refs


def test_benchmark_calls_only_names_the_package_has():
    # the benchmark under perfbench/ is frozen between its revisions, so a
    # name it calls must not be deleted or renamed in src.  Its self-tests
    # do not reach every one: glue.py reads fusion.NonNormalizableError
    # only when that error is raised
    package_modules = _package_modules()
    refs = sorted(set(_benchmark_references(package_modules)))
    assert {("wire.py", "myobridge.protocol", "parse_attribute_value_event"),
            ("glue.py", "myobridge.fusion", "NonNormalizableError"),
            ("glue.py", "myobridge.protocol", "unpack_imu_raw")} <= set(refs)
    missing = [(where, module, name) for where, module, name in refs
               if f"{module}.{name}" not in package_modules
               and not hasattr(importlib.import_module(module), name)]
    assert not missing, f"perfbench uses names myobridge lacks: {missing}"
