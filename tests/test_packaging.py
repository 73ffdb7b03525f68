"""Packaging metadata tests: what pyproject.toml declares must exist."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def test_sources_parse_as_python_3_10():
    # requires-python's floor; this checks syntax only, not the stdlib or
    # numpy APIs the code calls
    paths = sorted([*(ROOT / "src" / "myobridge").glob("*.py"),
                    *(ROOT / "tests").glob("*.py")])
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))


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
        modules = {}  # local name -> the myobridge module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update((a.asname or a.name, a.name) for a in node.names
                               if a.name in package_modules)
            elif isinstance(node, ast.ImportFrom) and (
                    node.module in package_modules):
                for a in node.names:
                    refs.append((path.name, node.module, a.name))
                    if f"{node.module}.{a.name}" in package_modules:
                        modules[a.asname or a.name] = f"{node.module}.{a.name}"
        refs.extend((path.name, modules[node.value.id], node.attr)
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules)
    return refs


def test_benchmark_calls_only_names_the_package_has():
    # the benchmark under perfbench/ is frozen between its revisions, so a
    # name it calls must not be deleted or renamed in src
    package_modules = _package_modules()
    refs = sorted(set(_benchmark_references(package_modules)))
    assert ("wire.py", "myobridge.protocol",
            "parse_attribute_value_event") in refs
    missing = [(where, module, name) for where, module, name in refs
               if f"{module}.{name}" not in package_modules
               and not hasattr(importlib.import_module(module), name)]
    assert not missing, f"perfbench uses names myobridge lacks: {missing}"
