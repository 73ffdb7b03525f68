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
