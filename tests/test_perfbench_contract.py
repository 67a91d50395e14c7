"""The end-to-end benchmark's references into ``repro`` stay valid.

``perfbench/rep.py`` imports every module in its ``MODULES`` tuple
during set-up, and ``perfbench/layers.py`` wraps every
``(module, attribute)`` in its ``ENTRY_POINTS`` by name when a run is
traced.  The benchmark changes only together with its own record, so a
refactor that deletes or renames one of these names would break its
set-up or its traced runs without any other test noticing.  This module
reads both lists (``rep.py`` through ``ast``, since importing it pulls
in the benchmark's host probe) and checks every name resolves.
"""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

import pytest

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _rep_modules() -> tuple[str, ...]:
    tree = ast.parse((_PERFBENCH / "rep.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "MODULES"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/rep.py defines no MODULES tuple")


def _entry_points() -> tuple[tuple[str, str, str], ...]:
    sys.path.insert(0, str(_PERFBENCH))
    try:
        layers = importlib.import_module("layers")
    finally:
        sys.path.remove(str(_PERFBENCH))
        sys.modules.pop("layers", None)
    return layers.ENTRY_POINTS


MODULES = _rep_modules()
ENTRY_POINTS = _entry_points()


def test_lists_are_not_empty():
    assert MODULES and ENTRY_POINTS


@pytest.mark.parametrize("module", MODULES)
def test_setup_module_imports(module):
    importlib.import_module(module)


@pytest.mark.parametrize(
    "module, attribute",
    [(module, attribute) for module, attribute, _ in ENTRY_POINTS],
    ids=[f"{module}:{attribute}" for module, attribute, _ in ENTRY_POINTS],
)
def test_entry_point_resolves(module, attribute):
    owner = importlib.import_module(module)
    for part in attribute.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
