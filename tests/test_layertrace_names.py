"""The benchmark's layer tracer names functions of tvland; they must exist.

``perfbench/layertrace.py`` wraps the functions it lists by name when a
traced benchmark run starts.  A change that deletes or renames one of them
would only fail there, so this test reads the lists (without importing or
changing the tracer) and resolves every name in the package.
"""

import ast
import importlib
import os

import pytest

LAYERTRACE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "perfbench", "layertrace.py")


def _constants(*names):
    """The literal values of the module-level assignments ``names`` in the tracer."""
    with open(LAYERTRACE, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = {node.targets[0].id: ast.literal_eval(node.value)
             for node in tree.body
             if isinstance(node, ast.Assign) and len(node.targets) == 1
             and isinstance(node.targets[0], ast.Name) and node.targets[0].id in names}
    assert sorted(found) == sorted(names)
    return found


_LISTS = _constants("SPANNED", "BUILDER_FACTORIES", "SCENARIOS")
_TRACED = ([(module, fn) for module, fns in _LISTS["SPANNED"].items() for fn in fns]
           + [("classify", fn) for fn in _LISTS["BUILDER_FACTORIES"]]
           + [("problem", fn) for fn in _LISTS["SCENARIOS"]])


@pytest.mark.parametrize("module, fn", _TRACED, ids=[f"{m}.{f}" for m, f in _TRACED])
def test_traced_name_resolves(module, fn):
    assert callable(getattr(importlib.import_module(f"tvland.{module}"), fn, None))
