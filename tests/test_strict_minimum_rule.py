"""Two second-order tests in tvland's sources, no more.

A strict local minimizer is what ``ode._polish_limit`` accepts: flow limits
and catalog entries pass that one test.  The discrete engine's
``_newton_point`` checks its proximal subproblem's Newton point on its own.
A third caller of ``positive_definite_on_kernel`` would be a third
acceptance rule, so the guard names the file and line of any other call.
"""

import ast
import pathlib

import pytest

import tvland

SOURCES = sorted(pathlib.Path(tvland.__file__).parent.glob("*.py"))

#: The functions allowed to call ``positive_definite_on_kernel``, as (file, function).
SECOND_ORDER_TESTS = {("ode.py", "_polish_limit"), ("discrete.py", "_newton_point")}


def second_order_calls(source: str, name: str) -> list[str]:
    """``name:line: function`` for each call of ``positive_definite_on_kernel``
    outside :data:`SECOND_ORDER_TESTS` (``<module>`` outside any function)."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if (called == "positive_definite_on_kernel"
                        and (name, function) not in SECOND_ORDER_TESTS):
                    found.append(f"{name}:{child.lineno}: {function}")
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_third_second_order_test(path):
    assert second_order_calls(path.read_text(encoding="utf-8"), path.name) == []


def test_guard_finds_each_form():
    source = ("def _polish_limit(M, J):\n"
              "    return positive_definite_on_kernel(M, J)\n"
              "def entry_test(M, J):\n"
              "    def inner():\n"
              "        return geometry.positive_definite_on_kernel(M, J)\n"
              "    return inner() and positive_definite_on_kernel(M, J)\n"
              "ok = positive_definite_on_kernel(M, J)\n")
    assert second_order_calls(source, "ode.py") == [
        "ode.py:5: inner", "ode.py:6: entry_test", "ode.py:7: <module>"]
    assert second_order_calls(source, "classify.py") == [
        "classify.py:2: _polish_limit", "classify.py:5: inner",
        "classify.py:6: entry_test", "classify.py:7: <module>"]
