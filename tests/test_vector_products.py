"""Vector products in tvland's sources keep the interpreter lock.

``ndarray.dot``, ``np.dot`` and ``np.inner`` release the interpreter lock and
retake it at every call, and so does ``np.linalg.norm`` without ``axis`` or
``ord``, which is ``sqrt(x.dot(x))``.  On the small vectors of a time step
that makes two sweep workers hand the lock back and forth on each product;
``np.vdot``, ``geometry._norm`` and small ``@`` products keep it.
"""

import ast
import pathlib

import pytest

import tvland

SOURCES = sorted(pathlib.Path(tvland.__file__).parent.glob("*.py"))


def _dotted(node) -> str:
    """``np.linalg.norm`` for that attribute chain, "" for any other expression."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else ""


def lock_releasing_calls(source: str, name: str) -> list[str]:
    """``name:line: call`` for each call in ``source`` that releases the lock."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        func = _dotted(node.func)
        keywords = {k.arg for k in node.keywords}
        if (node.func.attr == "dot" or func == "np.inner"
                or func == "np.linalg.norm" and len(node.args) < 2
                and not keywords & {"axis", "ord"}):
            found.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_lock_releasing_vector_product(path):
    assert lock_releasing_calls(path.read_text(encoding="utf-8"), path.name) == []


def test_guard_finds_each_form():
    source = ("a = v.dot(v)\n"
              "b = np.dot(u, v)\n"
              "c = np.inner(u, v)\n"
              "d = np.linalg.norm(v)\n"
              "e = np.linalg.norm(m, axis=1) + np.linalg.norm(m, 2) + np.vdot(v, v)\n"
              "f = (u @ v) + np.linalg.norm(v, ord=1)\n")
    assert lock_releasing_calls(source, "x.py") == [
        "x.py:1: v.dot(v)", "x.py:2: np.dot(u, v)", "x.py:3: np.inner(u, v)",
        "x.py:4: np.linalg.norm(v)"]
