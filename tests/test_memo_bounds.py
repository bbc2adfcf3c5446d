"""Every memo in the package is bounded.

A ``functools.lru_cache(maxsize=None)`` or a ``functools.cache`` keeps
every key and result for the life of the process; the library's memos
(models, weight filtrations, bigraded pieces, ∂̄ integrals) each hold a
fixed number of entries instead.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import limithodge


def _unbounded_memos(source: str) -> list[int]:
    """Lines of an unbounded ``cache`` or ``lru_cache`` in Python source."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            lines += [node.lineno for alias in node.names if alias.name == "cache"]
        elif isinstance(node, ast.Attribute) and node.attr == "cache" \
                and isinstance(node.value, ast.Name) and node.value.id == "functools":
            lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name != "lru_cache":
                continue
            sizes = [kw.value for kw in node.keywords if kw.arg == "maxsize"] + node.args[:1]
            if any(not (isinstance(size, ast.Constant) and type(size.value) is int)
                   for size in sizes):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("source, unbounded", [
    ("from functools import lru_cache\n@lru_cache(maxsize=32)\ndef f(x): pass", False),
    ("import functools\n@functools.lru_cache(8)\ndef f(x): pass", False),
    ("from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(x): pass", True),
    ("import functools\n@functools.lru_cache(None)\ndef f(x): pass", True),
    ("from functools import cache\n@cache\ndef f(x): pass", True),
    ("import functools\nf = functools.cache(len)", True),
    ("import functools\nSIZE = None\nf = functools.lru_cache(maxsize=SIZE)(len)", True),
])
def test_the_rule_flags_unbounded_memos(source, unbounded):
    assert bool(_unbounded_memos(source)) == unbounded


def test_every_memo_in_the_package_is_bounded():
    found = []
    for path in sorted(Path(limithodge.__file__).parent.glob("*.py")):
        found += [f"{path.name}:{line}" for line in _unbounded_memos(path.read_text())]
    assert found == []
