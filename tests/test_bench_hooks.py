"""The library names that perfbench's per-layer counters hook.

perfbench/layers.py counts work by wrapping these attributes at run time
and reports a metric as absent when a name is missing, so a rename would
silently drop a count that a benchmark diff relies on (ROADMAP item 12
would retire this contract).
"""

from __future__ import annotations

import importlib

import pytest

from limithodge import exactla, growth, l2complex, weightfilt
from limithodge.weightfilt import monodromy_weight_filtration

HOOKED = [
    ("exactla", "_row_reduce"),
    ("exactla", "ExactMatrix.__matmul__"),
    ("exactla", "Scalar.__mul__"),
    ("exactla", "Scalar.__rmul__"),
    ("exactla", "Scalar.inv"),
    ("weightfilt", "_verify_weight_axioms"),
    ("dbar", "_tail_converges"),
    ("growth", "_weight_filtration.cache_info"),
    ("growth", "_weight_filtration.cache_clear"),
    ("l2complex", "_bilevel_pieces.cache_info"),
    ("l2complex", "_bilevel_pieces.cache_clear"),
]


@pytest.mark.parametrize("module, path", HOOKED)
def test_hooked_name_exists(module, path):
    obj = importlib.import_module(f"limithodge.{module}")
    for attr in path.split("."):
        obj = getattr(obj, attr)
    assert callable(obj)


def test_module_level_hooks_see_the_weight_filtration_build(monkeypatch):
    # the hooks replace module globals, so the library must call through them
    counts = {"rref": 0, "matmul": 0, "verify": 0}

    def counting(key, original):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(exactla, "_row_reduce", counting("rref", exactla._row_reduce))
    monkeypatch.setattr(exactla.ExactMatrix, "__matmul__",
                        counting("matmul", exactla.ExactMatrix.__matmul__))
    monkeypatch.setattr(weightfilt, "_verify_weight_axioms",
                        counting("verify", weightfilt._verify_weight_axioms))
    assert growth._weight_filtration is weightfilt._weight_filtration
    assert l2complex._weight_filtration is weightfilt._weight_filtration
    weightfilt._weight_filtration.cache_clear()
    n = exactla.ExactMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    monodromy_weight_filtration(n)
    assert counts["verify"] == 1
    assert counts["rref"] > 0 and counts["matmul"] > 0
