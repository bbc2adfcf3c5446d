from __future__ import annotations

import json
from fractions import Fraction

import pytest

from limithodge.exactla import ExactMatrix, Filtration, Scalar
from limithodge.serialize import (
    filtration_from_json,
    filtration_to_json,
    matrix_from_json,
    matrix_to_json,
    rational_from_json,
    scalar_from_json,
    scalar_to_json,
    vector_from_json,
    vector_to_json,
)


def test_rational_strings():
    assert rational_from_json("3") == Fraction(3)
    assert rational_from_json("-5/7") == Fraction(-5, 7)
    assert rational_from_json(4) == Fraction(4)


def test_scalar_round_trip():
    z = Scalar(Fraction(1, 3), Fraction(-2, 5))
    blob = scalar_to_json(z)
    assert blob == {"re": "1/3", "im": "-2/5"}
    assert scalar_from_json(blob) == z
    assert scalar_from_json("7/2") == Scalar(Fraction(7, 2), 0)


def test_matrix_round_trip_is_row_major():
    m = ExactMatrix.from_columns([[1, 0], [Fraction(1, 2), 3]], ambient_dim=2)
    blob = matrix_to_json(m)
    assert blob[0][1] == {"re": "1/2", "im": "0"}
    assert blob[1][0] == {"re": "0", "im": "0"}
    assert matrix_from_json(blob) == m
    # the encoding survives a genuine JSON round trip
    assert matrix_from_json(json.loads(json.dumps(blob))) == m


def test_vector_round_trip():
    v = (Scalar(1, 1), Scalar(0, Fraction(-1, 2)))
    blob = vector_to_json(v)
    assert vector_from_json(blob) == v


def test_filtration_round_trip():
    w = Filtration.from_generators(2, Filtration.INCREASING,
                                   [(-1, [[1, 0]]), (1, [[1, 0], [0, 1]])])
    blob = filtration_to_json(w, center=0)
    assert blob["center"] == 0
    assert blob["direction"] == "increasing"
    assert [s["l"] for s in blob["steps"]] == [-1, 1]
    assert [s["dim"] for s in blob["steps"]] == [1, 2]
    restored = filtration_from_json(blob)
    for l in range(-3, 4):
        assert restored.step(l) == w.step(l)


def test_filtration_json_rejects_garbage():
    with pytest.raises((KeyError, TypeError, ValueError)):
        filtration_from_json({"steps": "nope"})
