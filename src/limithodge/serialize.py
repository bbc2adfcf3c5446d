"""JSON encoding and decoding of the exact types.

Rationals serialize as strings ("3", "-5/7"), Gaussian rationals as
{"re": "...", "im": "..."}, matrices as row-major nested arrays, and
filtrations as {"center": c, "steps": [{"l": ..., "dim": ..., "basis":
[...]}]} with bases given column by column.  Everything round-trips
exactly; no floats appear anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Sequence

from .exactla import ExactMatrix, Filtration, Scalar, Subspace


def rational_from_json(s: Any) -> Fraction:
    if isinstance(s, (str, int)):
        try:
            return Fraction(s)
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in rational {s!r}") from exc
    raise ValueError(f"not a serialized rational: {s!r}")


def scalar_to_json(z: Scalar) -> dict:
    return {"re": str(z.re), "im": str(z.im)}


def scalar_from_json(obj: Any) -> Scalar:
    if isinstance(obj, dict):
        return Scalar(rational_from_json(obj.get("re", 0)), rational_from_json(obj.get("im", 0)))
    # plain rationals are accepted as scalars with zero imaginary part
    return Scalar(rational_from_json(obj))


def matrix_to_json(M: ExactMatrix) -> list:
    return [[scalar_to_json(a) for a in row] for row in M.entries]


def matrix_from_json(obj: Sequence, cols: int | None = None) -> ExactMatrix:
    return ExactMatrix([[scalar_from_json(a) for a in row] for row in obj], cols=cols)


def vector_to_json(v: Sequence[Scalar]) -> list:
    return [scalar_to_json(a) for a in v]


def vector_from_json(obj: Sequence) -> tuple[Scalar, ...]:
    return tuple(scalar_from_json(a) for a in obj)


def filtration_to_json(W: Filtration, center: int = 0) -> dict:
    return {
        "center": center,
        "direction": W.direction,
        "ambient_dim": W.ambient_dim,
        "steps": [
            {"l": l, "dim": sub.dim, "basis": [vector_to_json(c) for c in sub.basis_columns()]}
            for l, sub in W.steps
        ],
    }


def filtration_from_json(obj: dict) -> Filtration:
    ambient = obj["ambient_dim"]
    steps = [(s["l"], Subspace.from_columns(ambient, [vector_from_json(c) for c in s["basis"]]))
             for s in obj["steps"]]
    return Filtration(ambient, obj.get("direction", Filtration.INCREASING), steps)
