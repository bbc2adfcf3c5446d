"""Symbolic Hodge-norm asymptotics near the corner of the bidisc.

Everything here is leading-order exponent bookkeeping: squared norms
are tracked as |t1|^(2 n1) |t2|^(2 n2) (-log|t1|)^a (-log|t2|)^b on one
of the two wedge regions, and both verdicts (boundedness of the Higgs
field and ordering-change triangularity) are decided exactly at that
level.  No numeric norm is ever evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .exactla import (
    ExactMatrix,
    Scalar,
    Subspace,
    bigraded_pieces,
    solve,
)
from .weightfilt import WeightFiltration, _weight_filtration, commuting_check

D_EPS = "D_eps"
D_EPS_PRIME = "D_eps_prime"

Vector = tuple[Scalar, ...]
AlphaBasis = dict[tuple[int, int], Vector]


@dataclass(frozen=True)
class GrowthClass:
    """Leading growth class of a squared norm on a wedge region.

    ``t_orders = (n1, n2)`` and ``log_exps = (a, b)`` stand for
    |t1|^(2 n1) |t2|^(2 n2) (-log|t1|)^a (-log|t2|)^b.  The class of a
    product of sections is the sum of classes.  ``is_zero`` marks the
    sentinel class of the zero section.
    """

    t_orders: tuple[int, int]
    log_exps: tuple[int, int]
    region: str = D_EPS
    is_zero: bool = False

    def __post_init__(self):
        if self.region not in (D_EPS, D_EPS_PRIME):
            raise ValueError(f"unknown region {self.region!r}")
        if self.t_orders[0] < 0 or self.t_orders[1] < 0:
            raise ValueError("negative t-orders")

    @staticmethod
    def zero(region: str = D_EPS) -> "GrowthClass":
        return GrowthClass((0, 0), (0, 0), region, is_zero=True)

    def __add__(self, other: "GrowthClass") -> "GrowthClass":
        if self.region != other.region:
            raise ValueError("classes live on different regions")
        if self.is_zero or other.is_zero:
            return GrowthClass.zero(self.region)
        return GrowthClass(
            (self.t_orders[0] + other.t_orders[0], self.t_orders[1] + other.t_orders[1]),
            (self.log_exps[0] + other.log_exps[0], self.log_exps[1] + other.log_exps[1]),
            self.region)

    def to_json(self) -> dict:
        return {"t_orders": list(self.t_orders), "log_exps": list(self.log_exps),
                "region": self.region, "zero": self.is_zero}


@dataclass(frozen=True)
class MonodromizedSection:
    """A flat vector together with its centered weight memberships.

    ``weights = (l1, l2)`` are the minimal centered memberships in the
    weight filtration of the first operator and of the total one; both
    graded projections are then automatically nonzero.
    """

    flat_vector: Vector
    weights: tuple[int, int]
    label: tuple[int, int] | None = None


def minimal_weight(v: Sequence[Scalar], W: WeightFiltration) -> int:
    """Smallest index l with v in W_l (ValueError on zero input).

    v lies in W_l exactly when its coordinates in W's adapted basis
    vanish above weight l, so l is the highest weight of a nonzero one.
    """
    Q, weights = W.adapted
    nonzero = [w for w, c in zip(weights, Q.apply(v)) if c]
    if not nonzero:
        raise ValueError("the zero vector has no minimal weight")
    return max(nonzero)


def section_from_datum(v: Sequence[Scalar], N1: ExactMatrix, N2: ExactMatrix,
                       label: tuple[int, int] | None = None) -> MonodromizedSection:
    """Monodromized section of v for the ordering (N1, N2).

    The first weight is measured in W(N1), the second in W(N1 + N2),
    both centered at zero.
    """
    return _section(v, *_pair_filtrations(N1, N2), label)


@lru_cache(maxsize=16)  # a datum asks for its two orderings
def _pair_filtrations(N1: ExactMatrix, N2: ExactMatrix,
                      ) -> tuple[WeightFiltration, WeightFiltration]:
    """(W(N1), W(N1 + N2)) of the ordered pair, checked to commute once per pair.

    NonCommuting is raised anew on every call; errors are not memoized.
    """
    commuting_check([N1, N2])
    return _weight_filtration(N1), _weight_filtration(N1 + N2)


def _section(v: Sequence[Scalar], W1: WeightFiltration, W12: WeightFiltration,
             label: tuple[int, int] | None = None) -> MonodromizedSection:
    """section_from_datum given W(N1) and W(N1 + N2) of a checked pair."""
    vv = tuple(v)
    return MonodromizedSection(vv, (minimal_weight(vv, W1), minimal_weight(vv, W12)), label)


def hodge_norm_class(s: MonodromizedSection, region: str = D_EPS) -> GrowthClass:
    """Squared Hodge-norm class of a monodromized section.

    On the first wedge the squared norm grows like
    (-log|t1|/-log|t2|)^l1 (-log|t2|)^l2.  On the swapped wedge the
    stored weights are read for the swapped ordering (first weight
    measured along t2), so the roles of the two directions exchange.
    """
    l1, l2 = s.weights
    if region == D_EPS:
        return GrowthClass((0, 0), (l1, l2 - l1), region)
    return GrowthClass((0, 0), (l2 - l1, l1), D_EPS_PRIME)


@dataclass(frozen=True)
class ThetaClass:
    """Growth class of (dt_i/t_i) (x) N_i s with the boundedness verdict."""

    form_class: GrowthClass
    source_class: GrowthClass
    bounded: bool | None
    zero: bool


def theta_apply_class(s: MonodromizedSection, i: int, N1: ExactMatrix,
                      N2: ExactMatrix, region: str = D_EPS) -> ThetaClass:
    """Class of one Higgs-field summand applied to a section.

    The form class is the metric class of dt_i/t_i — squared (-log|t_i|)^2
    — plus the section class of N_i s with its actual minimal weights.
    The verdict is bounded exactly when the form class reproduces the
    source class.  N_i s = 0 yields the zero sentinel, excluded from
    boundedness quantification.  Source and target weights are both
    recomputed for the region's ordering, so stale stored weights cannot
    skew the verdict.
    """
    if i not in (1, 2):
        raise ValueError("direction must be 1 or 2")
    first, second = (N1, N2) if region == D_EPS else (N2, N1)
    W1, W12 = _pair_filtrations(first, second)
    src = _section(s.flat_vector, W1, W12)
    source_class = hodge_norm_class(src, region)
    Ni = N1 if i == 1 else N2
    image = Ni.apply(s.flat_vector)
    if all(not x for x in image):
        return ThetaClass(GrowthClass.zero(region), source_class, None, True)
    target = _section(image, W1, W12)
    metric = GrowthClass((0, 0), (2, 0) if i == 1 else (0, 2), region)
    form = hodge_norm_class(target, region) + metric
    bounded = (form.t_orders == source_class.t_orders
               and form.log_exps == source_class.log_exps)
    return ThetaClass(form, source_class, bounded, False)


# ----------------------------------------------------------------------
# ordering change


def ordered_alpha_basis(N1: ExactMatrix, N2: ExactMatrix) -> AlphaBasis:
    """Canonical doubly graded basis adapted to the ordering (N1, N2).

    Splits the intersection lattice of the two weight filtrations
    (W(N1), W(N2)) into bigraded pieces with deterministic
    pivot-canonical representatives.  The piece at W(N1)-level x and
    W(N2)-level z gets the key (k, l) = ((x - x_min)/2, (z - z_min)/2);
    the first key slot always indexes the first operator of the
    ordering.  Every vector of any such basis automatically lies in the
    span of the pieces at componentwise smaller or equal keys, which is
    what drives the ordering-change support property.  Raises when some
    bigraded piece has dimension above one (the pair is then too
    degenerate for a keyed basis).
    """
    commuting_check([N1, N2])
    raw: dict[tuple[int, int], Vector] = {}
    for x, z, reps in bigraded_pieces(_weight_filtration(N1).filtration,
                                      _weight_filtration(N2).filtration):
        if len(reps) > 1:
            raise ValueError(
                f"double grading is not simple at levels ({x}, {z})")
        raw[(x, z)] = reps[0]
    if not raw:
        raise ValueError("empty space")
    xmin = min(x for x, _ in raw)
    zmin = min(z for _, z in raw)
    keyed: AlphaBasis = {}
    for (x, z), vec in raw.items():
        if (x - xmin) % 2 or (z - zmin) % 2:
            raise ValueError("weight levels are not evenly spaced")
        key = ((x - xmin) // 2, (z - zmin) // 2)
        if key in keyed:
            raise ValueError(f"key collision at {key}")
        keyed[key] = vec
    return keyed


def transpose_keys(basis: AlphaBasis) -> AlphaBasis:
    """Swap the two key slots, e.g. to compare bases built from the two
    opposite orderings in shared (k, l) semantics."""
    return {(l, k): v for (k, l), v in basis.items()}


def ordering_change(basisA: AlphaBasis, basisB: AlphaBasis) -> dict:
    """Transition matrix of one keyed basis through another.

    Expresses each basisA vector in basisB and reports whether every
    coefficient sits at an index (k', l') with k' <= k and l' <= l.
    Raises when the two bases do not span the same space.
    """
    if not basisA or not basisB:
        raise ValueError("empty basis")
    d = len(next(iter(basisA.values())))
    spanA = Subspace.from_columns(d, list(basisA.values()))
    spanB = Subspace.from_columns(d, list(basisB.values()))
    if spanA != spanB or spanA.dim != len(basisA) or spanB.dim != len(basisB):
        raise ValueError("bases do not span the same space")
    keysB = sorted(basisB)
    M = ExactMatrix.from_columns([basisB[key] for key in keysB], ambient_dim=d)
    transition: dict[tuple[int, int], dict[tuple[int, int], Scalar]] = {}
    violations: list[tuple[tuple[int, int], tuple[int, int]]] = []
    for key in sorted(basisA):
        coeffs = solve(M, basisA[key])
        if coeffs is None:
            raise ValueError("bases do not span the same space")
        row = {}
        for keyB, c in zip(keysB, coeffs):
            if not c:
                continue
            row[keyB] = c
            if keyB[0] > key[0] or keyB[1] > key[1]:
                violations.append((key, keyB))
        transition[key] = row
    return {"transition": transition, "supported": not violations,
            "violations": violations}
