"""Finite local models of the L² holomorphic Dolbeault complex at the corner.

The objects here live at the intersection of the two boundary divisors of
the bidisc: a commuting pair of nilpotent monodromy logarithms and the
three-term complex

    K⁰ --(N₁, N₂)--> K¹_dt₁ ⊕ K¹_dt₂ --(N₂, -N₁)--> K²

whose exact Betti numbers are the local cohomology of the L² complex.
A polynomial truncation of the global sections over the bidisc serves as
an independent oracle, and a small double-complex engine handles the
Čech-style patching used in the comparison tests.

The complex is spanned by the generators that the square-integrability
classifier of ``l2verdict`` passes; ``classify_l2`` is re-exported here,
and so are ``MonodromyDatum`` and ``end_datum`` of ``datum``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from . import InternalInvariantFailure
from .datum import MonodromyDatum, _ad_matrix, end_datum  # noqa: F401 (re-export)
from .exactla import (
    ExactMatrix,
    Scalar,
    Subspace,
    _row_space,
    bigraded_pieces,
    block_diag,
    exp_nilpotent,
    maps_into,
    matrix_between,
    rank,
    vstack,
)
from .growth import minimal_weight
from .l2verdict import classify_l2, directional, swap_component  # noqa: F401 (re-export)
from .sl2rep import alpha_basis, isotypic_decomposition
from .weightfilt import _weight_filtration

LOCAL_SYSTEM = "local_system"
HODGE_BUNDLE = "hodge_bundle"


class IllFormedComplex(InternalInvariantFailure, ValueError):
    """A differential fails to map its source space into its target."""


class AnticommutationFailure(InternalInvariantFailure, ValueError):
    """Double-complex squares do not anticommute (or a square of a map is nonzero)."""


# ----------------------------------------------------------------------
# doubly graded pieces of (W(N1), W(N1+N2))


Generators = tuple[ExactMatrix, tuple[tuple[int, int], ...]]


@lru_cache(maxsize=8)  # one datum at a time; a small cap bounds what a long run holds
def _bilevel_pieces(n1: ExactMatrix, n2: ExactMatrix) -> Generators:
    """Canonical generators of the double grading by (W(N₁), W(N₁+N₂)), as
    the rows of one matrix, and the (l₁, l₂) levels of each row.

    Multiplicities are allowed (unlike the keyed basis in the growth module).
    """
    pieces = bigraded_pieces(_weight_filtration(n1).filtration,
                             _weight_filtration(n1 + n2).filtration)
    return _stacked([(v, a, b) for a, b, reps in pieces for v in reps], n1.rows)


def _stacked(generators: list[tuple[tuple[Scalar, ...], int, int]], dim: int) -> Generators:
    """(vector, l₁, l₂) triples as the rows of one matrix and their levels."""
    return (ExactMatrix([v for v, _, _ in generators], cols=dim),
            tuple((l1, l2) for _, l1, l2 in generators))


# the form components of K⁰, K¹_dt₁, K¹_dt₂ and K², in that order
_COMPONENTS = (frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2}))


def _component_spaces(generators: Generators, spans: dict[tuple[int, ...], Subspace],
                      n1: int = 0, n2: int = 0) -> list[Subspace]:
    """K⁰, K¹_dt₁, K¹_dt₂ and K²: each the span of the generator rows that
    t₁^{n₁}t₂^{n₂} makes L² on D_ε for its component.  Equal selections of
    rows share one subspace, kept in spans."""
    G, levels = generators
    out = []
    for J in _COMPONENTS:
        rows = tuple(i for i, (l1, l2) in enumerate(levels) if directional(J, n1, n2, l1, l2))
        if rows not in spans:
            spans[rows] = _row_space(G._rows_at(rows))
        out.append(spans[rows])
    return out


def _frame_generators(datum: MonodromyDatum) -> Generators:
    """Generators with levels read off the bigraded frame of the model.

    Plain S(m)⊗S(n) factors use the α-basis and the exponent translation
    l₁ = 2k-m, l₂ = 2(k+l)-(m+n); factors of other kinds contribute their
    embedding columns with directly measured levels (the twist does not
    move the weight filtrations, so measuring is exact).
    """
    model = datum.model
    if model is None:
        raise ValueError("hodge frame missing: the datum carries no bigraded model")
    W1 = _weight_filtration(datum.n1)
    Wt = _weight_filtration(datum.n1 + datum.n2)
    out: list[tuple[tuple[Scalar, ...], int, int]] = []
    for factor in isotypic_decomposition(model.bigrading, model.action, model.polarization):
        if factor.kind == "S":
            ab = alpha_basis(factor, model.action)
            for (k, l), vec in ab.items():
                out.append((vec, 2 * k - factor.m, 2 * (k + l) - (factor.m + factor.n)))
        else:
            for vec in factor.embedding.columns():
                out.append((vec, minimal_weight(vec, W1), minimal_weight(vec, Wt)))
    return _stacked(out, datum.dimension)


# ----------------------------------------------------------------------
# the stalk complex


@dataclass(frozen=True)
class StalkComplex:
    """The three-term local model; d0: v ↦ (N₁v, N₂v), d1: (a,b) ↦ N₂a - N₁b.

    The complex certifies itself when it is built: each of the four legs
    must map its source into its target (``IllFormedComplex`` names every
    leg that leaves), and d1∘d0 must vanish.  ``d0`` and ``d1`` are then
    stored in the canonical bases of the spaces.
    """

    k0: Subspace
    k1_dt1: Subspace
    k1_dt2: Subspace
    k2: Subspace
    n1: ExactMatrix
    n2: ExactMatrix
    mode: str = LOCAL_SYSTEM
    d0: ExactMatrix = field(init=False, repr=False, compare=False)
    d1: ExactMatrix = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        legs = (
            ("first differential leaves the dt1 component", self.n1, self.k0, self.k1_dt1),
            ("first differential leaves the dt2 component", self.n2, self.k0, self.k1_dt2),
            ("second differential leaves the top component (dt1 leg)",
             self.n2, self.k1_dt1, self.k2),
            ("second differential leaves the top component (dt2 leg)",
             self.n1, self.k1_dt2, self.k2),
        )
        try:
            a, b, c, d = [matrix_between(m, src, tgt) for _, m, src, tgt in legs]
        except ValueError:
            # name every leg that leaves; a shape mismatch re-raises from maps_into
            failures = [text for text, m, src, tgt in legs if not maps_into(m, src, tgt)]
            if not failures:
                raise
            raise IllFormedComplex("; ".join(failures)) from None
        d0 = vstack([a, b])
        d1 = c.hstack(-d)
        # d1∘d0 vanishes because the (possibly shifted) operators commute;
        # verify exactly rather than trusting the caller.
        if not (d1 @ d0).is_zero():
            raise IllFormedComplex("composite differential is nonzero")
        object.__setattr__(self, "d0", d0)
        object.__setattr__(self, "d1", d1)

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.k0.dim, self.k1_dt1.dim + self.k1_dt2.dim, self.k2.dim)

    def euler_characteristic(self) -> int:
        d0, d1, d2 = self.dims
        return d0 - d1 + d2


def build_stalk_complex(datum: MonodromyDatum, mode: str = LOCAL_SYSTEM) -> StalkComplex:
    """Assemble the L² stalk complex from the flat (t-order (0,0)) generators.

    Each canonical generator is kept in K^J exactly when the classifier
    passes it for that form component.  ``local_system`` mode grades by
    the weight filtrations themselves; ``hodge_bundle`` mode insists on
    a model frame and uses the bigraded exponents instead.  The two
    modes give the same subspaces on the split models of the standard
    corpus; on transported models the local-system mode can be ill-formed
    where the frame mode is not (ROADMAP item 2).
    """
    if mode == LOCAL_SYSTEM:
        generators = _bilevel_pieces(datum.n1, datum.n2)
    elif mode == HODGE_BUNDLE:
        generators = _frame_generators(datum)
    else:
        raise ValueError(f"unknown stalk mode {mode!r}")
    return StalkComplex(*_component_spaces(generators, {}), datum.n1, datum.n2, mode)


def hypercohomology(c: StalkComplex) -> tuple[int, int, int]:
    """Exact cohomology of the stalk complex, from the ranks of its d0 and d1."""
    r0, r1 = rank(c.d0), rank(c.d1)
    k0, k1, k2 = c.dims
    return (k0 - r0, k1 - r0 - r1, k2 - r1)


# ----------------------------------------------------------------------
# polynomial truncation oracle


def truncated_global_model(datum: MonodromyDatum, degree: int) -> tuple[int, int, int]:
    """Cohomology of the polynomial sections Σ_{0≤i,j≤degree} t₁^i t₂^j · (generators).

    Cell (i, j) is the stalk complex of the generators the classifier
    passes at t-orders (i, j) (n_i ≥ 1 suppresses direction i).
    Differentiating t₁^i t₂^j shifts the connection action on the cell to
    (N₁ + i, N₂ + j), which is what makes the higher cells exact and the
    totals stabilize in the degree.
    """
    if degree < 0:
        raise ValueError("truncation degree must be nonnegative")
    generators = _bilevel_pieces(datum.n1, datum.n2)
    # the spaces depend on the t-orders only through whether each is positive
    spaces: dict[tuple[int, int], list[Subspace]] = {}
    spans: dict[tuple[int, ...], Subspace] = {}
    ident = ExactMatrix.identity(datum.dimension)
    total = (0, 0, 0)
    for i, j in itertools.product(range(degree + 1), repeat=2):
        key = (min(i, 1), min(j, 1))
        if key not in spaces:
            spaces[key] = _component_spaces(generators, spans, *key)
        cell = StalkComplex(*spaces[key], datum.n1 + ident.scale(i), datum.n2 + ident.scale(j))
        total = tuple(t + h for t, h in zip(total, hypercohomology(cell)))
    return total  # type: ignore[return-value]


# ----------------------------------------------------------------------
# comparison models


def koszul_cohomology(datum: MonodromyDatum) -> tuple[int, int, int]:
    """Cohomology of 0 → H → H² → H → 0 built from γ_i - 1, γ_i = exp(N_i).

    This computes the ordinary group cohomology of the restriction to the
    punctured bidisc, the natural companion of the L² answer.
    """
    dim = datum.dimension
    t1 = exp_nilpotent(datum.n1) - ExactMatrix.identity(dim)
    t2 = exp_nilpotent(datum.n2) - ExactMatrix.identity(dim)
    r0 = rank(vstack([t1, t2]))
    r1 = rank(t2.hstack(-t1))
    return (dim - r0, 2 * dim - r0 - r1, dim - r1)


def _flatten(m: ExactMatrix) -> tuple[Scalar, ...]:
    return tuple(m[i, j] for i in range(m.rows) for j in range(m.cols))


def theta_image_check(datum: MonodromyDatum) -> dict:
    """Verify that each N_i is itself an L² class of the End(H) complex.

    ad(N_i)(N_j) = 0 restates commutativity; the substantive check is
    that the End-valued class of N_i, viewed as the dt_i/t_i coefficient
    of the Higgs field, passes the classifier on both regions — with the
    levels measured in each region's own ordering.
    """
    ad1 = _ad_matrix(datum.n1)
    ad2 = _ad_matrix(datum.n2)
    report: dict = {
        "commutes": all(
            not any(ad.apply(_flatten(n)))
            for ad in (ad1, ad2)
            for n in (datum.n1, datum.n2)
        ),
        "entries": {},
    }
    total = ad1 + ad2
    for index, n in ((1, datum.n1), (2, datum.n2)):
        if n.is_zero():
            report["entries"][index] = {"zero": True}
            continue
        vec = _flatten(n)
        fil_first = _weight_filtration(ad1)
        fil_total = _weight_filtration(total)
        fil_second = _weight_filtration(ad2)
        l1 = minimal_weight(vec, fil_first)
        lt = minimal_weight(vec, fil_total)
        l1_swapped = minimal_weight(vec, fil_second)
        J = frozenset({index})
        d_eps = directional(J, 0, 0, l1, lt)
        d_eps_prime = directional(swap_component(J), 0, 0, l1_swapped, lt)
        own = fil_first if index == 1 else fil_second
        report["entries"][index] = {
            "zero": False,
            "weights_d_eps": (l1, lt),
            "weights_d_eps_prime": (l1_swapped, lt),
            "is_l2_d_eps": d_eps,
            "is_l2_d_eps_prime": d_eps_prime,
            "is_l2": d_eps and d_eps_prime,
            "ad_graded_dims": own.graded_dims(),
        }
    entries = [e for e in report["entries"].values() if not e["zero"]]
    report["passes"] = report["commutes"] and all(e["is_l2"] for e in entries)
    return report


# ----------------------------------------------------------------------
# double complexes


@dataclass(frozen=True)
class DoubleComplex:
    """A finite grid of coordinate spaces with horizontal δ and vertical d.

    ``spaces`` maps (p, q) to a dimension; maps are stored on their source
    key and must land on the neighbouring key.  Absent keys mean zero
    spaces, absent maps mean zero maps.
    """

    spaces: dict
    horizontal: dict
    vertical: dict

    def dimension(self, key: tuple[int, int]) -> int:
        return self.spaces.get(key, 0)


def _dc_map(maps: dict, spaces: dict, key: tuple[int, int], target: tuple[int, int]):
    m = maps.get(key)
    if m is None:
        return None
    src = spaces.get(key, 0)
    tgt = spaces.get(target, 0)
    if m.cols != src or m.rows != tgt:
        raise ValueError(f"map at {key} has shape {m.rows}x{m.cols}, expected {tgt}x{src}")
    return m


def _compose_zero(first, second) -> bool:
    if first is None or second is None:
        return True
    return (second @ first).is_zero()


def total_cohomology(dc: DoubleComplex) -> tuple[int, ...]:
    """Betti numbers of the total complex T^n = ⊕_{p+q=n}."""
    keys = sorted(k for k, dim in dc.spaces.items() if dim > 0)
    if not keys:
        return ()
    hor: dict = {}
    ver: dict = {}
    for key in keys:
        p, q = key
        hor[key] = _dc_map(dc.horizontal, dc.spaces, key, (p + 1, q))
        ver[key] = _dc_map(dc.vertical, dc.spaces, key, (p, q + 1))
    for key in keys:
        p, q = key
        if not _compose_zero(hor.get(key), hor.get((p + 1, q))):
            raise AnticommutationFailure(f"horizontal square at {key} is nonzero")
        if not _compose_zero(ver.get(key), ver.get((p, q + 1))):
            raise AnticommutationFailure(f"vertical square at {key} is nonzero")
        # δd + dδ into (p+1, q+1) vanishes; a path with an absent map is zero
        paths = [second @ first
                 for first, second in ((ver.get(key), hor.get((p, q + 1))),
                                       (hor.get(key), ver.get((p + 1, q))))
                 if first is not None and second is not None]
        if paths and not sum(paths[1:], paths[0]).is_zero():
            raise AnticommutationFailure(f"square at {key} does not anticommute")

    degrees = sorted({p + q for p, q in keys})
    lo, hi = degrees[0], degrees[-1]
    layout: dict[int, list[tuple[int, int]]] = {
        n: sorted(k for k in keys if sum(k) == n) for n in range(lo, hi + 2)
    }
    ranks: dict[int, int] = {}
    for n in range(lo, hi + 1):
        ranks[n] = 0
        if not (layout[n] and layout[n + 1]):
            continue
        # the total differential T^n -> T^(n+1), transposed: one row block per source
        blocks = []
        for p, q in layout[n]:
            maps = {(p + 1, q): hor[(p, q)], (p, q + 1): ver[(p, q)]}
            blocks.append(vstack([maps.get(t) or ExactMatrix.zeros(dc.spaces[t], dc.spaces[(p, q)])
                                  for t in layout[n + 1]]).transpose())
        ranks[n] = rank(vstack(blocks))
    return tuple(sum(dc.spaces[k] for k in layout[n]) - ranks[n] - ranks.get(n - 1, 0)
                 for n in range(lo, hi + 1))


def two_chart_cover(c: StalkComplex) -> DoubleComplex:
    """Čech-style double complex of a toy two-chart cover of the stalk model.

    Both charts see the whole model and the overlap map is restriction
    difference (a, b) ↦ a - b; the vertical differential acquires a sign
    on the overlap column so that the squares anticommute.
    """
    k0, k1, k2 = c.dims
    qdims = {0: k0, 1: k1, 2: k2}
    qmaps = {0: c.d0, 1: c.d1}
    spaces: dict = {}
    horizontal: dict = {}
    vertical: dict = {}
    for q, dim in qdims.items():
        if dim:
            spaces[(0, q)] = 2 * dim
            spaces[(1, q)] = dim
    for q in (0, 1):
        m = qmaps[q]
        if m.rows and m.cols:
            vertical[(0, q)] = block_diag([m, m])
            vertical[(1, q)] = -m
    for q, dim in qdims.items():
        if dim:
            horizontal[(0, q)] = ExactMatrix.identity(dim).hstack(-ExactMatrix.identity(dim))
    return DoubleComplex(spaces=spaces, horizontal=horizontal, vertical=vertical)

