"""Representations of a commuting pair of sl2 actions on a bigraded space.

Provides the standard model structures — the symmetric powers S(m) with
their pair tensor products S(m) (x) S(n), the one-dimensional twists
H(l), and the two-dimensional torus types E(p,q) — together with the
semisimple operator attached to a bigrading, the isotypic decomposition
of a horizontal bigraded representation into those models, and the
lowered monomial basis (the alpha basis) of a symmetric factor.

All constructions are exact and self-certifying: decomposition results
are re-verified (closure, dimension count, model matching, and pairwise
orthogonality when a polarization is supplied) before being returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from . import InternalInvariantFailure, PreconditionViolated
from .exactla import (
    ExactMatrix,
    Filtration,
    I,
    ONE,
    Scalar,
    ScalarLike,
    Subspace,
    _power_chain,
    apply_to_subspace,
    bilinear,
    block_diag,
    conj_vector,
    exp_nilpotent,
    image,
    inverse,
    kernel,
    kron,
    maps_into,
    matrix_between,
    rank,
    subspace_sum,
    vstack,
)

Bigrading = Mapping[tuple[int, int], Subspace]


class NotHorizontal(PreconditionViolated, ValueError):
    """The action does not shift the bigrading the way a horizontal pair must."""


class NotIsometric(PreconditionViolated, ValueError):
    """The action is not by infinitesimal isometries of the given form."""


class WrongKind(PreconditionViolated, ValueError):
    """Operation applied to a factor of an unsupported kind."""


class DecompositionError(InternalInvariantFailure, RuntimeError):
    """A certified invariant of the decomposition failed."""


# ----------------------------------------------------------------------
# actions


def _check_triple(nminus: ExactMatrix, y: ExactMatrix, nplus: ExactMatrix) -> None:
    if not (y.commutator(nminus) + nminus.scale(2)).is_zero():
        raise ValueError("[Y, N-] != -2 N-")
    if not (y.commutator(nplus) - nplus.scale(2)).is_zero():
        raise ValueError("[Y, N+] != 2 N+")
    if not (nplus.commutator(nminus) - y).is_zero():
        raise ValueError("[N+, N-] != Y")


@dataclass(frozen=True)
class Sl2PairAction:
    """Matrices of the generators of two commuting sl2 actions.

    ``nminus[j]``, ``y[j]``, ``nplus[j]`` are the images of the lowering,
    semisimple, and raising generators of the j-th copy (j = 0, 1).  The
    constructor verifies the bracket relations of each triple and that
    the two copies commute elementwise; :meth:`_preserved` skips that for
    actions made from certified ones by maps that keep every bracket.
    """

    nminus: tuple[ExactMatrix, ExactMatrix]
    y: tuple[ExactMatrix, ExactMatrix]
    nplus: tuple[ExactMatrix, ExactMatrix]

    def __post_init__(self):
        mats = list(self.nminus) + list(self.y) + list(self.nplus)
        d = mats[0].rows
        for m in mats:
            if m.rows != d or m.cols != d:
                raise ValueError("action matrices must be square of equal size")
        for j in (0, 1):
            _check_triple(self.nminus[j], self.y[j], self.nplus[j])
        for a in (self.nminus[0], self.y[0], self.nplus[0]):
            for b in (self.nminus[1], self.y[1], self.nplus[1]):
                if not a.commutator(b).is_zero():
                    raise ValueError("the two sl2 copies do not commute")

    @classmethod
    def _preserved(cls, nminus: tuple[ExactMatrix, ExactMatrix],
                   y: tuple[ExactMatrix, ExactMatrix],
                   nplus: tuple[ExactMatrix, ExactMatrix]) -> "Sl2PairAction":
        """An action whose generators keep every bracket relation of certified
        actions exactly (a conjugate P X P^-1, a block direct sum), so nothing
        is re-checked."""
        out = object.__new__(cls)
        object.__setattr__(out, "nminus", nminus)
        object.__setattr__(out, "y", y)
        object.__setattr__(out, "nplus", nplus)
        return out

    @property
    def dim(self) -> int:
        return self.nminus[0].rows

    def generators(self) -> list[ExactMatrix]:
        return [self.nminus[0], self.y[0], self.nplus[0],
                self.nminus[1], self.y[1], self.nplus[1]]

    def torus_generator(self, j: int) -> ExactMatrix:
        """Z_j = i (N+_j - N-_j), the compact generator of the j-th copy."""
        return (self.nplus[j] - self.nminus[j]).scale(I)

    def horizontal_raising(self, j: int) -> ExactMatrix:
        """X+_j = N+_j + N-_j + i Y_j; shifts bigrading types by (-1, +1)."""
        return self.nplus[j] + self.nminus[j] + self.y[j].scale(I)

    def horizontal_lowering(self, j: int) -> ExactMatrix:
        """X-_j = N+_j + N-_j - i Y_j; shifts bigrading types by (+1, -1)."""
        return self.nplus[j] + self.nminus[j] - self.y[j].scale(I)

    def is_real(self) -> bool:
        return all(m.is_real() for m in self.generators())


# ----------------------------------------------------------------------
# models


@dataclass(frozen=True)
class Model:
    """A bigraded space with a commuting sl2-pair action and a polarization.

    Immutable, so one model can be shared: the bigrading is kept as a
    read-only copy of the given mapping and the labels as a tuple.
    """

    weight: int
    bigrading: Bigrading
    action: Sl2PairAction
    polarization: ExactMatrix
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "bigrading", MappingProxyType(dict(self.bigrading)))
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def dim(self) -> int:
        return self.action.dim

    def hodge_filtration(self) -> Filtration:
        """The decreasing filtration F^p = sum of the (p', q') pieces with p' >= p."""
        ps = sorted({p for p, _ in self.bigrading})
        steps = [(p, subspace_sum(*(sub for (pp, _), sub in self.bigrading.items() if pp >= p)))
                 for p in ps]
        steps.append((ps[-1] + 1, Subspace.zero(self.dim)))
        # step p holds every piece of step p + 1, so the steps are nested
        return Filtration._nested(self.dim, Filtration.DECREASING, steps)

    def limit_filtration(self) -> Filtration:
        """The recentering twist exp(-i(N1- + N2-)) applied to hodge_filtration.

        This is the filtration whose pair with the shifted total weight
        filtration is a split mixed structure; the untwisted model
        filtration generally is not.
        """
        twist = exp_nilpotent(self.action.nminus[0] + self.action.nminus[1], Scalar(0, -1))
        F = self.hodge_filtration()
        # one invertible map takes nested steps to nested steps
        steps = [(p, apply_to_subspace(twist, sub)) for p, sub in F.steps]
        return Filtration._nested(self.dim, Filtration.DECREASING, steps)


def _binom(m: int, r: int) -> int:
    return math.comb(m, r)


def _zeros2(d: int) -> ExactMatrix:
    return ExactMatrix.zeros(d, d)


def _symmetric_power_matrices(m: int) -> tuple[ExactMatrix, ExactMatrix, ExactMatrix]:
    """(nminus, y, nplus) on the symmetrized word basis b_0..b_m.

    b_r is the sum of the C(m,r) tensor words with r second-slot letters;
    the action is integral: n- b_r = (m-r+1) b_{r-1}, n+ b_r = (r+1) b_{r+1},
    y b_r = (2r - m) b_r.
    """
    d = m + 1
    nm = [[0] * d for _ in range(d)]
    np_ = [[0] * d for _ in range(d)]
    for r in range(1, d):
        nm[r - 1][r] = m - r + 1
    for r in range(d - 1):
        np_[r + 1][r] = r + 1
    y = ExactMatrix.diagonal([2 * r - m for r in range(d)])
    return ExactMatrix(nm), y, ExactMatrix(np_)


def _symmetric_power_form(m: int) -> ExactMatrix:
    """S(b_r, b_{m-r}) = (-1)^{m-r} C(m,r), all other pairings zero."""
    d = m + 1
    S = [[0] * d for _ in range(d)]
    for r in range(d):
        S[r][m - r] = (-1) ** (m - r) * _binom(m, r)
    return ExactMatrix(S)


def _symmetric_power_model(m: int, slot: int) -> Model:
    """S(m) acted on by the sl2 copy in the given slot, trivially by the other."""
    d = m + 1
    nm, y, np_ = _symmetric_power_matrices(m)
    z = (np_ - nm).scale(I)
    bigrading: dict[tuple[int, int], Subspace] = {}
    for r in range(d):
        # type (r, m-r) is the Z-eigenvalue m-2r line
        eig = m - 2 * r
        sub = kernel(z - ExactMatrix.identity(d).scale(eig))
        bigrading[(r, m - r)] = sub
    zero = _zeros2(d)
    if slot == 0:
        action = Sl2PairAction((nm, zero), (y, zero), (np_, zero))
    else:
        action = Sl2PairAction((zero, nm), (zero, y), (zero, np_))
    return Model(m, bigrading, action, _symmetric_power_form(m),
                 tuple(f"b{r}" for r in range(d)))


def _tate_model(l: int) -> Model:
    one = ExactMatrix([[1]])
    zero = ExactMatrix([[0]])
    action = Sl2PairAction((zero, zero), (zero, zero), (zero, zero))
    return Model(2 * l, {(l, l): Subspace.full(1)}, action, one, (f"h{l}",))


def _etype_model(p: int, q: int) -> Model:
    """E(p,q): two-dimensional, trivial sl2 action, types (p,q) and (q,p).

    The generator of type (p,q) is e1 - i e2; the form is pinned by
    S(e^{p,q}, e^{q,p}) = 2 i^{q-p} with zero diagonal, which forces a
    real matrix: +-identity when q-p is even, +-skew when odd.
    """
    if p == q:
        raise ValueError("EType requires p != q")
    zero = _zeros2(2)
    action = Sl2PairAction((zero, zero), (zero, zero), (zero, zero))
    bigrading = {
        (p, q): Subspace.from_columns(2, [[ONE, -I]]),
        (q, p): Subspace.from_columns(2, [[ONE, I]]),
    }
    if (q - p) % 2 == 0:
        c = (-1) ** (((q - p) // 2) % 2)
        S = ExactMatrix([[c, 0], [0, c]])
    else:
        s = (-1) ** (((q - p - 1) // 2) % 2)
        S = ExactMatrix([[0, s], [-s, 0]])
    return Model(p + q, bigrading, action, S, ("e1", "e2"))


def _generatorwise(make: Callable[..., Sl2PairAction], f: Callable[..., ExactMatrix],
                   *actions: Sl2PairAction) -> Sl2PairAction:
    """The pair action, built by make, whose generators are f of the matching
    generators of the actions."""
    gens = [f(*mats) for mats in zip(*(a.generators() for a in actions))]
    # generators() lists (N-, Y, N+) of copy 0, then of copy 1
    return make(tuple(gens[0::3]), tuple(gens[1::3]), tuple(gens[2::3]))


def tensor_models(A: Model, B: Model) -> Model:
    """Tensor product model: actions by the Leibniz rule, forms by products."""
    ia, ib = ExactMatrix.identity(A.dim), ExactMatrix.identity(B.dim)
    action = _generatorwise(Sl2PairAction, lambda x, y: kron(x, ib) + kron(ia, y),
                            A.action, B.action)
    spans: dict[tuple[int, int], list[ExactMatrix]] = {}
    for (p1, q1), s1 in A.bigrading.items():
        for (p2, q2), s2 in B.bigrading.items():
            # the (p, q) piece is spanned by the u (x) v with types adding to (p, q)
            spans.setdefault((p1 + p2, q1 + q2), []).append(kron(s1.basis, s2.basis))
    bigrading: Bigrading = {key: image(ExactMatrix.hstack(*blocks))
                            for key, blocks in spans.items()}
    labels = tuple(f"{x}*{y}" for x in A.labels for y in B.labels)
    return Model(A.weight + B.weight, bigrading, action,
                 kron(A.polarization, B.polarization), labels)


def build_model(kind: str, m: int = 0, n: int = 0, l: int = 0,
                p: int = 0, q: int = 0) -> Model:
    """Construct a standard model.

    kind "S": S(m) (x) S(n); kind "H": the twist H(l) (x) S(m) (x) S(n);
    kind "E": E(p,q) (x) S(m) (x) S(n).  The first sl2 copy acts through
    the S(m) part, the second through S(n).

    Models are immutable, so each spec is built and certified once and
    then shared from a 64-entry memo, however its arguments are passed;
    errors are raised anew on every call.
    """
    if m < 0 or n < 0:
        raise ValueError("symmetric powers need m, n >= 0")
    if kind not in ("S", "H", "E"):
        raise ValueError(f"unknown model kind {kind!r}")
    return _standard_model(kind, m, n, l, p, q)


# typed, so an argument such as 1.0 gets its own entry, and its own error,
# instead of the model built for the int 1
@lru_cache(maxsize=64, typed=True)
def _standard_model(kind: str, m: int, n: int, l: int, p: int, q: int) -> Model:
    if kind == "S":
        if l or p or q:
            raise ValueError("kind 'S' takes only m, n")
        return tensor_models(_symmetric_power_model(m, 0), _symmetric_power_model(n, 1))
    base = _standard_model("S", m, n, 0, 0, 0)
    if kind == "H":
        return tensor_models(_tate_model(l), base)
    return tensor_models(_etype_model(p, q), base)


def direct_sum_models(models: Sequence[Model]) -> Model:
    """Block direct sum; all summands must have the same weight."""
    if not models:
        raise ValueError("empty direct sum")
    k = models[0].weight
    if any(mo.weight != k for mo in models):
        raise ValueError("direct summands must share a single weight")
    # blocks bracket blockwise, so every relation of the summands holds
    action = _generatorwise(Sl2PairAction._preserved, lambda *blocks: block_diag(blocks),
                            *(mo.action for mo in models))
    bigrading: dict[tuple[int, int], Subspace] = {}
    keys = sorted({key for mo in models for key in mo.bigrading})
    for key in keys:
        bigrading[key] = image(block_diag(
            [mo.bigrading.get(key, Subspace.zero(mo.dim)).basis for mo in models]))
    S = block_diag([mo.polarization for mo in models])
    labels = tuple(f"{i}:{lab}" for i, mo in enumerate(models) for lab in mo.labels)
    return Model(k, bigrading, action, S, labels)


def transport_model(model: Model, P: ExactMatrix) -> Model:
    """Transport all structure through an invertible change of basis P."""
    Pinv = inverse(P)
    # [P X P^-1, P Y P^-1] = P [X, Y] P^-1, so every relation is kept
    action = _generatorwise(Sl2PairAction._preserved, lambda X: P @ X @ Pinv, model.action)
    bigrading = {key: apply_to_subspace(P, sub) for key, sub in model.bigrading.items()}
    S = Pinv.transpose() @ model.polarization @ Pinv
    return Model(model.weight, bigrading, action, S, model.labels)


# ----------------------------------------------------------------------
# grading operators


def operator_from_bigrading(bigrading: Bigrading,
                            eigenvalue: Callable[[int, int], ScalarLike]) -> ExactMatrix:
    """The semisimple operator acting by eigenvalue(p, q) on each piece.

    Raises ValueError when the pieces fail to decompose the ambient
    space (overlap or non-spanning).
    """
    if not bigrading:
        raise ValueError("empty bigrading")
    ambient = next(iter(bigrading.values())).ambient_dim
    items = sorted(bigrading.items())
    if any(sub.ambient_dim != ambient for _, sub in items):
        raise ValueError("mixed ambient dimensions in bigrading")
    B = ExactMatrix.hstack(*(sub.basis for _, sub in items))
    if B.cols != ambient:
        raise ValueError("bigrading pieces do not sum to the ambient dimension")
    eigs = [eigenvalue(p, q) for (p, q), sub in items for _ in range(sub.dim)]
    try:
        Binv = inverse(B)
    except ValueError:
        raise ValueError("bigrading pieces overlap") from None
    return B @ ExactMatrix.diagonal(eigs) @ Binv


# ----------------------------------------------------------------------
# isotypic decomposition


@dataclass(frozen=True)
class IrreducibleFactor:
    """An embedded irreducible summand of a bigraded pair representation.

    kind "S" is the plain S(m) (x) S(n) (l = 0); kind "H" carries a
    nontrivial twist l; kind "E" carries the torus type (p, q), p > q.
    The embedding columns are the images of the model basis, ordered as
    in the corresponding ``build_model`` result, so the restricted
    action matrices equal the model matrices verbatim.
    """

    kind: str
    m: int
    n: int
    weight: int
    embedding: ExactMatrix
    l: int = 0
    p: int | None = None
    q: int | None = None

    @property
    def dim(self) -> int:
        return self.embedding.cols

    def subspace(self) -> Subspace:
        return image(self.embedding)

    def params(self) -> tuple:
        if self.kind == "E":
            return (self.kind, self.m, self.n, self.p, self.q)
        return (self.kind, self.m, self.n, self.l)

    def to_json(self) -> dict:
        from .serialize import vector_to_json
        out = {"kind": self.kind, "m": self.m, "n": self.n, "weight": self.weight,
               "dim": self.dim,
               "basis": [vector_to_json(c) for c in self.embedding.columns()]}
        if self.kind == "E":
            out["p"], out["q"] = self.p, self.q
        else:
            out["l"] = self.l
        return out


def _check_horizontality(bigrading: Bigrading, action: Sl2PairAction) -> None:
    ambient = action.dim

    def piece(p: int, q: int) -> Subspace:
        return bigrading.get((p, q), Subspace.zero(ambient))

    # Z_j = [X+_j, X-_j]/4 then preserves every type, so it needs no check
    for j in (0, 1):
        xplus = action.horizontal_raising(j)
        xminus = action.horizontal_lowering(j)
        for (p, q), sub in bigrading.items():
            if not maps_into(xplus, sub, piece(p - 1, q + 1)):
                raise NotHorizontal(
                    f"X+_{j+1} does not shift type ({p},{q}) to ({p-1},{q+1})")
            if not maps_into(xminus, sub, piece(p + 1, q - 1)):
                raise NotHorizontal(
                    f"X-_{j+1} does not shift type ({p},{q}) to ({p+1},{q-1})")


def _check_isometric(S: ExactMatrix, action: Sl2PairAction) -> None:
    for X in action.generators():
        if not (X.transpose() @ S + S @ X).is_zero():
            raise NotIsometric("action is not by infinitesimal isometries of S")


def _normalize_leading(v: Sequence[Scalar]) -> tuple[Scalar, ...]:
    for a in v:
        if a:
            inv = a.inv()
            return tuple(inv * b for b in v)
    raise ValueError("zero vector")


def _orthogonalize(vectors: list[tuple[Scalar, ...]],
                   form: Callable[[Sequence[Scalar], Sequence[Scalar]], Scalar],
                   ) -> list[tuple[Scalar, ...]]:
    """Orthogonal basis for a nondegenerate symmetric form, or a hermitian
    one antilinear in the second slot (isotropic-safe over the Gaussian
    rationals).

    When every remaining vector is isotropic, a pair u, v with
    c = form(u, v) != 0 is replaced by u+v if Re c != 0 and by u+iv
    otherwise.  For a real symmetric form on real vectors c is real, so
    the repair is always u+v.
    """
    vs = [tuple(v) for v in vectors]
    out: list[tuple[Scalar, ...]] = []
    while vs:
        pick = None
        for idx, v in enumerate(vs):
            if form(v, v):
                pick = idx
                break
        if pick is None:
            # all isotropic: find a pair with nonzero pairing and repair
            found = None
            for a in range(len(vs)):
                for b in range(a + 1, len(vs)):
                    if form(vs[a], vs[b]):
                        found = (a, b)
                        break
                if found:
                    break
            if found is None:
                raise DecompositionError("form degenerate on multiplicity space")
            a, b = found
            c = form(vs[a], vs[b])
            if c.re:  # B(u+v, u+v) = 2 Re c
                vs[a] = tuple(x + y for x, y in zip(vs[a], vs[b]))
            else:     # B(u+iv, u+iv) = 2 Im c
                vs[a] = tuple(x + I * y for x, y in zip(vs[a], vs[b]))
            continue
        v = vs.pop(pick)
        vv = form(v, v)
        vs = [tuple(x - (form(u, v) / vv) * y for x, y in zip(u, v))
              for u in vs]
        # drop vectors that became zero (dependent input)
        vs = [u for u in vs if any(u)]
        out.append(v)
    return out


def _orbit_columns(u: Sequence[Scalar], action: Sl2PairAction,
                   m: int, n: int) -> list[tuple[Scalar, ...]]:
    """Images of the model basis: N1+^a N2+^b u / (a! b!), ordered (a, b)."""
    n1p, n2p = action.nplus
    cols: list[tuple[Scalar, ...]] = []
    ua = tuple(u)
    for a in range(m + 1):
        ub = ua
        for b in range(n + 1):
            cols.append(ub)
            if b < n:
                nxt = n2p.apply(ub)
                ub = tuple(x * Scalar(Fraction(1, b + 1)) for x in nxt)
        if a < m:
            nxt = n1p.apply(ua)
            ua = tuple(x * Scalar(Fraction(1, a + 1)) for x in nxt)
    return cols


def isotypic_decomposition(bigrading: Bigrading, action: Sl2PairAction,
                           S: ExactMatrix | None = None) -> list[IrreducibleFactor]:
    """Decompose a horizontal bigraded pair representation into irreducibles.

    Algorithm: split the joint lowest-weight space ker N1- ∩ ker N2- by
    the (Y1, Y2) bi-eigenvalue (-m, -n), then by the eigenvalue w of the
    grading operator R = T + Z1 + Z2 (T acts by p - q on the (p,q)
    piece).  The w = 0 part yields twist factors H(l) (x) S(m) (x) S(n)
    with l = (k - m - n)/2 on a real lowest basis; each w > 0 eigenline
    pairs with its conjugate in w < 0 to yield E(p,q) (x) S(m) (x) S(n)
    with p - q = w.  When S is given, lowest bases are orthogonalized
    under the induced pairing S(u, N1+^m N2+^n u') (conjugated in the
    second slot for the E case), which is exactly inter-factor
    S-orthogonality after weight bookkeeping.
    """
    ambient = action.dim
    if not action.is_real():
        raise ValueError("action matrices must be real in the distinguished basis")
    weights = {p + q for p, q in bigrading}
    if len(weights) != 1:
        raise ValueError("bigrading must have a single total weight")
    k = weights.pop()
    # certify the decomposition hypotheses
    # T acts by p - q on the (p,q) piece; building it is the direct-sum check
    t_op = operator_from_bigrading(bigrading, lambda p, q: p - q)
    _check_horizontality(bigrading, action)
    if S is not None:
        if not S.is_real():
            raise ValueError("polarization must be real in the distinguished basis")
        _check_isometric(S, action)

    n1m, n2m = action.nminus
    y1, y2 = action.y
    lowest = kernel(vstack([n1m, n2m]))
    r_op = t_op + action.torus_generator(0) + action.torus_generator(1)
    wmax = max(abs(p - q) for p, q in bigrading)

    # work in lowest-space coordinates; Y1, Y2, R all preserve it
    kappa = lowest.dim
    try:
        y1k, y2k, rk = (matrix_between(X, lowest, lowest) for X in (y1, y2, r_op))
    except ValueError as exc:
        raise DecompositionError(f"lowest-weight space is not invariant: {exc}")
    idk = ExactMatrix.identity(kappa)
    # raising operators of a certified action are nilpotent; N^j is chain[min(j, e)]
    raising = [_power_chain(X) for X in action.nplus]

    factors: list[IrreducibleFactor] = []
    accounted = 0
    # eigenspaces of distinct eigenvalues are independent, so each scan stops
    # once the space it splits is used up; only empty eigenspaces are skipped
    lowest_left = kappa
    for m in range(ambient):
        if not lowest_left:
            break
        ym = y1k + idk.scale(m)
        m_left = kappa - rank(ym)
        lowest_left -= m_left
        for n in range(ambient):
            if not m_left:
                break
            ymn = vstack([ym, y2k + idk.scale(n)])
            emn = kernel(ymn)
            if emn.dim == 0:
                continue
            m_left -= emn.dim
            mn_left = emn.dim
            accounted += emn.dim * (m + 1) * (n + 1)
            apow = (raising[0][min(m, len(raising[0]) - 1)]
                    @ raising[1][min(n, len(raising[1]) - 1)])

            def pairing(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
                assert S is not None
                return bilinear(S, u, apow.apply(v))

            def pairing_conj(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
                assert S is not None
                return bilinear(S, u, apow.apply(conj_vector(v)))

            for w in range(0, wmax + 1):
                if not mn_left:
                    break
                mwk = kernel(vstack([ymn, rk - idk.scale(w)]))
                if mwk.dim == 0:
                    continue
                mn_left -= mwk.dim
                if (k - m - n - w) % 2 != 0:
                    raise DecompositionError(
                        f"grading eigenvalue {w} has the wrong parity at weight {k}")
                if w == 0:
                    # the w = 0 lowest space is conjugation stable, so its
                    # canonical ambient basis is automatically real
                    lifted = apply_to_subspace(lowest.basis, mwk).basis
                    if not lifted.is_real():
                        raise DecompositionError("lowest space at w=0 is not real")
                    base = lifted.columns()
                    if S is not None:
                        base = _orthogonalize(base, pairing)
                    l = (k - m - n) // 2
                    for u in base:
                        u = _normalize_leading(u)
                        cols = _orbit_columns(u, action, m, n)
                        emb = ExactMatrix.from_columns(cols, ambient_dim=ambient)
                        factors.append(IrreducibleFactor(
                            "S" if l == 0 else "H", m, n, k, emb, l=l))
                else:
                    mwk_conj = kernel(vstack([ymn, rk + idk.scale(w)]))
                    if mwk_conj.dim != mwk.dim:
                        raise DecompositionError(
                            "conjugate grading eigenspaces have unequal dimensions")
                    mn_left -= mwk_conj.dim
                    base = (lowest.basis @ mwk.basis).columns()
                    if S is not None:
                        eps = (-1) ** ((k + m + n) % 2)
                        if eps == 1:
                            herm = pairing_conj
                        else:
                            def herm(u, v, _p=pairing_conj):
                                return I * _p(u, v)
                        base = _orthogonalize(base, herm)
                    p = (k - m - n + w) // 2
                    q = (k - m - n - w) // 2
                    for u in base:
                        u = _normalize_leading(u)
                        ubar = conj_vector(u)
                        half = Scalar(Fraction(1, 2))
                        e1 = tuple(half * (a + b) for a, b in zip(u, ubar))
                        e2 = tuple((b - a) / Scalar(0, 2) for a, b in zip(u, ubar))
                        cols = _orbit_columns(e1, action, m, n) + \
                            _orbit_columns(e2, action, m, n)
                        emb = ExactMatrix.from_columns(cols, ambient_dim=ambient)
                        factors.append(IrreducibleFactor("E", m, n, k, emb, p=p, q=q))
    if accounted != ambient:
        raise DecompositionError(
            f"isotypic dimensions sum to {accounted}, ambient is {ambient}")
    _verify_decomposition(bigrading, action, S, factors, k)
    return factors


def _verify_decomposition(bigrading: Bigrading, action: Sl2PairAction,
                          S: ExactMatrix | None,
                          factors: list[IrreducibleFactor], k: int) -> None:
    ambient = action.dim
    if sum(f.dim for f in factors) != ambient:
        raise DecompositionError("factor dimensions do not sum to the ambient")
    for f in factors:
        if f.kind == "E":
            model = build_model("E", f.m, f.n, p=f.p, q=f.q)
        else:
            model = build_model(f.kind, f.m, f.n, l=f.l)
        E = f.embedding
        if rank(E) != f.dim:
            raise DecompositionError("embedding columns are dependent")
        # with independent columns, X E = E X_model says the span of E is
        # invariant and X acts on it by the model matrix, verbatim
        for big, small in zip(action.generators(), model.action.generators()):
            if big @ E != E @ small:
                sub = f.subspace()
                if not maps_into(big, sub, sub):
                    raise DecompositionError("factor is not invariant under the action")
                raise DecompositionError(
                    f"restricted action differs from the {f.params()} model")
    if S is not None:
        SE = [S @ f.embedding for f in factors]
        for a, b in combinations(range(len(factors)), 2):
            if not (factors[a].embedding.transpose() @ SE[b]).is_zero():
                raise DecompositionError("factors are not pairwise orthogonal under S")


# ----------------------------------------------------------------------
# the alpha basis


def alpha_basis(factor: IrreducibleFactor, action: Sl2PairAction,
                ) -> dict[tuple[int, int], tuple[Scalar, ...]]:
    """The lowered monomial basis of a symmetric factor.

    alpha_{k,l} = (N1-)^{m-k} (N2-)^{n-l} applied to the distinguished
    top vector — the unique line of the factor killed by both horizontal
    lowering operators, i.e. the image of (v1-)^m (x) (v2-)^n — with the
    top vector scaled to leading coefficient 1.  Indices run over
    0 <= k <= m, 0 <= l <= n.
    """
    if factor.kind != "S":
        raise WrongKind(f"alpha basis requires kind 'S', got {factor.kind!r}")
    m, n = factor.m, factor.n
    lowering = vstack([action.horizontal_lowering(0), action.horizontal_lowering(1)])
    # the factor's vectors E c killed by both lowering operators
    line = apply_to_subspace(factor.embedding, kernel(lowering @ factor.embedding))
    if line.dim != 1:
        raise WrongKind("factor has no unique horizontal-lowest line")
    top = _normalize_leading(line.basis.column(0))
    n1m, n2m = action.nminus
    out: dict[tuple[int, int], tuple[Scalar, ...]] = {}
    vk = top
    for k in range(m, -1, -1):
        vl = vk
        for l in range(n, -1, -1):
            out[(k, l)] = vl
            if l > 0:
                vl = n2m.apply(vl)
        if k > 0:
            vk = n1m.apply(vk)
    return out

