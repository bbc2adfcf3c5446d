"""Hodge structures on a fixed reference fiber.

Pure structures from filtrations, the Weil operator and its metric,
mixed-structure validation against a nilpotent operator, the canonical
(Deligne) bigrading of a mixed structure, and the real-splitting test.

Conjugation is always taken relative to the standard coordinates of the
ambient space; every real structure in this package is pinned to input
coordinates that way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import PreconditionViolated
from .exactla import (
    ExactMatrix,
    Filtration,
    I,
    ONE,
    Scalar,
    Subspace,
    determinant,
    image,
    induced_filtration_on_graded,
    induced_map_on_graded,
    intersect,
    kernel,
    maps_into,
    matrix_between,
    subspace_sum,
    vstack,
)
from .sl2rep import operator_from_bigrading
from .weightfilt import NotNilpotent, monodromy_weight_filtration

Bigrading = dict[tuple[int, int], Subspace]


class NotAHodgeFiltration(PreconditionViolated, ValueError):
    """The filtration is not opposed to its conjugate at the given weight."""


class NotPolarized(PreconditionViolated, ValueError):
    """The form fails symmetry, piece-orthogonality, or positivity."""


def _conj_space(V: Subspace) -> Subspace:
    return image(V.basis.conjugate())


@dataclass(frozen=True)
class HodgeStructure:
    """A pure bigraded structure of a single total weight.

    ``bigrading`` maps (p, q) with p + q = weight to the corresponding
    subspace; the pieces decompose the ambient space and are pairwise
    exchanged by conjugation.
    """

    weight: int
    bigrading: Bigrading

    @property
    def ambient_dim(self) -> int:
        return next(iter(self.bigrading.values())).ambient_dim

    def filtration(self) -> Filtration:
        """The decreasing filtration with step p the sum of pieces with first
        index at least p."""
        d = self.ambient_dim
        ps = sorted({p for p, _ in self.bigrading}, reverse=True)
        steps: list[tuple[int, Subspace]] = []
        acc = Subspace.zero(d)
        for p in ps:
            acc = subspace_sum(acc, self.bigrading[(p, self.weight - p)])
            steps.append((p, acc))
        return Filtration(d, Filtration.DECREASING, steps)


@dataclass(frozen=True)
class PolarizationForm:
    """A bilinear form with the symmetry forced by the weight parity."""

    S: ExactMatrix
    weight_parity: str  # "even" | "odd"

    def __post_init__(self):
        if self.S.rows != self.S.cols:
            raise NotPolarized("form matrix must be square")
        if self.weight_parity not in ("even", "odd"):
            raise ValueError("weight_parity must be 'even' or 'odd'")
        st = self.S.transpose()
        if self.weight_parity == "even" and st != self.S:
            raise NotPolarized("even-weight form must be symmetric")
        if self.weight_parity == "odd" and st != -self.S:
            raise NotPolarized("odd-weight form must be skew")

    @staticmethod
    def for_weight(S: ExactMatrix, k: int) -> "PolarizationForm":
        return PolarizationForm(S, "even" if k % 2 == 0 else "odd")


@dataclass(frozen=True)
class MixedHodge:
    """An increasing real filtration W together with a decreasing F."""

    W: Filtration
    F: Filtration

    def __post_init__(self):
        if self.W.direction != Filtration.INCREASING:
            raise ValueError("W must be increasing")
        if self.F.direction != Filtration.DECREASING:
            raise ValueError("F must be decreasing")
        if self.W.ambient_dim != self.F.ambient_dim:
            raise ValueError("ambient dimension mismatch")

    @property
    def ambient_dim(self) -> int:
        return self.W.ambient_dim


# ----------------------------------------------------------------------
# pure structures


def filtration_to_bigrading(F: Filtration, k: int) -> HodgeStructure:
    """Split a weight-k Hodge filtration into its (p, q) pieces.

    Checks the direct-sum condition H = F^p (+) conj(F^{k-p+1}) for every
    p, then returns H^{p,q} = F^p intersect conj(F^q).  Raises
    NotAHodgeFiltration when the condition fails.
    """
    if F.direction != Filtration.DECREASING:
        raise ValueError("Hodge filtrations are decreasing")
    d = F.ambient_dim
    idx = F.indices()
    if not idx:
        raise ValueError("empty filtration")
    lo, hi = min(idx), max(idx)
    p_lo, p_hi = min(lo, k - hi), max(hi, k - lo) + 1
    conj_steps = {l: _conj_space(F.step(l)) for l in range(k - p_hi, k - p_lo + 2)}
    for p in range(p_lo, p_hi + 1):
        A = F.step(p)
        B = conj_steps[k - p + 1]
        if A.dim + B.dim != d or intersect(A, B).dim != 0:
            raise NotAHodgeFiltration(
                f"H is not the direct sum of F^{p} and the conjugate of "
                f"F^{k - p + 1}")
    pieces: Bigrading = {}
    total = 0
    for p in range(p_lo, p_hi + 1):
        piece = intersect(F.step(p), conj_steps[k - p])
        if piece.dim:
            pieces[(p, k - p)] = piece
            total += piece.dim
    if total != d:
        raise NotAHodgeFiltration("bigraded pieces do not fill the space")
    hs = HodgeStructure(k, pieces)
    if hs.filtration() != F:
        raise NotAHodgeFiltration("bigrading does not reassemble the filtration")
    return hs


def weil_and_metric(hs: HodgeStructure,
                    S: PolarizationForm) -> tuple[ExactMatrix, ExactMatrix]:
    """Weil operator and metric matrix of a polarized pure structure.

    C acts as i^(p-q) on the (p, q) piece.  The returned metric matrix
    Hm encodes h(u, v) = S(Cu, conj(v)) through h(u, v) = u^T Hm conj(v);
    positivity is certified exactly by Sylvester's criterion on the
    realified form.  Raises NotPolarized when orthogonality between
    non-opposite pieces or positivity fails.
    """
    parity = "even" if hs.weight % 2 == 0 else "odd"
    if parity != S.weight_parity:
        raise NotPolarized("form parity does not match the weight")
    if S.S.rows != hs.ambient_dim:
        raise NotPolarized("form size does not match the ambient space")
    items = sorted(hs.bigrading.items())
    # S is symmetric or skew, so one product per unordered pair decides both orders
    for i, ((p, q), piece) in enumerate(items):
        for (r, s), other in items[i:]:
            if (r, s) != (q, p) and not (piece.basis.transpose() @ S.S @ other.basis).is_zero():
                raise NotPolarized(f"pieces ({p},{q}) and ({r},{s}) are not orthogonal")

    def i_power(e: int) -> Scalar:
        return (ONE, I, -ONE, -I)[e % 4]

    C = operator_from_bigrading(hs.bigrading, lambda p, q: i_power(p - q))
    Hm = C.transpose() @ S.S
    if Hm.conjugate().transpose() != Hm:
        raise NotPolarized("metric matrix is not hermitian")
    _check_positive_definite(Hm)
    return C, Hm


def _check_positive_definite(Hm: ExactMatrix) -> None:
    """Exact positivity of a hermitian matrix by realification.

    Writes Hm = A + iB and tests the real symmetric block matrix
    [[A, B], [-B, A]] with Sylvester's leading-minor criterion.
    """
    A = (Hm + Hm.conjugate()).scale(Fraction(1, 2))
    B = (Hm.conjugate() - Hm).scale(I * Fraction(1, 2))
    M = vstack([A.hstack(B), (-B).hstack(A)])
    for m in range(1, M.rows + 1):
        minor = determinant(M.submatrix(range(m), range(m)))
        if minor.im or minor.re <= 0:
            raise NotPolarized(f"leading minor {m} is not positive")


# ----------------------------------------------------------------------
# mixed structures


def _is_real(V: Subspace) -> bool:
    return _conj_space(V) == V


def mhs_check(m: MixedHodge) -> dict:
    """Per-level report on whether (W, F) is a mixed Hodge structure.

    Checks that W is defined over the reals and that F induces a pure
    structure of weight l on each graded piece Gr_l(W).
    """
    weight_real = all(_is_real(sub) for _, sub in m.W.steps)
    levels = []
    is_mhs = weight_real
    if weight_real:
        for l in m.W.graded_range():
            if m.W.graded_dim(l) == 0:
                continue
            induced = induced_filtration_on_graded(m.F, m.W, l)
            try:
                filtration_to_bigrading(induced, l)
                pure = True
            except NotAHodgeFiltration:
                pure = False
            levels.append({"l": l, "graded_dim": m.W.graded_dim(l), "pure": pure})
            is_mhs = is_mhs and pure
    return {"is_mhs": is_mhs, "weight_real": weight_real, "levels": levels}


def polarized_mhs_check(m: MixedHodge, N: ExactMatrix, S: ExactMatrix,
                        k: int) -> dict:
    """The five-condition polarization report at central weight k.

    Conditions: N^(k+1) = 0; W is the weight filtration of N recentered
    at k; S pairs F^p against F^{k-p+1} to zero; N lowers F by one; and
    every primitive graded part is polarized by S(. , N^l .).
    """
    if N.conjugate() != N:
        raise ValueError("the nilpotent operator must be real")
    if S.conjugate() != S:
        raise ValueError("the form must be real")
    d = m.ambient_dim
    report: dict = {}
    report["nilpotent_order"] = k >= 0 and N.power(k + 1).is_zero()
    try:
        expected = monodromy_weight_filtration(N, center=k)
        report["weight_filtration"] = expected.filtration == m.W
    except NotNilpotent:
        report["weight_filtration"] = False
    idx = m.F.indices()
    lo, hi = min(idx), max(idx)
    report["pairing"] = all(
        (m.F.step(p).basis.transpose() @ S @ m.F.step(k - p + 1).basis).is_zero()
        for p in range(min(lo, k - hi), max(hi, k - lo) + 2))
    report["lowers_filtration"] = all(maps_into(N, m.F.step(p), m.F.step(p - 1)) for p in idx)

    primitive_ok = True
    details = []
    if report["weight_filtration"]:
        for l in range(0, max(m.W.graded_range(), default=k) - k + 1):
            g = m.W.graded_dim(k + l)
            if g == 0:
                continue
            ok, why = _primitive_polarized(m, N, S, k, l)
            details.append({"l": l, "dim": g, "polarized": ok, "detail": why})
            primitive_ok = primitive_ok and ok
    else:
        primitive_ok = False
    report["primitive_polarization"] = primitive_ok
    report["primitive_details"] = details
    report["all_pass"] = all(report[key] for key in (
        "nilpotent_order", "weight_filtration", "pairing",
        "lowers_filtration", "primitive_polarization"))
    return report


def _primitive_polarized(m: MixedHodge, N: ExactMatrix, S: ExactMatrix,
                         k: int, l: int) -> tuple[bool, str]:
    """Check the primitive part of Gr_{k+l} against S(. , N^l .)."""
    Ngr = induced_map_on_graded(N.power(l + 1), m.W, k + l, shift=-2 * (l + 1))
    P = kernel(Ngr)
    if P.dim == 0:
        return True, "trivial"
    L = m.W.graded_basis(k + l)
    Sgr = L.transpose() @ S @ N.power(l) @ L
    Fgr = induced_filtration_on_graded(m.F, m.W, k + l)
    # coordinates inside P (its canonical basis is real since the data is)
    if not P.basis.is_real():
        return False, "primitive space is not defined over the reals"
    inclusion = ExactMatrix.identity(L.cols)
    steps: list[tuple[int, Subspace]] = []
    prev: Subspace | None = None
    for p in Fgr.indices():
        sub = image(matrix_between(inclusion, intersect(Fgr.step(p), P), P))
        if prev is None or sub != prev:
            steps.append((p, sub))
            prev = sub
    FP = Filtration(P.dim, Filtration.DECREASING, steps)
    SP = P.basis.transpose() @ Sgr @ P.basis
    try:
        hs = filtration_to_bigrading(FP, k + l)
    except NotAHodgeFiltration as exc:
        return False, f"primitive part not pure: {exc}"
    try:
        weil_and_metric(hs, PolarizationForm.for_weight(SP, k + l))
    except NotPolarized as exc:
        return False, str(exc)
    return True, "ok"


# ----------------------------------------------------------------------
# canonical bigrading of a mixed structure


def deligne_bigrading(m: MixedHodge) -> Bigrading:
    """The canonical bigraded splitting I^{p,q} of a mixed structure.

    I^{p,q} = F^p ∩ W_{p+q} ∩ (conj(F^q) ∩ W_{p+q}
              + sum_{j>=1} conj(F^{q-j}) ∩ W_{p+q-j-1}).

    I^{p,q} maps isomorphically onto its image in Gr_{p+q}(W), so only
    p + q with a nonzero graded piece is tried.  The result fills the
    space and splits both filtrations; that is re-verified before
    returning.
    """
    rep = mhs_check(m)
    if not rep["is_mhs"]:
        raise NotAHodgeFiltration("the pair (W, F) is not a mixed Hodge structure")
    d = m.ambient_dim
    fidx = m.F.indices()
    p_lo, p_hi = min(fidx) - 1, max(fidx) + 1
    levels = m.W.graded_range()
    w_lo = min(levels, default=0)
    conj_f: dict[int, Subspace] = {}

    def cF(q: int) -> Subspace:
        if q not in conj_f:
            conj_f[q] = _conj_space(m.F.step(q))
        return conj_f[q]

    pieces: Bigrading = {}
    for k in levels:
        Wl = m.W.step(k)
        for p in range(max(p_lo, k - p_hi), min(p_hi, k - p_lo) + 1):
            q = k - p
            terms = [intersect(cF(q), Wl)]
            j = 1
            while k - j - 1 >= w_lo - 1:
                Wj = m.W.step(k - j - 1)
                if Wj.dim == 0:
                    break
                terms.append(intersect(cF(q - j), Wj))
                j += 1
            piece = intersect(intersect(m.F.step(p), Wl), subspace_sum(*terms))
            if piece.dim:
                pieces[(p, q)] = piece
    if sum(sub.dim for sub in pieces.values()) != d:
        raise RuntimeError("canonical bigrading does not fill the space")
    zero = Subspace.zero(d)
    for l in m.W.indices():
        below = (sub for (p, q), sub in pieces.items() if p + q <= l)
        if subspace_sum(zero, *below) != m.W.step(l):
            raise RuntimeError("canonical bigrading does not split W")
    for p in fidx:
        above = (sub for (r, _), sub in pieces.items() if r >= p)
        if subspace_sum(zero, *above) != m.F.step(p):
            raise RuntimeError("canonical bigrading does not split F")
    return dict(sorted(pieces.items()))


def r_split_check(m: MixedHodge) -> bool:
    """True when the canonical bigrading satisfies I^{p,q} = conj(I^{q,p})."""
    pieces = deligne_bigrading(m)
    for (p, q), sub in pieces.items():
        mirror = pieces.get((q, p))
        if mirror is None or _conj_space(sub) != mirror:
            return False
    return True


def bigrading_morphism_check(m: MixedHodge, X: ExactMatrix,
                             r: int, s: int) -> bool:
    """Compatibility of an (r, s)-morphism with the canonical bigrading.

    Checks X(I^{p,q}) ⊆ sum of I^{p',q'} over p' <= p + r, q' <= q + s.
    """
    pieces = deligne_bigrading(m)
    zero = Subspace.zero(m.ambient_dim)
    for (p, q), sub in pieces.items():
        target = subspace_sum(zero, *(other for (pp, qq), other in pieces.items()
                                      if pp <= p + r and qq <= q + s))
        if not maps_into(X, sub, target):
            return False
    return True
