"""Monodromy weight filtrations of nilpotent endomorphisms.

Centered construction plus shifts, cones of commuting nilpotents, and
relative weight filtrations on graded quotients.  The construction is
self-certifying: both defining axioms (the shift axiom N(W_l) <= W_{l-2}
and the graded-isomorphism axiom for N^l) are re-verified exactly before
any filtration is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from . import InternalInvariantFailure, PreconditionViolated
from .exactla import (
    ExactMatrix,
    Filtration,
    Subspace,
    _null_generators,
    induced_filtration_on_graded,
    image,
    induced_map_on_graded,
    rank,
)


class NotNilpotent(PreconditionViolated, ValueError):
    """The matrix does not power to zero within the ambient dimension."""


class NonCommuting(PreconditionViolated, ValueError):
    """A family of matrices expected to commute does not."""


class NonPositiveCoefficient(PreconditionViolated, ValueError):
    """Cone coefficients must be strictly positive."""


class AxiomFailure(InternalInvariantFailure, RuntimeError):
    """A constructed filtration failed its own defining axioms."""


@dataclass(frozen=True)
class WeightFiltration:
    """An increasing monodromy weight filtration, possibly recentered.

    ``filtration.step(l)`` is the weight-l step in the stored indexing;
    ``center`` is 0 for W(N) and k for the shifted W(N)[-k], whose step
    at index l equals the centered filtration's step at l - k.
    """

    filtration: Filtration
    nilpotent: ExactMatrix
    center: int

    @property
    def adapted(self) -> tuple[ExactMatrix, tuple[int, ...]]:
        """(Q, weights) of the filtration's adapted basis: v lies in W_l
        exactly when (Qv)_j = 0 for every weights[j] > l."""
        return self.filtration.adapted

    def step(self, l: int) -> Subspace:
        return self.filtration.step(l)

    def graded_dims(self) -> dict[int, int]:
        return {l: self.filtration.graded_dim(l) for l in self.filtration.graded_range()}

    def recenter(self, center: int) -> "WeightFiltration":
        """The same filtration re-indexed so the symmetry center moves."""
        return WeightFiltration(self.filtration.shift(center - self.center),
                                self.nilpotent, center)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightFiltration):
            return NotImplemented
        return self.center == other.center and self.filtration == other.filtration


def _nilpotent_powers(N: ExactMatrix) -> list[ExactMatrix]:
    """[N^0, N^1, ..., N^e] up to the first zero power N^e.

    Raises NotNilpotent when N^dim is not zero.
    """
    if N.rows != N.cols:
        raise ValueError("nilpotent endomorphism must be square")
    powers = [ExactMatrix.identity(N.rows)]
    while not powers[-1].is_zero():
        if len(powers) > N.rows:
            raise NotNilpotent(f"matrix of size {N.rows} does not power to zero")
        powers.append(powers[-1] @ N)
    return powers


def nilpotency_check(N: ExactMatrix) -> None:
    _nilpotent_powers(N)


def monodromy_weight_filtration(N: ExactMatrix, center: int = 0) -> WeightFiltration:
    """The unique increasing filtration with N W_l <= W_{l-2} and
    N^l : Gr_{l+center} ~ Gr_{-l+center}.

    Built from the closed formula (centered indexing, e the nilpotency
    index)
    W_k = sum_{j >= max(0,-k)} ker(N^{k+j+1}) ∩ im(N^j)
        = sum_{j >= max(0,-k)} N^j ker(N^{min(k+2j+1, e)}),
    by the identity ker(N^a) ∩ im(N^j) = N^j ker(N^{a+j}): v = N^j w lies
    in ker(N^a) exactly when w lies in ker(N^{a+j}).  So the kernels are
    computed once and each step is one image.  Each operator's centered
    filtration is built and certified against both axioms once (else
    AxiomFailure), then shared from a 32-entry memo as one immutable
    object and recentered here; errors are raised anew on every call.
    """
    w = _weight_filtration(N)
    return w if center == 0 else w.recenter(center)


@lru_cache(maxsize=32)
def _weight_filtration(N: ExactMatrix) -> WeightFiltration:
    powers = _nilpotent_powers(N)
    d = N.rows
    nilindex = len(powers) - 1  # smallest e with N^e = 0

    # generators of ker N^a for a = 1..e, as columns; N^e = 0, so the last is the
    # whole space.  They are only spanned, and each step's image is canonical.
    kernels = [None, *(_null_generators(powers[a]).transpose() for a in range(1, nilindex)),
               ExactMatrix.identity(d)]

    steps: list[tuple[int, Subspace]] = []
    prev: Subspace | None = None
    for k in range(-nilindex, nilindex + 1):
        terms = [powers[j] @ kernels[min(k + 2 * j + 1, nilindex)]
                 for j in range(max(0, -k), nilindex)]
        acc = image(terms[0].hstack(*terms[1:])) if terms else Subspace.zero(d)
        if prev is None or acc != prev:
            steps.append((k, acc))
            prev = acc
        if acc.dim == d:
            break
    filt = Filtration(d, Filtration.INCREASING, steps)
    _verify_weight_axioms(N, filt)
    return WeightFiltration(filt, N, 0)


def _verify_weight_axioms(N: ExactMatrix, filt: Filtration) -> None:
    """Both axioms of the weight filtration centered at 0, checked in its adapted basis.

    P joins the graded bases in increasing weight, so W_l is spanned by
    the columns of weight <= l, and A = Q N P (Q = P^-1, from
    ``filt.adapted``, which this computes and caches) is N in that
    basis.  N W_l <= W_{l-2} for every l exactly when A_ij = 0 whenever
    weight(i) > weight(j) - 2, so the first l that fails is the least
    weight of a column with such an entry.  The map N^l induces from
    Gr_l to Gr_{-l} is the block of A^l between those weights.
    """
    P, _ = filt._graded_frame()
    if P.cols != P.rows:
        raise AxiomFailure("the filtration does not exhaust the space")
    Q, weights = filt.adapted
    levels = sorted(set(weights))
    at = {l: [j for j, w in enumerate(weights) if w == l] for l in levels}
    A = Q @ (N @ P)
    for l in levels:
        above = [i for i, w in enumerate(weights) if w > l - 2]
        if not A.submatrix(above, at[l]).is_zero():
            raise AxiomFailure(f"N does not map W_{l} into W_{l-2}")
    power = ExactMatrix.identity(P.rows)
    for l in range(1, max(map(abs, weights), default=0) + 1):
        power = power @ A
        src, tgt = at.get(l, []), at.get(-l, [])
        if len(src) != len(tgt):
            raise AxiomFailure(f"graded dims differ at +-{l} about the center")
        if src and rank(power.submatrix(tgt, src)) != len(src):
            raise AxiomFailure(f"N^{l} is not an isomorphism Gr_{l} -> Gr_{-l}")


def commuting_check(Ns: Sequence[ExactMatrix]) -> None:
    for i in range(len(Ns)):
        for j in range(i + 1, len(Ns)):
            if not Ns[i].commutator(Ns[j]).is_zero():
                raise NonCommuting(f"matrices {i} and {j} do not commute")


def cone_filtration(Ns: Sequence[ExactMatrix],
                    lambdas: Sequence[Fraction | int]) -> WeightFiltration:
    """Weight filtration of a positive combination of commuting nilpotents."""
    if len(Ns) != len(lambdas) or not Ns:
        raise ValueError("need matching nonempty matrix and coefficient lists")
    commuting_check(Ns)
    return _cone_filtration(Ns, lambdas)


def _cone_filtration(Ns: Sequence[ExactMatrix],
                     lambdas: Sequence[Fraction | int]) -> WeightFiltration:
    """cone_filtration of a family already checked to commute, one coefficient each."""
    lams = [Fraction(l) for l in lambdas]
    if any(l <= 0 for l in lams):
        raise NonPositiveCoefficient(f"coefficients must be positive, got {lams}")
    total = ExactMatrix.zeros(Ns[0].rows, Ns[0].cols)
    for N, lam in zip(Ns, lams):
        total = total + N.scale(lam)
    return monodromy_weight_filtration(total)


def cone_independence_report(Ns: Sequence[ExactMatrix], samples: int = 10,
                             seed: int = 0) -> dict:
    """Compare cone filtrations across random positive coefficients.

    This is a sampled check, not a proof: independence is guaranteed for
    monodromy data of a polarized variation but can fail for arbitrary
    commuting nilpotents, so the result is reported rather than assumed.
    """
    import random

    rng = random.Random(seed)
    base = cone_filtration(Ns, [1] * len(Ns))  # checks once that the Ns commute
    tried: list[list[str]] = [["1"] * len(Ns)]
    independent = True
    for _ in range(samples):
        lams = [Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in Ns]
        tried.append([str(l) for l in lams])
        if _cone_filtration(Ns, lams) != base:
            independent = False
            break
    return {
        "independent": independent,
        "samples": tried,
        "graded_dims": {str(l): dval for l, dval in base.graded_dims().items()},
    }


def relative_weight_check(N1: ExactMatrix, N2: ExactMatrix) -> dict:
    """Check that the cone filtration induces, on each Gr_k of W(N1), the
    weight filtration of the induced N2 recentered at k.

    Returns a step-by-step report; ``agree`` is the conjunction.
    """
    W = cone_filtration([N1, N2], [1, 1])  # checks first that N1 and N2 commute
    W1 = monodromy_weight_filtration(N1)
    details = []
    agree = True
    for k in W1.filtration.graded_range():
        induced = induced_filtration_on_graded(W.filtration, W1.filtration, k)
        n2_gr = induced_map_on_graded(N2, W1.filtration, k)
        expected = monodromy_weight_filtration(n2_gr, center=k)
        los = min(induced.indices() + expected.filtration.indices()) - 1
        his = max(induced.indices() + expected.filtration.indices()) + 1
        for l in range(los, his + 1):
            a, b = induced.step(l), expected.step(l)
            same = a == b
            agree = agree and same
            if a.dim or b.dim or not same:
                details.append({"k": k, "l": l, "induced_dim": a.dim,
                                "weight_dim": b.dim, "equal": same})
    return {"agree": agree, "details": details}
