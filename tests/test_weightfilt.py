from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limithodge import exactla, l2complex, weightfilt
from limithodge.datum import MonodromyDatum, corpus_entry
from limithodge.exactla import (
    ExactMatrix,
    Filtration,
    I,
    Scalar,
    Subspace,
    apply_to_subspace,
    bigraded_pieces,
    determinant,
    image,
    induced_filtration_on_graded,
    induced_map_on_graded,
    intersect,
    inverse,
    kernel,
    rank,
    subspace_sum,
)
from limithodge.l2complex import build_stalk_complex, hypercohomology
from limithodge.serialize import matrix_from_json
from limithodge.sl2rep import build_model, direct_sum_models, transport_model
from limithodge.weightfilt import (
    AxiomFailure,
    NonCommuting,
    NonPositiveCoefficient,
    NotNilpotent,
    WeightFiltration,
    cone_filtration,
    cone_independence_report,
    monodromy_weight_filtration,
    relative_weight_check,
)
from limithodge.exactla import _pivot_complement
from limithodge.weightfilt import _nilpotent_powers, _verify_weight_axioms, _weight_filtration

DATUMS = Path(__file__).with_name("datums")


def _jordan(dim: int) -> ExactMatrix:
    return ExactMatrix.from_function(dim, dim, lambda i, j: 1 if j == i + 1 else 0)


def _random_nilpotent(rng: random.Random, dim: int) -> ExactMatrix:
    """Strictly upper-triangular seed conjugated by a random integer unipotent."""
    seed = ExactMatrix.from_function(
        dim, dim, lambda i, j: rng.randrange(-2, 3) if j > i else 0)
    p = ExactMatrix.from_function(
        dim, dim,
        lambda i, j: 1 if i == j else (rng.randrange(-1, 2) if j > i else 0))
    return p @ seed @ inverse(p)


def _axioms_hold(N: ExactMatrix, W: WeightFiltration) -> bool:
    """Re-verify both defining axioms from scratch."""
    levels = W.filtration.graded_range()
    lo, hi = min(levels), max(levels)
    for l in range(lo, hi + 1):
        stepped = apply_to_subspace(N, W.step(l))
        if not W.step(l - 2).contains(stepped):
            return False
    center = W.center
    for l in range(0, hi - center + 1):
        dim_hi = W.filtration.graded_dim(center + l)
        dim_lo = W.filtration.graded_dim(center - l)
        if dim_hi != dim_lo:
            return False
        power = N.power(l) if l else ExactMatrix.identity(N.rows)
        block = induced_map_on_graded(power, W.filtration, center + l, shift=-2 * l)
        if block.cols != dim_hi or rank(block) != dim_hi:
            return False
    return True


# ----------------------------------------------------------------------
# construction on pinned inputs


def test_zero_nilpotent_concentrates_at_center():
    w = monodromy_weight_filtration(ExactMatrix.zeros(3, 3))
    assert w.step(-1) == Subspace.zero(3)
    assert w.step(0) == Subspace.full(3)


def test_jordan2_weight_filtration():
    w = monodromy_weight_filtration(_jordan(2))
    assert w.step(-1) == Subspace.from_columns(2, [[1, 0]])
    assert w.step(0) == w.step(-1)
    assert w.step(1) == Subspace.full(2)
    assert w.graded_dims() == {-1: 1, 1: 1}


def test_jordan3_graded_dims():
    w = monodromy_weight_filtration(_jordan(3))
    assert w.graded_dims() == {-2: 1, 0: 1, 2: 1}


def test_not_nilpotent_rejected():
    # on every call: errors are not memoized
    for _ in range(3):
        with pytest.raises(NotNilpotent):
            monodromy_weight_filtration(ExactMatrix.identity(2))


def test_axioms_on_randomized_nilpotents():
    rng = random.Random(23)
    for _ in range(30):
        dim = rng.randrange(1, 7)
        n = _random_nilpotent(rng, dim)
        w = monodromy_weight_filtration(n)
        assert _axioms_hold(n, w)


def test_center_shift_coherence():
    # the recentered request comes first, so a memo that stored the shift fails
    n = _jordan(3)
    _weight_filtration.cache_clear()
    w3 = monodromy_weight_filtration(n, center=3)
    w0 = monodromy_weight_filtration(n)
    assert (w3.center, w0.center) == (3, 0)
    assert w0.graded_dims() == {-2: 1, 0: 1, 2: 1}
    for l in range(-4, 8):
        assert w3.step(l) == w0.step(l - 3)
    assert w0.recenter(3).filtration.steps == w3.filtration.steps


def test_uniqueness_via_reconstruction():
    """Rebuilding from the graded pieces returns the same chain bit-exactly."""
    rng = random.Random(5)
    for _ in range(10):
        n = _random_nilpotent(rng, rng.randrange(2, 6))
        _weight_filtration.cache_clear()
        w1 = monodromy_weight_filtration(n)
        _weight_filtration.cache_clear()
        w2 = monodromy_weight_filtration(n)
        assert w1 is not w2
        assert w1 == w2
        assert w1.filtration.steps == w2.filtration.steps


def test_shift_axiom_violation_is_reported():
    # N(W_1) = span(e1) lies in W_0 but not in W_{-1} = 0
    n = _jordan(2)
    filt = Filtration.from_generators(2, Filtration.INCREASING,
                                      [(0, [[1, 0]]), (1, [[1, 0], [0, 1]])])
    with pytest.raises(AxiomFailure, match="N does not map W_1 into W_-1"):
        _verify_weight_axioms(n, filt)


@pytest.mark.parametrize("n, steps, message", [
    # N = 0 kills Gr_1 -> Gr_-1
    (ExactMatrix.zeros(2, 2), [(-1, [[1, 0]]), (1, [[1, 0], [0, 1]])],
     "N\\^1 is not an isomorphism Gr_1 -> Gr_-1"),
    # N e3 = e2 respects W(J3)'s steps, but N^2 = 0 kills Gr_2 -> Gr_-2
    (ExactMatrix([[0, 0, 0], [0, 0, 1], [0, 0, 0]]),
     [(-2, [[1, 0, 0]]), (0, [[1, 0, 0], [0, 1, 0]]), (2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])],
     "N\\^2 is not an isomorphism Gr_2 -> Gr_-2"),
    # all of the space at weight -2, nothing at 2
    (ExactMatrix.zeros(1, 1), [(-2, [[1]])], "graded dims differ at \\+-2 about the center"),
])
def test_graded_isomorphism_violation_is_reported(n, steps, message):
    filt = Filtration.from_generators(n.rows, Filtration.INCREASING, steps)
    with pytest.raises(AxiomFailure, match=message):
        _verify_weight_axioms(n, filt)


def test_filtration_that_does_not_exhaust_the_space_is_reported():
    filt = Filtration.from_generators(2, Filtration.INCREASING, [(0, [[1, 0]])])
    with pytest.raises(AxiomFailure, match="does not exhaust the space"):
        _verify_weight_axioms(ExactMatrix.zeros(2, 2), filt)


def test_adapted_basis_inverts_the_graded_bases_and_follows_recentering():
    w = monodromy_weight_filtration(_jordan(3))
    Q, weights = w.adapted
    assert weights == (-2, 0, 2)
    assert Q @ ExactMatrix.from_columns([v for l in (-2, 0, 2)
                                         for v in w.filtration.graded_basis(l).columns()]) \
        == ExactMatrix.identity(3)
    assert w.recenter(3).adapted == (Q, (1, 3, 5))


def test_shift_carries_the_adapted_basis_with_the_weights_moved():
    filt = Filtration.from_generators(3, Filtration.INCREASING, [
        (-1, [[1, 1, 0]]), (1, [[1, 1, 0], [0, 1, I]]),
        (2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])])
    Q, weights = filt.adapted
    assert weights == (-1, 1, 2)
    moved = filt.shift(4)
    assert moved.adapted[0] is Q
    assert moved.adapted[1] == (3, 5, 6)
    # a filtration built afresh from the moved steps computes the same basis
    assert Filtration(3, Filtration.INCREASING, moved.steps).adapted == moved.adapted


@pytest.mark.parametrize("N", [_jordan(3), _random_nilpotent(random.Random(7), 5)],
                         ids=["jordan3", "conjugated5"])
def test_adapted_basis_of_a_hand_built_filtration_equals_the_certified_one(N):
    w = monodromy_weight_filtration(N)
    hand_built = Filtration.from_generators(
        N.rows, Filtration.INCREASING,
        [(l, step.basis_columns()) for l, step in w.filtration.steps])
    assert hand_built.adapted == w.adapted


def test_a_filtration_that_does_not_exhaust_the_space_has_no_adapted_basis():
    filt = Filtration.from_generators(2, Filtration.INCREASING, [(0, [[1, 0]])])
    with pytest.raises(ValueError, match="does not exhaust the space"):
        filt.adapted


# ----------------------------------------------------------------------
# meets with weight steps in the adapted basis, against intersect


def _reference_pieces(W1: Filtration, W2: Filtration) -> tuple:
    """bigraded_pieces with every corner W1_a ∩ W2_b taken by intersect."""
    pieces = []
    for a in W1.graded_range():
        for b in W2.graded_range():
            big = intersect(W1.step(a), W2.step(b))
            below = subspace_sum(intersect(W1.step(a - 1), W2.step(b)),
                                 intersect(W1.step(a), W2.step(b - 1)))
            if big.dim > below.dim:
                pieces.append((a, b, tuple(big.basis.column(j)
                                           for j in _pivot_complement(big, below))))
    return tuple(pieces)


def _reference_induced(V: Filtration, W: Filtration, l: int) -> list:
    """The steps of induced_filtration_on_graded, each the graded coordinates of
    V_p ∩ W_l taken by intersect."""
    order = V.indices()
    if V.direction == Filtration.DECREASING:
        order.reverse()
    steps: list[tuple[int, Subspace]] = []
    for p in order:
        sub = image(W._graded_coordinates(l, intersect(V.step(p), W.step(l)).basis))
        if not steps or sub != steps[-1][1]:
            steps.append((p, sub))
    return sorted(((p, sub.basis) for p, sub in steps), key=lambda step: step[0])


def _dense_gaussian(rng: random.Random, dim: int) -> ExactMatrix:
    """An invertible dense Gaussian-integer matrix, every entry a + bi with b != 0."""
    while True:
        P = ExactMatrix([[Scalar(rng.randint(-2, 2), rng.choice((-2, -1, 1, 2)))
                          for _ in range(dim)] for _ in range(dim)])
        if determinant(P):
            return P


def _shear(rng: random.Random, dim: int) -> ExactMatrix:
    """A product of integer row shears: a sparse unimodular change of basis."""
    rows = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(2 * dim):
        i, j = rng.sample(range(dim), 2)
        c = rng.randint(-2, 2)
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return ExactMatrix(rows)


_MEET_CASES = {
    "S(1)xS(1) sheared": (lambda: build_model("S", 1, 1), _shear, 0),
    "E(2,0)xS(1) sheared": (lambda: build_model("E", 1, 0, 0, 2, 0), _shear, 1),
    "S(2)xS(1) dense Q(i)": (lambda: build_model("S", 2, 1), _dense_gaussian, 2),
    "S(2)xS(0)+S(0)xS(2) dense Q(i)": (
        lambda: direct_sum_models([build_model("S", 2, 0), build_model("S", 0, 2)]),
        _dense_gaussian, 3),
}


def _transported(case: str):
    split, conjugator, seed = _MEET_CASES[case]
    model = split()
    return transport_model(model, conjugator(random.Random(seed), model.dim))


@pytest.mark.parametrize("case", sorted(_MEET_CASES))
def test_meets_in_the_adapted_basis_match_intersect(case):
    model = _transported(case)
    n1, n2 = model.action.nminus
    w1, w2 = (monodromy_weight_filtration(n).filtration for n in (n1, n2))
    cone = monodromy_weight_filtration(n1 + n2).filtration
    for first in (w1, w2):
        assert bigraded_pieces(first, cone) == _reference_pieces(first, cone)
    for k in w1.graded_range():
        assert [(p, sub.basis) for p, sub in induced_filtration_on_graded(cone, w1, k).steps] \
            == _reference_induced(cone, w1, k)
    # the decreasing limit filtration over a recentred W, as mhs-check meets them
    recentred = monodromy_weight_filtration(n1 + n2, center=model.weight).filtration
    F = model.limit_filtration()
    for l in recentred.graded_range():
        assert [(p, sub.basis) for p, sub in induced_filtration_on_graded(F, recentred, l).steps] \
            == _reference_induced(F, recentred, l)
    # and W decreasing, where the rows beyond p are those below it
    for p in F.graded_range():
        assert [(l, sub.basis) for l, sub in induced_filtration_on_graded(cone, F, p).steps] \
            == _reference_induced(cone, F, p)


def test_meets_with_weight_steps_never_intersect(monkeypatch):
    model = _transported("S(2)xS(1) dense Q(i)")
    n1, n2 = model.action.nminus
    w1 = monodromy_weight_filtration(n1).filtration
    cone = monodromy_weight_filtration(n1 + n2).filtration

    def refuse(*args):
        raise AssertionError("intersect called")

    monkeypatch.setattr(exactla, "intersect", refuse)
    assert bigraded_pieces(w1, cone)
    for k in w1.graded_range():
        assert induced_filtration_on_graded(cone, w1, k).ambient_dim == w1.graded_dim(k)


# ----------------------------------------------------------------------
# the one-image construction against the intersect-and-sum formula


def _reference_steps(N: ExactMatrix) -> list[tuple[int, Subspace]]:
    """W_k = sum_{j >= max(0,-k)} ker(N^{k+j+1}) ∩ im(N^j), one intersect and
    one sum per term, with the same step de-duplication and early stop."""
    powers = _nilpotent_powers(N)
    d, e = N.rows, len(powers) - 1
    kernels = [kernel(p) for p in powers]
    images = [image(p) for p in powers]
    steps: list[tuple[int, Subspace]] = []
    for k in range(-e, e + 1):
        acc = Subspace.zero(d)
        for j in range(max(0, -k), e):
            acc = subspace_sum(acc, intersect(kernels[min(k + j + 1, e)], images[j]))
        if not steps or acc != steps[-1][1]:
            steps.append((k, acc))
        if acc.dim == d:
            break
    return steps


_small_ints = st.one_of(st.just(0), st.integers(-2, 2))


@st.composite
def _conjugated_nilpotents(draw) -> ExactMatrix:
    """A sparse strictly upper-triangular integer N of size <= 7, conjugated by
    a dense unipotent P = LU with integer or Gaussian-integer entries."""
    d = draw(st.integers(1, 7))
    gaussian = draw(st.booleans())

    def entry():
        return Scalar(draw(_small_ints), draw(_small_ints)) if gaussian else draw(_small_ints)

    seed = [[draw(_small_ints) if j > i else 0 for j in range(d)] for i in range(d)]
    lower = [[1 if i == j else entry() if i > j else 0 for j in range(d)] for i in range(d)]
    upper = [[1 if i == j else entry() if i < j else 0 for j in range(d)] for i in range(d)]
    p = ExactMatrix(lower) @ ExactMatrix(upper)
    return p @ ExactMatrix(seed) @ inverse(p)


@settings(max_examples=150, deadline=None)
@given(_conjugated_nilpotents())
def test_weight_steps_match_the_intersect_and_sum_formula(N):
    got = monodromy_weight_filtration(N).filtration.steps
    want = _reference_steps(N)
    assert [(k, s.pivots(), s.basis) for k, s in got] == \
        [(k, s.pivots(), s.basis) for k, s in want]


@pytest.mark.parametrize("label", ["s11", "s21", "End(s11)"])
def test_row_reductions_per_filtration_grow_linearly_in_the_nilpotency_index(monkeypatch,
                                                                              label):
    # the intersect-and-sum construction made 60, 104 and 159 on N1 + N2 here
    datum = corpus_entry(label)
    calls = [0]
    row_reduce = exactla._row_reduce

    def counted(*args):
        calls[0] += 1
        return row_reduce(*args)

    monkeypatch.setattr(exactla, "_row_reduce", counted)
    for N in (datum.n1, datum.n1 + datum.n2):
        e = len(_nilpotent_powers(N)) - 1
        _weight_filtration.cache_clear()
        calls[0] = 0
        monodromy_weight_filtration(N)
        assert 0 < calls[0] <= 5 * e, f"{calls[0]} row reductions at nilpotency index {e}"


def test_cone_relative_and_stalk_steps_certify_each_filtration_once(monkeypatch):
    """One op of cone, relative and stalk work builds W(N1) and W(N1+N2) once each."""
    payload = json.loads((DATUMS / "gaussian-s11-plus-s10.json").read_text())
    datum = MonodromyDatum(payload["weight"], matrix_from_json(payload["N1"]),
                           matrix_from_json(payload["N2"]))
    _weight_filtration.cache_clear()
    l2complex._bilevel_pieces.cache_clear()
    certified = []
    verify = weightfilt._verify_weight_axioms

    def recording(N, *args):
        certified.append(N)
        return verify(N, *args)

    monkeypatch.setattr(weightfilt, "_verify_weight_axioms", recording)
    cone_independence_report([datum.n1, datum.n2], samples=1)
    relative_weight_check(datum.n1, datum.n2)
    assert hypercohomology(build_stalk_complex(datum)) == (2, 0, 0)
    assert certified.count(datum.n1 + datum.n2) == 1
    assert certified.count(datum.n1) == 1


# ----------------------------------------------------------------------
# cones


def test_cone_on_tensor_model_matches_known_graded_dims():
    model = build_model("S", 1, 1)
    n1, n2 = model.action.nminus
    w_a = cone_filtration([n1, n2], [1, 1])
    w_b = cone_filtration([n1, n2], [1, 2])
    assert w_a == w_b
    assert w_a.graded_dims() == {-2: 1, 0: 2, 2: 1}


def test_singleton_cone_is_plain_filtration():
    n = _jordan(2)
    assert cone_filtration([n], [1]) == monodromy_weight_filtration(n)


def test_cone_scaling_invariance():
    n = _jordan(2)
    w = cone_filtration([n, n], [1, 1])
    assert w == monodromy_weight_filtration(n)


def test_cone_rejects_noncommuting():
    a = _jordan(2)
    b = ExactMatrix.from_function(2, 2, lambda i, j: 1 if i == j + 1 else 0)
    with pytest.raises(NonCommuting):
        cone_filtration([a, b], [1, 1])


def test_cone_rejects_nonpositive_coefficients():
    n = _jordan(2)
    with pytest.raises(NonPositiveCoefficient):
        cone_filtration([n, n], [1, 0])
    with pytest.raises(NonPositiveCoefficient):
        cone_filtration([n, n], [Fraction(1, 2), -1])


def test_cone_independence_report_on_model_pair():
    model = build_model("S", 2, 1)
    n1, n2 = model.action.nminus
    rep = cone_independence_report([n1, n2], samples=6, seed=3)
    assert rep["independent"] is True
    assert rep["samples"][0] == ["1", "1"]
    assert len(rep["samples"]) == 7
    assert sum(rep["graded_dims"].values()) == model.dim


# ----------------------------------------------------------------------
# relative weight filtrations


def test_relative_weight_on_tensor_model():
    model = build_model("S", 1, 1)
    n1, n2 = model.action.nminus
    rep = relative_weight_check(n1, n2)
    assert rep["agree"] is True
    assert rep["details"]


def test_relative_weight_with_second_operator_zero():
    n1 = _jordan(2)
    rep = relative_weight_check(n1, ExactMatrix.zeros(2, 2))
    assert rep["agree"] is True


def test_relative_weight_with_first_operator_zero():
    n2 = _jordan(3)
    rep = relative_weight_check(ExactMatrix.zeros(3, 3), n2)
    assert rep["agree"] is True
