from __future__ import annotations

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import limithodge
from limithodge.exactla import (
    ZERO,
    ExactMatrix,
    Filtration,
    I,
    Scalar,
    Subspace,
    apply_to_subspace,
    bilinear,
    block_diag,
    determinant,
    exp_nilpotent,
    image,
    induced_filtrations_on_graded,
    induced_map_on_graded,
    inverse,
    kernel,
    kron,
    maps_into,
    matrix_between,
    meet,
    rank,
    scalar,
    solve,
    subspace_sum,
    vstack,
)
from limithodge.exactla import _row_reduce


def _jordan(dim: int) -> ExactMatrix:
    """Single nilpotent Jordan block: e_{j+1} -> e_j."""
    return ExactMatrix.from_function(dim, dim, lambda i, j: 1 if j == i + 1 else 0)


def _random_matrix(rng: random.Random, rows: int, cols: int) -> ExactMatrix:
    pool = [-2, -1, 0, 0, 1, 2]
    return ExactMatrix.from_function(
        rows, cols,
        lambda i, j: Scalar(rng.choice(pool), rng.choice(pool + [0, 0])))


# ----------------------------------------------------------------------
# scalars


def test_scalar_arithmetic_is_exact():
    a = Scalar(Fraction(1, 3), Fraction(1, 2))
    b = Scalar(Fraction(2, 3), Fraction(-1, 2))
    assert a + b == Scalar(1, 0)
    assert a * b == Scalar(Fraction(2, 9) + Fraction(1, 4),
                           Fraction(1, 3) - Fraction(1, 6))
    assert a - a == Scalar(0, 0)
    assert not Scalar(0, 0)
    assert a.conj() == Scalar(Fraction(1, 3), Fraction(-1, 2))


def test_scalar_inverse():
    z = Scalar(3, 4)
    assert z * z.inv() == Scalar(1, 0)
    with pytest.raises(ZeroDivisionError):
        Scalar(0, 0).inv()


def test_scalar_coercion():
    assert scalar("1/2") == Scalar(Fraction(1, 2), 0)
    assert scalar(2) == Scalar(2, 0)
    assert (scalar(1) + Fraction(1, 2)) == Scalar(Fraction(3, 2), 0)


# ----------------------------------------------------------------------
# kernels, images, and the subspace lattice


def test_kernel_of_zero_map_is_everything():
    assert kernel(ExactMatrix.zeros(3, 3)) == Subspace.full(3)


def test_kernel_of_identity_is_zero():
    assert kernel(ExactMatrix.identity(3)) == Subspace.zero(3)


def test_kernel_of_jordan_block():
    assert kernel(_jordan(2)) == Subspace.from_columns(2, [[1, 0]])


def test_intersect_transverse_lines():
    line1 = Subspace.from_columns(2, [[1, 1]])
    # the kernel of [0 1] is the line through (1, 0)
    assert meet(line1, ExactMatrix([[0, 1]])) == Subspace.zero(2)
    assert meet(line1, ExactMatrix([[1, -1]])) == line1


def test_sum_of_axes_spans_plane():
    e1 = Subspace.from_columns(2, [[1, 0]])
    e2 = Subspace.from_columns(2, [[0, 1]])
    assert subspace_sum(e1, e2) == Subspace.full(2)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        meet(Subspace.full(2), ExactMatrix.identity(3))


def test_rank_nullity_randomized():
    rng = random.Random(7)
    for _ in range(40):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        m = _random_matrix(rng, rows, cols)
        assert kernel(m).dim + image(m).dim == cols


def test_intersection_sum_dimension_formula_randomized():
    rng = random.Random(11)
    for _ in range(40):
        d = rng.randrange(1, 6)
        a = image(_random_matrix(rng, d, rng.randrange(1, d + 1)))
        m = _random_matrix(rng, rng.randrange(1, d + 1), d)
        b = kernel(m)
        c = image(_random_matrix(rng, d, rng.randrange(1, d + 1)))
        both = meet(a, m)
        either = subspace_sum(a, b)
        assert a.dim + b.dim == both.dim + either.dim
        assert subspace_sum(a, b, c) == subspace_sum(either, c)


def test_canonicalization_idempotent_randomized():
    rng = random.Random(13)
    for _ in range(25):
        d = rng.randrange(1, 6)
        v = image(_random_matrix(rng, d, rng.randrange(1, d + 2)))
        again = Subspace.from_columns(d, [list(c) for c in v.basis_columns()])
        assert again == v
        assert again.basis.entries == v.basis.entries


def test_subspace_membership_and_coordinates():
    v = Subspace.from_columns(3, [[1, 0, 1], [0, 1, 0]])
    assert v.contains_vector([2, 3, 2])
    assert not v.contains_vector([0, 0, 1])
    coords = v.coordinates([2, 3, 2])
    rebuilt = [sum((c * b[i] for c, b in zip(coords, v.basis_columns())), Scalar(0))
               for i in range(3)]
    assert rebuilt == [scalar(2), scalar(3), scalar(2)]


# ----------------------------------------------------------------------
# solving, determinants, inverses, exponentials


def test_solve_round_trip_randomized():
    rng = random.Random(17)
    hits = 0
    for _ in range(40):
        d = rng.randrange(1, 5)
        m = _random_matrix(rng, d, d)
        x0 = [rng.randrange(-3, 4) for _ in range(d)]
        b = m.apply(x0)
        x = solve(m, b)
        assert x is not None
        assert m.apply(x) == b
        hits += 1
    assert hits == 40


def test_solve_reports_inconsistency():
    m = ExactMatrix.from_columns([[1, 0], [1, 0]], ambient_dim=2)
    assert solve(m, [0, 1]) is None


def test_determinant_and_inverse():
    m = ExactMatrix.from_columns([[2, 1], [1, 1]], ambient_dim=2)
    assert determinant(m) == scalar(1)
    assert inverse(m) @ m == ExactMatrix.identity(2)
    with pytest.raises(ValueError):
        inverse(ExactMatrix.zeros(2, 2))


def test_exp_nilpotent_jordan3():
    n = _jordan(3)
    e = exp_nilpotent(n)
    assert e.apply([0, 0, 1]) == (scalar("1/2"), scalar(1), scalar(1))
    assert exp_nilpotent(n, -1) @ e == ExactMatrix.identity(3)


def test_exp_nilpotent_rejects_non_nilpotent():
    with pytest.raises(ValueError, match="matrix is not nilpotent"):
        exp_nilpotent(ExactMatrix.identity(2))


# ----------------------------------------------------------------------
# filtrations and induced maps


def test_filtration_requires_nesting():
    with pytest.raises(ValueError, match="not nested between indices -1 and 0"):
        Filtration.from_generators(2, Filtration.INCREASING,
                                   [(-1, [[0, 1]]), (0, [[1, 0]])])


# about 0.01 s
def test_membership_compares_the_rows_off_the_pivots():
    # pivots 0 and 1, so row 2 is the one row a member is compared on
    U = Subspace.from_columns(3, [[1, 0, 2], [0, 1, 3]])
    full, zero = Subspace.full(3), Subspace.zero(3)
    member = ExactMatrix([[1], [1], [5]])
    line = Subspace.full(1)
    for off in ([[1], [1], [6]], [[1], [1], [Scalar(5, 1)]]):
        off = ExactMatrix(off)
        assert not U.contains(image(off))
        assert not maps_into(off, line, U)
        with pytest.raises(ValueError):
            matrix_between(off, line, U)
    assert U.contains(image(member)) and maps_into(member, line, U)
    assert matrix_between(member, line, U) == ExactMatrix([[1], [1]])
    M = ExactMatrix([[1, I, 0], [2, 0, Fraction(1, 3)], [0, 1, 1]])
    assert full.contains(U) and full.contains(zero) and zero.contains(zero)
    assert not zero.contains(U) and not U.contains(full)
    assert maps_into(M, full, full) and matrix_between(M, full, full) == M
    assert maps_into(M, zero, zero) and not maps_into(M, full, zero)
    assert maps_into(ExactMatrix.zeros(3, 3), full, zero)
    assert matrix_between(M, zero, U) == ExactMatrix.zeros(2, 0)


def test_filtration_saturates_outside_range():
    w = Filtration.from_generators(2, Filtration.INCREASING,
                                   [(-1, [[1, 0]]), (1, [[1, 0], [0, 1]])])
    assert w.step(-5) == Subspace.zero(2)
    assert w.step(0) == Subspace.from_columns(2, [[1, 0]])
    assert w.step(5) == Subspace.full(2)
    f = Filtration.from_generators(2, Filtration.DECREASING,
                                   [(0, [[1, 0], [0, 1]]), (1, [[0, 1]])])
    assert f.step(-3) == Subspace.full(2)
    assert f.step(2) == Subspace.zero(2)


def test_filtration_shift():
    w = Filtration.from_generators(2, Filtration.INCREASING,
                                   [(-1, [[1, 0]]), (1, [[1, 0], [0, 1]])])
    shifted = w.shift(1)
    for l in range(-4, 5):
        assert shifted.step(l) == w.step(l - 1)


def test_graded_dims_of_jordan_filtration():
    w = Filtration.from_generators(2, Filtration.INCREASING,
                                   [(-1, [[1, 0]]), (1, [[1, 0], [0, 1]])])
    assert [w.graded_dim(l) for l in (-1, 0, 1)] == [1, 0, 1]


def test_induced_map_on_graded_jordan():
    n = _jordan(2)
    w = Filtration.from_generators(2, Filtration.INCREASING,
                                   [(-1, [[1, 0]]), (1, [[1, 0], [0, 1]])])
    top_to_bottom = induced_map_on_graded(n, w, 1, shift=-2)
    assert top_to_bottom.rows == 1 and top_to_bottom.cols == 1
    assert rank(top_to_bottom) == 1


def test_induced_map_identity_is_identity_on_graded():
    w = Filtration.from_generators(2, Filtration.INCREASING,
                                   [(-1, [[1, 0]]), (1, [[1, 0], [0, 1]])])
    for l in (-1, 1):
        block = induced_map_on_graded(ExactMatrix.identity(2), w, l)
        assert block == ExactMatrix.identity(1)


def test_induced_map_onto_a_zero_graded_piece_is_0x0():
    # Gr_1 is a line but Gr_{-3} is zero; the 0x0 shape (not 0x1) is what
    # hodgestruct._primitive_polarized reads as a "trivial" primitive level
    w = Filtration.from_generators(2, Filtration.INCREASING,
                                   [(-1, [[1, 0]]), (1, [[1, 0], [0, 1]])])
    block = induced_map_on_graded(_jordan(2).power(2), w, 1, shift=-4)
    assert (block.rows, block.cols) == (0, 0)


def test_induced_map_zero_on_single_step():
    w = Filtration.from_generators(2, Filtration.INCREASING, [(0, [[1, 0], [0, 1]])])
    block = induced_map_on_graded(ExactMatrix.zeros(2, 2), w, 0, shift=0)
    assert block.is_zero()


def test_induced_filtration_on_graded_of_a_decreasing_filtration():
    W = Filtration.from_generators(3, Filtration.INCREASING,
                                   [(0, [[1, 0, 0]]), (2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])])
    F = Filtration.from_generators(3, Filtration.DECREASING, [
        (0, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        (1, [[1, 1, 0], [1, 0, 0]]),
        (2, [[1, 0, 0]]),
        (3, []),
    ])
    induced = induced_filtrations_on_graded(F, W, [2])[2]
    # F^2 dies in Gr_2 = W_2 / W_0, so it merges into F^3 (highest index kept)
    assert induced.direction == Filtration.DECREASING
    assert [(p, sub.dim) for p, sub in induced.steps] == [(0, 2), (1, 1), (3, 0)]
    assert induced == Filtration.from_generators(
        2, Filtration.DECREASING, [(0, [[1, 0], [0, 1]]), (1, [[1, 0]]), (3, [])])


def test_induced_filtration_on_graded_of_an_increasing_filtration():
    W = Filtration.from_generators(3, Filtration.INCREASING,
                                   [(0, [[1, 0, 0]]), (2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])])
    V = Filtration.from_generators(3, Filtration.INCREASING, [
        (-1, []),
        (0, [[1, 0, 1]]),
        (1, [[1, 0, 1], [1, 0, 0]]),
        (2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    ])
    induced = induced_filtrations_on_graded(V, W, [2])[2]
    # V_0 and V_1 agree modulo W_0, so they merge into V_0 (lowest index kept)
    assert induced.direction == Filtration.INCREASING
    assert [(p, sub.dim) for p, sub in induced.steps] == [(-1, 0), (0, 1), (2, 2)]
    assert induced.step(1) == Subspace.from_columns(2, [[0, 1]])
    assert induced.graded_range() == [0, 2]


# ----------------------------------------------------------------------
# differential tests: the integer kernels against a plain Fraction
# reference (Gauss-Jordan and products on (re, im) pairs of Fractions)

Pair = tuple[Fraction, Fraction]
_PZERO: Pair = (Fraction(0), Fraction(0))
_PONE: Pair = (Fraction(1), Fraction(0))


def _p(a: Scalar) -> Pair:
    return (a.re, a.im)


def _pmul(a: Pair, b: Pair) -> Pair:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _psub(a: Pair, b: Pair) -> Pair:
    return (a[0] - b[0], a[1] - b[1])


def _pinv(a: Pair) -> Pair:
    n = a[0] * a[0] + a[1] * a[1]
    return (a[0] / n, -a[1] / n)


def _nonzero(a: Pair) -> bool:
    return a != _PZERO


def _ref_rref(rows: list[list[Pair]]) -> tuple[list[list[Pair]], list[int]]:
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    pivots, r = [], 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if _nonzero(m[i][c])), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = _pinv(m[r][c])
        m[r] = [_pmul(e, inv) for e in m[r]]
        for i in range(len(m)):
            if i != r and _nonzero(m[i][c]):
                f = m[i][c]
                m[i] = [_psub(a, _pmul(f, b)) for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def _ref_matmul(A: list[list[Pair]], B: list[list[Pair]], width: int) -> list[list[Pair]]:
    out = []
    for arow in A:
        row = []
        for j in range(width):
            acc = _PZERO
            for a, brow in zip(arow, B):
                p = _pmul(a, brow[j])
                acc = (acc[0] + p[0], acc[1] + p[1])
            row.append(acc)
        out.append(row)
    return out


def _ref_kernel(rows: list[list[Pair]], ncols: int) -> list[list[Pair]]:
    """Canonical kernel basis, one list per basis vector."""
    red, pivots = _ref_rref(rows)
    gens = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [_PZERO] * ncols
        v[f] = _PONE
        for r, p in enumerate(pivots):
            v[p] = _psub(_PZERO, red[r][f])
        gens.append(v)
    return _ref_rref(gens)[0]


def _ref_det(rows: list[list[Pair]]) -> Pair:
    m = [list(r) for r in rows]
    det = _PONE
    for c in range(len(m)):
        pr = next((r for r in range(c, len(m)) if _nonzero(m[r][c])), None)
        if pr is None:
            return _PZERO
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            det = _psub(_PZERO, det)
        det = _pmul(det, m[c][c])
        inv = _pinv(m[c][c])
        for r in range(c + 1, len(m)):
            f = _pmul(m[r][c], inv)
            m[r] = [_psub(a, _pmul(f, b)) for a, b in zip(m[r], m[c])]
    return det


def _pairs(rows) -> list[list[Pair]]:
    return [[_p(a) for a in row] for row in rows]


def _columns(M: ExactMatrix) -> list[list[Pair]]:
    return [[_p(a) for a in col] for col in M.columns()]


# the values of st.fractions(-5, 5, max_denominator=7), each an integer over a
# denominator in 1-7, drawn as one index into their list (zero first)
_small = st.sampled_from(sorted(
    {Fraction(n, d) for d in range(1, 8) for n in range(-5 * d, 5 * d + 1)},
    key=lambda x: (abs(x), x)))
_large = st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**30))
_rationals = st.one_of(st.just(Fraction(0)), _small, _large)
_nonzero_rationals = st.one_of(_small, _large).filter(bool)


@st.composite
def _matrices(draw, rows=None, cols=None) -> ExactMatrix:
    """Rational or Gaussian matrices up to 5x5 (0xn and nx0 included), some
    with mostly-zero or zero-free rows, a zero row, a zero column, or a
    repeated or scaled row.  Products take dot products on a row with more
    nonzeros than zeros and accumulate over the nonzeros of any other row,
    so both kinds of row are drawn on purpose."""
    r = draw(st.integers(0, 5)) if rows is None else rows
    c = draw(st.integers(0, 5)) if cols is None else cols
    imag = _rationals if draw(st.booleans()) else st.just(Fraction(0))
    grid = []
    for _ in range(r):
        kind = draw(st.sampled_from(["any", "zero-free", "mostly-zero"]))
        real = _nonzero_rationals if kind == "zero-free" else _rationals
        row = [Scalar(draw(real), draw(imag)) for _ in range(c)]
        if kind == "mostly-zero" and c:
            keep = draw(st.integers(0, c - 1))
            row = [a if j == keep else ZERO for j, a in enumerate(row)]
        grid.append(row)
    if r and draw(st.booleans()):
        grid[draw(st.integers(0, r - 1))] = [ZERO] * c
    if c and draw(st.booleans()):
        j = draw(st.integers(0, c - 1))
        for row in grid:
            row[j] = ZERO
    if r > 1 and draw(st.booleans()):
        i, k = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
        factor = Scalar(draw(_small), draw(imag))
        grid[i] = [factor * a for a in grid[k]]
    return ExactMatrix(grid, cols=c)


_differential = settings(max_examples=100, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])


@_differential
@given(_matrices())
def test_row_reduce_matches_reference(M):
    red, pivots = _row_reduce(M.re, M.im)
    ref_red, ref_pivots = _ref_rref(_pairs(M.entries))
    assert pivots == ref_pivots
    assert _pairs(red.entries) == ref_red
    assert all(type(a) is Scalar and type(a.re) is Fraction and type(a.im) is Fraction
               for row in red.entries for a in row)


@st.composite
def _product_operands(draw):
    """(A, B, C, v, u, c): A times B, C shaped like A, v and u vectors for A, c a scalar."""
    inner = draw(st.integers(0, 5))
    A = draw(_matrices(cols=inner))
    B = draw(_matrices(rows=inner))
    C = draw(_matrices(rows=A.rows, cols=inner))
    v = draw(st.lists(st.builds(Scalar, _rationals, _rationals), min_size=inner,
                      max_size=inner))
    u = draw(st.lists(st.builds(Scalar, _rationals, _rationals), min_size=A.rows,
                      max_size=A.rows))
    c = draw(st.builds(Scalar, _rationals, _rationals))
    return A, B, C, v, u, c


def _zero_free_row_examples(test):
    """A zero-free row of each width 1-5, real and Gaussian, times a B with
    columns, so every run takes the dot-product path at every width."""
    for width in range(1, 6):
        for im in (0, 1):
            A = ExactMatrix([[Scalar(Fraction(j + 1, 2), im * (j + 2)) for j in range(width)]])
            B = ExactMatrix.from_function(
                width, 2, lambda i, j: Scalar(Fraction(i - j, 3), im * (i + j)))
            test = example((A, B, -A, [Scalar(1)] * width, [Scalar(3)], Scalar(2)))(test)
    return test


@_differential
@given(_product_operands())
@_zero_free_row_examples
def test_products_match_reference(operands):
    A, B, C, v, u, c = operands
    assert _pairs((A @ B).entries) == _ref_matmul(_pairs(A.entries), _pairs(B.entries), B.cols)
    assert [_p(a) for a in A.apply(v)] == [row[0] for row in _ref_matmul(
        _pairs(A.entries), [[_p(x)] for x in v], 1)]
    a_pairs, c_pairs = _pairs(A.entries), _pairs(C.entries)
    assert _pairs((A + C).entries) == [[(x[0] + y[0], x[1] + y[1]) for x, y in zip(r, s)]
                                       for r, s in zip(a_pairs, c_pairs)]
    assert _pairs((A - C).entries) == [[_psub(x, y) for x, y in zip(r, s)]
                                       for r, s in zip(a_pairs, c_pairs)]
    assert _pairs(A.scale(c).entries) == [[_pmul(_p(c), x) for x in r] for r in a_pairs]
    uAv = _PZERO
    for x, row in zip(u, _ref_matmul(a_pairs, [[_p(y)] for y in v], 1)):
        p = _pmul(_p(x), row[0])
        uAv = (uAv[0] + p[0], uAv[1] + p[1])
    assert _p(bilinear(A, u, v)) == uAv
    b_pairs = _pairs(B.entries)
    assert (A.transpose().rows, A.transpose().cols) == (A.cols, A.rows)
    assert _pairs(A.transpose().entries) == [[a_pairs[i][j] for i in range(A.rows)]
                                             for j in range(A.cols)]
    assert _pairs(A.conjugate().entries) == [[(x[0], -x[1]) for x in r] for r in a_pairs]
    assert _pairs((-A).entries) == [[(-x[0], -x[1]) for x in r] for r in a_pairs]
    assert _pairs(A.hstack(C).entries) == [r + s for r, s in zip(a_pairs, c_pairs)]
    assert _pairs(A.hstack(C, A).entries) == [r + s + r for r, s in zip(a_pairs, c_pairs)]
    stacked = vstack([A, C])
    assert (stacked.rows, stacked.cols) == (2 * A.rows, A.cols)
    assert _pairs(stacked.entries) == a_pairs + c_pairs
    product = kron(A, B)
    assert (product.rows, product.cols) == (A.rows * B.rows, A.cols * B.cols)
    assert _pairs(product.entries) == [[_pmul(x, y) for x in ar for y in br]
                                       for ar in a_pairs for br in b_pairs]
    diag = block_diag([A, B])
    assert (diag.rows, diag.cols) == (A.rows + B.rows, A.cols + B.cols)
    assert _pairs(diag.entries) == ([r + [_PZERO] * B.cols for r in a_pairs]
                                    + [[_PZERO] * A.cols + r for r in b_pairs])
    assert A.is_zero() == (not any(_nonzero(x) for r in a_pairs for x in r))
    assert (A == C) == (a_pairs == c_pairs)
    for same in (ExactMatrix(A.entries, cols=A.cols), (A + C) - C, -(-A)):
        assert same == A and hash(same) == hash(A)


def _glue_matrix(rng: random.Random, rows: int, cols: int) -> ExactMatrix:
    """A real or Gaussian matrix whose entries are over denominators of its
    own (1, 2 and 3, 5 and 7, or a large prime), a third of them zero."""
    dens = rng.choice([(1,), (2, 3), (5, 7), (10**12 + 39,)])
    imag = rng.random() < 0.5

    def entry() -> Scalar:
        if rng.random() < 0.3:
            return ZERO
        return Scalar(Fraction(rng.randint(-9, 9), rng.choice(dens)),
                      Fraction(rng.randint(-9, 9), rng.choice(dens)) if imag else 0)

    return ExactMatrix([[entry() for _ in range(cols)] for _ in range(rows)], cols=cols)


def _glue_cases():
    """(A, B, C, D, k): B shaped like A, C with A's rows, D with A's columns
    and k an int.  Fixed cases first (mixed denominators with a real and a
    Gaussian operand, 0-row and 0-column shapes, the scales 0, 1 and -1),
    then seeded random ones with shapes down to 0x0."""
    half = ExactMatrix([[Fraction(1, 2), 0, 3], [0, Fraction(-1, 3), 1]])
    gaussian = ExactMatrix([[Scalar(Fraction(1, 6), 1), 0, 2], [I, 0, Fraction(5, 7)]])
    whole = ExactMatrix([[1, -2, 0], [4, 0, 1]])
    for k in (0, 1, -1, -3):
        yield half, gaussian, whole, gaussian, k
        yield whole, whole, half, whole, k
    yield ExactMatrix.zeros(0, 3), ExactMatrix.zeros(0, 3), ExactMatrix.zeros(0, 2), half, -2
    yield ExactMatrix.zeros(2, 0), ExactMatrix.zeros(2, 0), gaussian, ExactMatrix.zeros(3, 0), 0
    rng = random.Random(25)
    for _ in range(200):
        rows, cols = rng.randint(0, 4), rng.randint(0, 4)
        yield (_glue_matrix(rng, rows, cols), _glue_matrix(rng, rows, cols),
               _glue_matrix(rng, rows, rng.randint(0, 4)),
               _glue_matrix(rng, rng.randint(0, 4), cols),
               rng.choice([0, 1, -1, rng.randint(-9, 9), rng.randint(-10**20, 10**20)]))


def test_sums_stacks_and_int_scales_match_reference_and_leave_their_inputs_alone():
    """+, -, hstack, vstack and scale(int), whose results may share rows with
    their inputs: every result equals the Fraction reference and the matrix
    built fresh from it, and after each result is row-reduced every input
    keeps its hash and its rows (about 0.15 s)."""
    for A, B, C, D, k in _glue_cases():
        inputs = [(M, hash(M), M.den, [list(r) for r in M.re],
                   None if M.im is None else [list(r) for r in M.im]) for M in (A, B, C, D)]
        a, b, c, d = (_pairs(M.entries) for M in (A, B, C, D))
        expected = {
            "A + B": [[(x[0] + y[0], x[1] + y[1]) for x, y in zip(r, s)] for r, s in zip(a, b)],
            "A - B": [[_psub(x, y) for x, y in zip(r, s)] for r, s in zip(a, b)],
            "A | C": [r + s for r, s in zip(a, c)],
            "A | C | A": [r + s + r for r, s in zip(a, c)],
            "A / D / B": a + d + b,
            "k A": [[(k * x[0], k * x[1]) for x in r] for r in a],
        }
        got = {"A + B": A + B, "A - B": A - B, "A | C": A.hstack(C),
               "A | C | A": A.hstack(C, A), "A / D / B": vstack([A, D, B]), "k A": A.scale(k)}
        for name, M in got.items():
            assert _pairs(M.entries) == expected[name], name
            fresh = ExactMatrix(M.entries, cols=M.cols)
            assert (M.rows, M.cols) == (fresh.rows, fresh.cols) and M == fresh, name
            assert hash(M) == hash(fresh), name
            rank(M)
        assert A.scale(k) == A.scale(Scalar(k))
        for M, h, den, re, im in inputs:
            assert (hash(M), M.den, M.re, M.im) == (h, den, re, im)


@_differential
@given(st.data())
def test_contains_vector_matches_reference(data):
    gens = data.draw(_matrices())
    n = gens.cols
    V = Subspace.from_columns(n, gens.entries)
    v = data.draw(st.lists(st.builds(Scalar, _rationals, _rationals), min_size=n, max_size=n))
    w = [_p(a) for a in v]
    for j, p in enumerate(V.pivots()):
        c = w[p]
        if _nonzero(c):
            col = _columns(V.basis)[j]
            w = [_psub(a, _pmul(c, b)) for a, b in zip(w, col)]
    assert V.contains_vector(v) == (not any(map(_nonzero, w)))
    for col in V.basis_columns():
        assert V.contains_vector(col)


@_differential
@given(st.data())
def test_contains_and_matrix_between_agree_with_vectorwise_checks(data):
    n = data.draw(st.integers(1, 5))
    V = Subspace.from_columns(n, data.draw(_matrices(cols=n)).entries)
    W = Subspace.from_columns(n, data.draw(_matrices(cols=n)).entries)
    M = data.draw(_matrices(rows=n, cols=n))
    assert V.contains(W) == all(V.contains_vector(c) for c in W.basis_columns())
    images = [M.apply(c) for c in V.basis_columns()]
    for U in (W, apply_to_subspace(M, V)):
        assert maps_into(M, V, U) == all(U.contains_vector(w) for w in images)
        if all(U.contains_vector(w) for w in images):
            X = matrix_between(M, V, U)
            assert (X.rows, X.cols) == (U.dim, V.dim)
            assert X.columns() == [U.coordinates(w) for w in images]
        else:
            with pytest.raises(ValueError):
                matrix_between(M, V, U)


@_differential
@given(_matrices())
def test_kernel_matches_reference(M):
    K = kernel(M)
    assert _columns(K.basis) == _ref_kernel(_pairs(M.entries), M.cols)
    assert list(K.pivots()) == [next(i for i, a in enumerate(c) if _nonzero(a))
                                for c in _columns(K.basis)]


@_differential
@given(st.data())
def test_meet_matches_reference(data):
    """span(G) ∩ ker(M) = {G^T c : M G^T c = 0} for the rows G that span V,
    with the null space and the canonical basis from the Fraction reference."""
    n = data.draw(st.integers(1, 5))
    G = data.draw(_matrices(cols=n))
    M = data.draw(_matrices(cols=n))
    gens_t = [[row[i] for row in _pairs(G.entries)] for i in range(n)]
    coefficients = _ref_kernel(_ref_matmul(_pairs(M.entries), gens_t, G.rows), G.rows)
    spanned = [[row[0] for row in _ref_matmul(gens_t, [[c] for c in x], 1)]
               for x in coefficients]
    expected = _ref_rref(spanned)[0] if spanned else []
    assert _columns(meet(Subspace.from_columns(n, G.entries), M).basis) == expected


@_differential
@given(st.integers(0, 5).flatmap(lambda n: _matrices(rows=n, cols=n)))
def test_determinant_and_inverse_match_reference(M):
    n = M.rows
    det = _ref_det(_pairs(M.entries))
    assert _p(determinant(M)) == det
    if det == _PZERO:
        with pytest.raises(ValueError):
            inverse(M)
        return
    aug = [row + [_PONE if i == j else _PZERO for j in range(n)]
           for i, row in enumerate(_pairs(M.entries))]
    red, _ = _ref_rref(aug)
    assert _pairs(inverse(M).entries) == [row[n:] for row in red]


def test_no_module_imports_an_exactla_name_it_never_uses():
    """A deleted or renamed exactla helper cannot leave a stale import behind."""
    stale = []
    for path in sorted(Path(limithodge.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "exactla":
                stale += [f"{path.name}: {alias.asname or alias.name}" for alias in node.names
                          if (alias.asname or alias.name) not in used]
    assert stale == []


def test_hash_is_kept_and_matches_an_equal_matrix_built_fresh():
    M = ExactMatrix([[Fraction(1, 2), I], [3, 0]])
    first = hash(M)
    assert hash(M) == first
    assert hash(ExactMatrix(M.entries)) == first
    assert hash(M.transpose().transpose()) == first
    assert {M: 1}[ExactMatrix([[Fraction(1, 2), I], [3, 0]])] == 1
