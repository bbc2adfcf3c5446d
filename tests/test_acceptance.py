"""End-to-end acceptance checks: one test per shipped guarantee.

Each test states a full-strength property of the public API — exact
arithmetic where the contract is exact, stated tolerances where it is
numeric — over randomized or exhaustive input families.  Run with
``pytest -v tests/test_acceptance.py`` for one verdict line per item.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np

from limithodge.dbar import (
    FourierForm,
    RadialGrid,
    bound_corpus,
    dbar_residual,
    integrability_oracle,
    solve_dbar_01,
    verify_bound,
)
from limithodge.datum import MonodromyDatum, standard_corpus
from limithodge.exactla import (
    ExactMatrix,
    Scalar,
    apply_to_subspace,
    induced_map_on_graded,
    inverse,
    rank,
)
from limithodge.growth import (
    D_EPS,
    D_EPS_PRIME,
    hodge_norm_class,
    ordered_alpha_basis,
    ordering_change,
    section_from_datum,
    theta_apply_class,
    transpose_keys,
)
from limithodge.l2complex import (
    build_stalk_complex,
    classify_l2,
    hypercohomology,
    total_cohomology,
    truncated_global_model,
    two_chart_cover,
)
from limithodge.sl2rep import (
    alpha_basis,
    build_model,
    direct_sum_models,
    isotypic_decomposition,
    transport_model,
)
from limithodge.weightfilt import WeightFiltration, cone_filtration, monodromy_weight_filtration


# ----------------------------------------------------------------------
# shared randomized builders


def _random_integer_conjugator(rng: random.Random, dim: int) -> ExactMatrix:
    """A random product of integer shears: invertible with an exact inverse."""
    entries = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    for _ in range(2 * dim):
        i, j = rng.randrange(dim), rng.randrange(dim)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for col in range(dim):
            entries[i][col] += c * entries[j][col]
    return ExactMatrix(entries)


def _random_jordan_type(rng: random.Random, dim: int) -> ExactMatrix:
    entries = [[0] * dim for _ in range(dim)]
    pos = 0
    while pos < dim:
        part = rng.randint(1, dim - pos)
        for i in range(pos, pos + part - 1):
            entries[i][i + 1] = 1
        pos += part
    return ExactMatrix(entries)


def _axioms_hold(N: ExactMatrix, W: WeightFiltration) -> bool:
    """Both defining properties, re-verified without library internals."""
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


def _random_assembly(rng: random.Random):
    """A transported direct sum of known factors plus the expected tags."""
    weight = rng.randint(1, 4)
    kinds = ["S", "E"] + (["H"] if weight >= 2 else [])
    count = rng.randint(1, 3)
    summands = []
    expected = []
    for _ in range(count):
        kind = rng.choice(kinds)
        if kind == "S":
            m = rng.randint(0, weight)
            n = weight - m
            summands.append(build_model("S", m, n))
            expected.append(("S", m, n, 0))
        elif kind == "H":
            l = rng.randint(1, weight // 2)
            rest = weight - 2 * l
            m = rng.randint(0, rest)
            n = rest - m
            summands.append(build_model("H", m, n, l=l))
            expected.append(("H", m, n, l))
        else:
            p = rng.randint(1, weight)
            q = rng.randint(0, min(p - 1, weight - p))
            rest = weight - p - q
            m = rng.randint(0, rest)
            n = rest - m
            summands.append(build_model("E", m, n, p=p, q=q))
            expected.append(("E", m, n, p, q))
    model = direct_sum_models(summands)
    model = transport_model(model, _random_integer_conjugator(rng, model.dim))
    return model, expected


def _bilinear(u, S: ExactMatrix, v) -> Scalar:
    total = Scalar(0)
    for a, b in zip(u, S.apply(v)):
        total = total + a * b
    return total


# ----------------------------------------------------------------------
# the ten acceptance properties


def test_weight_filtration_axioms_hold_on_randomized_nilpotents():
    rng = random.Random(2026)
    start = time.monotonic()
    for _ in range(200):
        dim = rng.randint(1, 8)
        jordan = _random_jordan_type(rng, dim)
        p = _random_integer_conjugator(rng, dim)
        nilpotent = p @ jordan @ inverse(p)
        w = monodromy_weight_filtration(nilpotent)
        assert _axioms_hold(nilpotent, w)
    assert time.monotonic() - start < 30.0


def test_cone_filtration_is_independent_of_positive_coefficients():
    rng = random.Random(2027)
    shapes = ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1))
    pairs = []
    for m, n in shapes:
        base = build_model("S", m, n)
        for _ in range(10):
            model = transport_model(
                base, _random_integer_conjugator(rng, base.dim))
            pairs.append(model.action.nminus)
    assert len(pairs) == 50
    for n1, n2 in pairs:
        baseline = cone_filtration([n1, n2], [1, 1])
        for _ in range(10):
            lam = [rng.randint(1, 12), rng.randint(1, 12)]
            w = cone_filtration([n1, n2], lam)
            assert w == baseline
            levels = baseline.filtration.graded_range()
            for l in range(min(levels), max(levels) + 1):
                assert w.step(l).basis_columns() == baseline.step(l).basis_columns()


def test_decomposition_recovers_assembled_factor_multisets():
    rng = random.Random(2028)
    for _ in range(30):
        model, expected = _random_assembly(rng)
        factors = isotypic_decomposition(
            model.bigrading, model.action, model.polarization)
        assert sorted(f.params() for f in factors) == sorted(expected)
        assert sum(f.dim for f in factors) == model.dim
        for i, f in enumerate(factors):
            for g in factors[i + 1:]:
                for u in f.subspace().basis_columns():
                    for v in g.subspace().basis_columns():
                        assert not _bilinear(u, model.polarization, v)


def test_hodge_norm_exponents_match_the_closed_form():
    for m in range(5):
        for n in range(5):
            model = build_model("S", m, n)
            factor = isotypic_decomposition(model.bigrading, model.action)[0]
            alphas = alpha_basis(factor, model.action)
            n1, n2 = model.action.nminus
            assert set(alphas) == {(k, l) for k in range(m + 1) for l in range(n + 1)}
            for (k, l), vec in alphas.items():
                cls = hodge_norm_class(section_from_datum(vec, n1, n2), D_EPS)
                assert cls.log_exps == (2 * k - m, 2 * l - n)


def test_higgs_action_is_bounded_on_both_regions():
    nonzero = 0
    for m in range(5):
        for n in range(5):
            model = build_model("S", m, n)
            factor = isotypic_decomposition(model.bigrading, model.action)[0]
            alphas = alpha_basis(factor, model.action)
            n1, n2 = model.action.nminus
            for vec in alphas.values():
                s = section_from_datum(vec, n1, n2)
                for direction in (1, 2):
                    for region in (D_EPS, D_EPS_PRIME):
                        tc = theta_apply_class(s, direction, n1, n2, region)
                        if tc.zero:
                            continue
                        nonzero += 1
                        assert tc.bounded, (m, n, direction, region)
    assert nonzero > 0


def test_classifier_matches_quadrature_oracle_on_the_full_grid():
    start = time.monotonic()
    cells = 0
    for component in (frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})):
        for n1 in (0, 1):
            for n2 in (0, 1):
                for l1 in range(-4, 5):
                    for l2 in range(-4, 5):
                        verdict = classify_l2(component, n1, n2, l1, l2)
                        oracle = integrability_oracle(
                            component, n1, n2, l1, l2, epsilon=0.1)
                        assert oracle.as_tuple() == (
                            verdict.is_l2_d_eps,
                            verdict.is_l2_d_eps_prime,
                            verdict.is_l2,
                        ), (component, n1, n2, l1, l2)
                        cells += 1
    assert cells == 1296
    assert time.monotonic() - start < 300.0


def test_stalk_model_agrees_with_truncated_global_model():
    corpus = standard_corpus()
    assert [d.label for d in corpus] == [
        "trivial", "jordan2-t1", "jordan2-t2", "s11", "s21",
        "End(jordan2-t1)", "End(s11)",
    ]
    for datum in corpus:
        stalk = hypercohomology(build_stalk_complex(datum))
        for degree in (2, 3, 4):
            assert truncated_global_model(datum, degree) == stalk, (datum.label, degree)
    assert hypercohomology(build_stalk_complex(corpus[0])) == (1, 0, 0)


def test_ordering_transitions_are_triangular_in_both_directions():
    shapes = [(m, n, c) for m in (1, 2, 3) for n in (1, 2, 3) for c in (0, 1)]
    shapes += [(2, 2, 2), (3, 3, 2)]
    assert len(shapes) == 20
    for m, n, c in shapes:
        model = build_model("S", m, n)
        n1, n2 = model.action.nminus
        op1 = n1 + n2.scale(c) if c else n1
        basis_a = ordered_alpha_basis(op1, n2)
        basis_b = transpose_keys(ordered_alpha_basis(n2, op1))
        for rep in (ordering_change(basis_a, basis_b),
                    ordering_change(basis_b, basis_a)):
            assert rep["supported"] is True
            assert rep["violations"] == []
            for (k, l), row in rep["transition"].items():
                for (kp, lp), coeff in row.items():
                    if coeff:
                        assert kp <= k and lp <= l, (m, n, c, (k, l), (kp, lp))


def test_corner_solver_meets_residual_and_stability_targets():
    from limithodge.dbar import _gradient_pair

    coarse = RadialGrid()
    fine = RadialGrid(n=512)

    def suite(grid: RadialGrid):
        cases = bound_corpus(grid)
        members = []
        top = math.log(grid.a)
        for index, case in enumerate(cases):
            phi = case.phi
            if index % 5 == 4:
                # every fifth member carries a second mode
                extra1, extra2, _ = _gradient_pair(
                    grid, (2, 1), (top - 4.0, top - 4.5), (0.75, 0.7), 0.7)
                f1 = dict(phi.components[0])
                f2 = dict(phi.components[1])
                assert not (set(f1) & set(extra1)) and not (set(f2) & set(extra2))
                f1.update(extra1)
                f2.update(extra2)
                phi = FourierForm(1, grid, (f1, f2))
            members.append((case, phi))
        return members

    coarse_suite = suite(coarse)
    fine_suite = suite(fine)
    assert len(coarse_suite) == 25
    assert len({case.corner for case, _ in coarse_suite}) == 4
    uncovered = [case for case, _ in coarse_suite if not case.covered]
    assert len(uncovered) >= 5

    for (case, phi), (_, phi_fine) in zip(coarse_suite, fine_suite):
        u = solve_dbar_01(phi, case.bundle)
        residual = dbar_residual(u, phi)
        assert residual < 1e-6, (case.label, residual)
        c_coarse = verify_bound(phi, u, case.bundle)
        u_fine = solve_dbar_01(phi_fine, case.bundle)
        c_fine = verify_bound(phi_fine, u_fine, case.bundle)
        assert math.isfinite(c_coarse) and math.isfinite(c_fine)
        assert abs(c_fine - c_coarse) / c_coarse < 0.1, (case.label, c_coarse, c_fine)


def test_two_chart_cover_computes_global_cohomology():
    rng = random.Random(2029)
    for index in range(10):
        model, _ = _random_assembly(rng)
        datum = MonodromyDatum.from_model(model, label=f"random-{index}")
        complex_ = build_stalk_complex(datum)
        h = hypercohomology(complex_)
        total = total_cohomology(two_chart_cover(complex_))
        width = max(len(total), 3)
        lhs = tuple(total) + (0,) * (width - len(total))
        rhs = h + (0,) * (width - 3)
        assert lhs == rhs, datum.label
