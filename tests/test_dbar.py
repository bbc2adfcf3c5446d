from __future__ import annotations

import math
import random

import numpy as np
import pytest

from limithodge.dbar import (
    DbarCase,
    ExcludedExponent,
    FourierForm,
    IncompatibleInput,
    RadialGrid,
    WeightedLineBundle,
    _antiderivative,
    bound_corpus,
    check_integrability,
    dbar_residual,
    gaussian_profile,
    hormander_region,
    integrability_oracle,
    monomial_profile,
    parse_case,
    path_corner,
    sample_case,
    sample_mode,
    solve_dbar_01,
    solve_dbar_02,
    verify_bound,
    weighted_norm,
)
from limithodge.l2complex import classify_l2

_GRID = RadialGrid()


def _bump_center(grid: RadialGrid) -> tuple[float, float]:
    top = math.log(grid.a)
    return top - 4.0, top - 4.5


def test_grid_layout():
    g = _GRID
    assert g.n == 256
    assert g.a == pytest.approx(math.exp(-1.0))
    assert g.r[-1] == pytest.approx(g.a)
    assert np.all(np.diff(g.r) > 0)
    assert np.allclose(np.diff(g.log_r), g.h)


def test_grid_rejects_bad_parameters():
    with pytest.raises(ValueError):
        RadialGrid(n=4)
    with pytest.raises(ValueError):
        RadialGrid(a=1.5)


def test_constant_data_give_polynomial_solution():
    phi = FourierForm(1, _GRID, ({}, {(0, 0): np.ones((_GRID.n, _GRID.n))}))
    assert check_integrability(phi)
    u = solve_dbar_01(phi, WeightedLineBundle(0.0, 0.0))
    assert set(u.components[0]) == {(0, -1)}
    assert dbar_residual(u, phi) < 1e-10
    # the exact answer up to the homogeneous deficit from truncating the
    # zero-start leg at the inner grid edge
    rmin = _GRID.r[0]
    expected = _GRID.r[None, :] - rmin ** 2 / _GRID.r[None, :]
    prof = u.components[0][(0, -1)]
    assert np.max(np.abs(prof - np.broadcast_to(expected, prof.shape))) < 1e-12


def test_gaussian_gradient_recovers_its_potential():
    c1, c2 = _bump_center(_GRID)
    w1, w2 = 0.6, 0.55
    B = sample_mode(_GRID, gaussian_profile((c1, c2), (w1, w2)))
    r1, r2 = _GRID.r[:, None], _GRID.r[None, :]
    x1, x2 = _GRID.log_r[:, None], _GRID.log_r[None, :]
    potential = r1 * r2 * B
    f1 = r2 * B * (1.0 - (x1 - c1) / (2 * w1 ** 2))
    f2 = r1 * B * (1.0 - (x2 - c2) / (2 * w2 ** 2))
    phi = FourierForm(1, _GRID, ({(0, -1): f1}, {(-1, 0): f2}))
    assert check_integrability(phi)
    u = solve_dbar_01(phi, WeightedLineBundle(0.5, 0.5))
    assert dbar_residual(u, phi) < 1e-6
    got = u.components[0][(-1, -1)]
    assert np.max(np.abs(got - potential)) / np.max(np.abs(potential)) < 1e-6


def test_incompatible_data_rejected():
    B = sample_mode(_GRID, gaussian_profile(_bump_center(_GRID), (0.6, 0.55)))
    lone = FourierForm(1, _GRID, ({(0, 0): B}, {}))
    assert not check_integrability(lone)
    with pytest.raises(IncompatibleInput):
        solve_dbar_01(lone, WeightedLineBundle(0.0, 0.0))


def test_generated_pairs_satisfy_the_identity():
    from limithodge.dbar import _compatibility_residual, _gradient_pair

    for mode in ((2, -3), (-1, 0), (0, 0)):
        f1, f2, _ = _gradient_pair(_GRID, mode, _bump_center(_GRID), (0.6, 0.55), 1.0)
        pair = FourierForm(1, _GRID, (f1, f2))
        assert _compatibility_residual(pair) < 1e-8, mode


def test_path_corner_rule():
    a = _GRID.a
    assert path_corner(-1, 0, 0.5, 0.5, a) == (0.0, a)
    assert path_corner(1, 1, 0.5, 0.5, a) == (a, a)
    assert path_corner(-1, -1, 2.0, 2.0, a) == (0.0, 0.0)
    assert path_corner(0, 0, 2.0, 2.0, a) == (0.0, 0.0)
    assert path_corner(0, 0, 2.0, 0.5, a) == (0.0, a)
    assert path_corner(0, 0, 0.5, 2.0, a) == (a, 0.0)


def test_path_corner_excludes_exponent_one_at_mode_zero():
    with pytest.raises(ExcludedExponent):
        path_corner(0, 1, 1.0, 0.0, _GRID.a)
    # nonzero modes never consult the exponent
    assert path_corner(2, 1, 1.0, 1.0, _GRID.a) == (_GRID.a, _GRID.a)


def test_solver_refuses_exponent_one():
    phi = FourierForm(1, _GRID, ({}, {(0, 0): np.ones((_GRID.n, _GRID.n))}))
    with pytest.raises(ExcludedExponent):
        solve_dbar_01(phi, WeightedLineBundle(1.0, 0.0))


def test_mixed_corner_with_zero_start_edge_leg():
    """Closed form across the (0, A) corner: u = r1 r2^3 at mode (-2, 1)."""
    r1, r2 = _GRID.r[:, None], _GRID.r[None, :]
    f1 = np.broadcast_to(1.5 * r2 ** 3, (_GRID.n, _GRID.n)).copy()
    f2 = r1 * r2 ** 2
    phi = FourierForm(1, _GRID, ({(-1, 1): f1}, {(-2, 2): f2}))
    assert check_integrability(phi)
    bundle = WeightedLineBundle(2.0, 0.5)
    assert path_corner(-2, 1, bundle.k, bundle.l, _GRID.a) == (0.0, _GRID.a)
    u = solve_dbar_01(phi, bundle)
    assert set(u.components[0]) == {(-2, 1)}
    assert dbar_residual(u, phi) < 1e-6
    rmin, a = _GRID.r[0], _GRID.a
    model = r1 * r2 ** 3 - rmin ** 3 * a ** 2 * r2 / r1 ** 2
    got = u.components[0][(-2, 1)]
    assert np.max(np.abs(got - model)) / np.max(np.abs(model)) < 1e-12


def test_mixed_corner_with_outer_edge_leg():
    """Closed form across the (A, 0) corner: u = r1^3 r2^2 at mode (1, -1)."""
    r1, r2 = _GRID.r[:, None], _GRID.r[None, :]
    f1 = r1 ** 2 * r2 ** 2
    f2 = 1.5 * r1 ** 3 * r2
    phi = FourierForm(1, _GRID, ({(2, -1): f1}, {(1, 0): f2}))
    assert check_integrability(phi)
    bundle = WeightedLineBundle(0.5, 0.5)
    assert path_corner(1, -1, bundle.k, bundle.l, _GRID.a) == (_GRID.a, 0.0)
    u = solve_dbar_01(phi, bundle)
    assert set(u.components[0]) == {(1, -1)}
    assert dbar_residual(u, phi) < 1e-6
    rmin, a = _GRID.r[0], _GRID.a
    model = r1 ** 3 * r2 ** 2 - a ** 2 * rmin ** 3 * r1 / r2
    got = u.components[0][(1, -1)]
    assert np.max(np.abs(got - model)) / np.max(np.abs(model)) < 1e-12


def test_degree_two_solver_branches():
    B = sample_mode(_GRID, gaussian_profile(_bump_center(_GRID), (0.6, 0.55)))
    bundle = WeightedLineBundle(0.5, 0.5)
    zero = solve_dbar_02(FourierForm.zero(2, _GRID), bundle)
    assert zero.is_zero()

    phi = FourierForm(2, _GRID, ({(3, -2): B},))
    psi = solve_dbar_02(phi, bundle)
    assert set(psi.components[0]) == {(3, -3)}
    assert set(psi.components[1]) == {(2, -2)}
    assert dbar_residual(psi, phi) < 1e-6

    with pytest.raises(ExcludedExponent):
        solve_dbar_02(phi, WeightedLineBundle(1.0, 0.0))


def test_degree_two_outer_start_vanishes_at_edge():
    B = sample_mode(_GRID, gaussian_profile(_bump_center(_GRID), (0.6, 0.55)))
    phi = FourierForm(2, _GRID, ({(1, 2): B},))
    psi = solve_dbar_02(phi, WeightedLineBundle(0.5, 2.0))
    assert (0, 2) in psi.components[1]
    assert dbar_residual(psi, phi) < 1e-6
    # m = 0 with k < 1 starts the first-coordinate leg at the outer edge
    u2 = psi.components[1][(0, 2)]
    assert np.max(np.abs(u2[-1, :])) < 1e-12


def test_verify_bound_behaviour():
    from limithodge.dbar import _gradient_pair

    bundle = WeightedLineBundle(0.5, 0.5)
    assert math.isnan(
        verify_bound(FourierForm.zero(1, _GRID), FourierForm.zero(0, _GRID), bundle))

    f1, f2, _ = _gradient_pair(_GRID, (-1, 0), _bump_center(_GRID), (0.6, 0.55), 1.0)
    phi = FourierForm(1, _GRID, (f1, f2))
    u = solve_dbar_01(phi, bundle)
    with pytest.raises(ExcludedExponent):
        verify_bound(phi, u, WeightedLineBundle(1.0, 0.5))
    C = verify_bound(phi, u, bundle)
    assert math.isfinite(C) and C > 0

    fine = RadialGrid(n=512)
    g1, g2, _ = _gradient_pair(fine, (-1, 0), _bump_center(fine), (0.6, 0.55), 1.0)
    phi_f = FourierForm(1, fine, (g1, g2))
    u_f = solve_dbar_01(phi_f, bundle)
    C_f = verify_bound(phi_f, u_f, bundle)
    assert abs(C_f - C) / C < 0.1


def test_weighted_norm_scales_quadratically():
    B = sample_mode(_GRID, gaussian_profile(_bump_center(_GRID), (0.6, 0.55)))
    bundle = WeightedLineBundle(0.5, -1.0)
    phi = FourierForm(1, _GRID, ({(0, -1): B}, {}))
    doubled = FourierForm(1, _GRID, ({(0, -1): 2.0 * B}, {}))
    n1 = weighted_norm(phi, bundle)
    n2 = weighted_norm(doubled, bundle)
    assert n1 > 0
    assert n2 == pytest.approx(4.0 * n1, rel=1e-12)


def test_hormander_region_closed_forms():
    for k in (-2.0, -0.5, 0.5, 2.0):
        for l in (-2.0, -0.5, 0.5, 2.0):
            assert hormander_region(0, 1, k, l) == (-max(k, l) > 0)
            assert hormander_region(0, 2, k, l) is False
            assert hormander_region(2, 2, k, l) == (k + l > 0)
    with pytest.raises(ValueError):
        hormander_region(3, 0, 0.0, 0.0)


def test_oracle_pinned_verdicts():
    v = integrability_oracle(frozenset(), 0, 0, 0, -2)
    assert v.as_tuple() == (True, False, False)
    assert integrability_oracle({1}, 1, 0, 0, 0).is_l2 is True
    assert integrability_oracle({1}, 0, 0, 0, 0).is_l2_d_eps is False
    with pytest.raises(ValueError):
        integrability_oracle({3}, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        integrability_oracle(set(), -1, 0, 0, 0)


def test_oracle_agrees_with_classifier_on_sample():
    rng = random.Random(7)
    pool = [frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})]
    for _ in range(40):
        comp = rng.choice(pool)
        n1, n2 = rng.randrange(0, 2), rng.randrange(0, 2)
        l1, l2 = rng.randrange(-4, 5), rng.randrange(-4, 5)
        verdict = classify_l2(comp, n1, n2, l1, l2)
        oracle = integrability_oracle(comp, n1, n2, l1, l2, epsilon=0.1)
        assert oracle.as_tuple() == (
            verdict.is_l2_d_eps,
            verdict.is_l2_d_eps_prime,
            verdict.is_l2,
        ), (comp, n1, n2, l1, l2)


def test_bound_corpus_inventory():
    cases = bound_corpus()
    assert len(cases) == 25
    assert len({case.label for case in cases}) == 25
    assert len({case.corner for case in cases}) == 4
    assert sum(not case.covered for case in cases) >= 5
    exponents = {(case.bundle.k, case.bundle.l) for case in cases}
    assert len(exponents) == 25
    assert all(case.reference.shape == (256, 256) for case in cases)


def test_bound_corpus_case_solves():
    case = bound_corpus()[0]
    assert isinstance(case, DbarCase)
    u = solve_dbar_01(case.phi, case.bundle)
    assert dbar_residual(u, case.phi) < 1e-6
    got = u.components[0][case.mode]
    scale = np.max(np.abs(case.reference))
    assert np.max(np.abs(got - case.reference)) / scale < 1e-5


def _sampled(data):
    spec = parse_case(data)
    return spec.bundle, sample_case(spec)


def test_case_from_json_constant():
    bundle, phi = _sampled(
        {
            "k": 0.5,
            "l": -1.0,
            "modes": [
                {"m": 0, "n": 0, "component": 2, "profile": "poly",
                 "params": {"powers": [0, 0]}},
            ],
        }
    )
    assert (bundle.k, bundle.l) == (0.5, -1.0)
    u = solve_dbar_01(phi, bundle)
    assert dbar_residual(u, phi) < 1e-10


def test_case_from_json_monomial_pair_closed_form():
    bundle, phi = _sampled(
        {
            "k": -1.0,
            "l": 0.5,
            "modes": [
                {"m": 3, "n": -1, "component": 1, "profile": "poly",
                 "params": {"powers": [2, 1], "amplitude": 0.5}},
                {"m": 2, "n": 0, "component": 2, "profile": "poly",
                 "params": {"powers": [3, 0], "amplitude": 1.0}},
            ],
        }
    )
    grid = phi.grid
    assert check_integrability(phi)
    u = solve_dbar_01(phi, bundle)
    assert set(u.components[0]) == {(2, -1)}
    assert dbar_residual(u, phi) < 1e-6
    r1, r2 = grid.r[:, None], grid.r[None, :]
    rmin, a = grid.r[0], grid.a
    model = r1 ** 3 * r2 - a * rmin ** 2 * r1 ** 2 / r2
    got = u.components[0][(2, -1)]
    assert np.max(np.abs(got - model)) / np.max(np.abs(model)) < 1e-10


def test_case_from_json_grid_and_mode_accumulation():
    base = {
        "k": 0.0,
        "l": 0.0,
        "A": 0.25,
        "points": 64,
        "modes": [
            {"m": 0, "n": 0, "component": 2, "profile": "poly",
             "params": {"powers": [0, 0], "amplitude": 1.0}},
            {"m": 0, "n": 0, "component": 2, "profile": "poly",
             "params": {"powers": [0, 0], "amplitude": 2.0}},
        ],
    }
    bundle, phi = _sampled(base)
    assert phi.grid.n == 64
    assert phi.grid.a == pytest.approx(0.25)
    prof = phi.components[1][(0, 0)]
    assert np.allclose(prof, 3.0)


def test_case_from_json_degree_two_and_errors():
    _, phi = _sampled(
        {"k": 0.0, "l": 0.0, "degree": 2,
         "modes": [{"m": 1, "n": 1, "profile": "bump", "params": {}}]}
    )
    assert phi.degree == 2
    assert len(phi.components) == 1
    with pytest.raises(ValueError):
        _sampled(
            {"k": 0.0, "l": 0.0,
             "modes": [{"m": 0, "n": 0, "component": 3, "profile": "poly"}]}
        )
    with pytest.raises(ValueError):
        _sampled(
            {"k": 0.0, "l": 0.0,
             "modes": [{"m": 0, "n": 0, "component": 1, "profile": "spline"}]}
        )


@pytest.mark.parametrize("profile, params, message", [
    ("poly", [1], "must be an object"),
    ("poly", {"powers": ["a", 2]}, "powers entries must be numbers"),
    ("poly", {"powers": [1]}, "not enough values to unpack"),
    ("bump", {"center": [None, 0.0]}, "center entries must be numbers"),
    ("bump", {"width": [0.5, "0.5"]}, "width entries must be numbers"),
    ("bump", {"amplitude": "nan"}, "amplitude must be finite"),
    ("bump", {"center": [0.0, float("inf")]}, "center entries must be finite"),
    ("bump", {"width": [float("nan"), 1.0]}, "width entries must be finite"),
    ("bump", {"width": [0, 1.0]}, "width entries must be nonzero"),
    ("poly", {"powers": [float("-inf"), 2]}, "powers entries must be finite"),
    ("poly", {"amplitude": float("inf")}, "amplitude must be finite"),
])
def test_parse_case_rejects_malformed_params(profile, params, message):
    with pytest.raises(ValueError, match=message):
        parse_case({"k": 0.0, "l": 0.0,
                    "modes": [{"m": 0, "n": 0, "profile": profile, "params": params}]})


@pytest.mark.parametrize("mode, message", [
    ({"m": 100000, "n": 0}, r"m must satisfy \|m\| \+ 1 <= 18.8889 on this grid, got 100000"),
    ({"m": 0, "n": -18}, r"n must satisfy \|n\| \+ 1 <= 18.8889 on this grid, got -18"),
    ({"m": 1e400, "n": 0}, "m must be finite, got inf"),
    ({"m": 0, "n": 0, "params": {"powers": [0, 1000]}},
     r"powers entries must satisfy \|p\| <= 18.8889 on this grid, got \[0, 1000\]"),
])
def test_parse_case_caps_mode_indices_and_powers(mode, message):
    entry = {"profile": "poly", "params": {}, **mode}
    with pytest.raises(ValueError, match=message):
        parse_case({"k": 0.0, "l": 0.0, "modes": [entry]})


def test_parse_case_mode_cap_follows_the_grid_depth():
    # radii down to e^-9 on the default grid, 0.1 e^-8 (about e^-10.3) with A = 0.1
    edge = {"m": 17, "n": -17, "profile": "poly", "params": {"powers": [18.8, -18.8]}}
    assert parse_case({"k": 0.0, "l": 0.0, "modes": [edge]}).modes[0].m == 17
    with pytest.raises(ValueError, match="m must satisfy"):
        parse_case({"k": 0.0, "l": 0.0, "A": 0.1, "modes": [edge]})
    with pytest.raises(ValueError, match="powers entries must satisfy"):
        parse_case({"k": 0.0, "l": 0.0, "A": 0.1, "modes": [{**edge, "m": 0, "n": 0}]})


def test_parse_case_caps_the_grid_size():
    assert parse_case({"k": 0.0, "l": 0.0, "points": 2048}).grid.n == 2048
    with pytest.raises(ValueError, match="points must be at most 2048"):
        parse_case({"k": 0.0, "l": 0.0, "points": 2049})


def test_complex_profiles_supported():
    data = (1 + 1j) * np.ones((_GRID.n, _GRID.n), dtype=complex)
    phi = FourierForm(1, _GRID, ({}, {(0, 0): data}))
    u = solve_dbar_01(phi, WeightedLineBundle(0.5, 0.5))
    assert dbar_residual(u, phi) < 1e-10


def test_antiderivative_rejects_non_finite_data():
    integrand = np.ones(_GRID.n)
    integrand[7] = np.inf
    with pytest.raises(ValueError, match="must contain only finite values"):
        _antiderivative(_GRID, integrand, 0.0)


# n = 16 pivots in the tridiagonal elimination; at n = 286 numpy's scalar
# square of the first step differs from the product in the last bit
@pytest.mark.parametrize("n", [16, 64, 256, 286, 512, 1024])
def test_antiderivative_is_bit_identical_to_scipy(n):
    interpolate = pytest.importorskip("scipy.interpolate")
    grid = RadialGrid(n=n)
    rng = np.random.default_rng(n)
    shape = (n, 8)
    # entries from e^-20 to e^20 in size, of both signs, and data weighted
    # to the inner edge like the path integrands rho^-m f; each 2-D input
    # is also integrated column by column, which runs the 1-D arithmetic
    for data in (rng.standard_normal(shape) * np.exp(rng.uniform(-20.0, 20.0, shape)),
                 grid.r[:, None] ** -4.0 * rng.standard_normal(shape)):
        for y in (data, *data.T):
            reference = interpolate.CubicSpline(grid.r, y, axis=0).antiderivative()(grid.r)
            assert np.array_equal(_antiderivative(grid, y, 0.0), reference)
            assert np.array_equal(_antiderivative(grid, y, grid.a), reference - reference[-1])


def test_complex_antiderivative_splits_real_and_imaginary_parts():
    interpolate = pytest.importorskip("scipy.interpolate")
    grid = RadialGrid(n=64)
    rng = np.random.default_rng(7)
    y = rng.standard_normal((64, 5)) + 1j * rng.standard_normal((64, 5))
    got = _antiderivative(grid, y, grid.a)
    assert np.array_equal(got.real, _antiderivative(grid, y.real, grid.a))
    assert np.array_equal(got.imag, _antiderivative(grid, y.imag, grid.a))
    reference = interpolate.CubicSpline(grid.r, y, axis=0).antiderivative()(grid.r)
    assert np.allclose(got, reference - reference[-1], rtol=1e-14, atol=0.0)
