from __future__ import annotations

import pytest
from hypothesis import given, settings

from limithodge.datum import standard_corpus
from limithodge.exactla import ExactMatrix, Scalar, rank, scalar
from limithodge.growth import (
    D_EPS,
    D_EPS_PRIME,
    GrowthClass,
    hodge_norm_class,
    minimal_weight,
    ordered_alpha_basis,
    ordering_change,
    section_from_datum,
    theta_apply_class,
    transpose_keys,
)
from limithodge.hodgestruct import PolarizationForm, filtration_to_bigrading, weil_and_metric
from limithodge.sl2rep import alpha_basis, build_model, isotypic_decomposition
from limithodge.weightfilt import NonCommuting, monodromy_weight_filtration
from test_weightfilt import _conjugated_nilpotents


def _model_frame(m: int, n: int):
    """The alpha frame of S(m) (x) S(n) together with its nilpotent pair."""
    model = build_model("S", m, n)
    factor = isotypic_decomposition(model.bigrading, model.action)[0]
    alphas = alpha_basis(factor, model.action)
    n1, n2 = model.action.nminus
    return model, alphas, n1, n2


# ----------------------------------------------------------------------
# sections and their weights


def test_minimal_weight_on_jordan_block():
    n = ExactMatrix([[0, 1], [0, 0]])
    w = monodromy_weight_filtration(n)
    assert minimal_weight([scalar(1), scalar(0)], w) == -1
    assert minimal_weight([scalar(0), scalar(1)], w) == 1
    with pytest.raises(ValueError):
        minimal_weight([scalar(0), scalar(0)], w)


def _scanned_minimal_weight(v, W) -> int:
    """Reference: the first graded level whose step contains v."""
    levels = W.filtration.graded_range()
    for l in range(levels[0], levels[-1] + 1):
        if W.step(l).contains_vector(v):
            return l
    raise ValueError("vector escapes the weight filtration")


def _assert_minimal_weights_match_a_linear_scan(N: ExactMatrix) -> None:
    W = monodromy_weight_filtration(N)
    for _, step in W.filtration.steps:
        # each canonical basis vector, and their sum, which mixes graded levels
        for v in [*step.basis_columns(), step.basis.apply([1] * step.dim)]:
            if any(v):
                assert minimal_weight(v, W) == _scanned_minimal_weight(v, W)


def test_minimal_weight_matches_a_linear_scan_on_the_corpus():
    for datum in standard_corpus():
        for N in (datum.n1, datum.n1 + datum.n2):
            _assert_minimal_weights_match_a_linear_scan(N)


@settings(max_examples=60, deadline=None)
@given(_conjugated_nilpotents())
def test_minimal_weight_matches_a_linear_scan_on_gaussian_conjugates(N):
    _assert_minimal_weights_match_a_linear_scan(N)


def test_section_weights_use_both_orderings():
    _, alphas, n1, n2 = _model_frame(1, 1)
    s = section_from_datum(alphas[(1, 0)], n1, n2)
    assert s.weights == (1, 0)
    swapped = section_from_datum(alphas[(1, 0)], n2, n1)
    assert swapped.weights == (-1, 0)


def test_noncommuting_pair_is_rejected_on_every_call():
    n1, n2 = ExactMatrix([[0, 1], [0, 0]]), ExactMatrix([[0, 0], [1, 0]])
    for _ in range(3):  # the per-pair memo does not keep errors
        with pytest.raises(NonCommuting):
            section_from_datum([1, 0], n1, n2)


# ----------------------------------------------------------------------
# norm classes


def test_bounded_norm_class():
    z = ExactMatrix.zeros(2, 2)
    s = section_from_datum([scalar(1), scalar(1)], z, z)
    cls = hodge_norm_class(s)
    assert cls.t_orders == (0, 0)
    assert cls.log_exps == (0, 0)


def test_alpha_norm_exponents_match_display():
    for m, n in ((1, 1), (2, 1), (0, 2)):
        _, alphas, n1, n2 = _model_frame(m, n)
        for (k, l), vec in alphas.items():
            s = section_from_datum(vec, n1, n2)
            assert s.weights == (2 * k - m, 2 * (k + l) - m - n)
            cls = hodge_norm_class(s, D_EPS)
            assert cls.log_exps == (2 * k - m, 2 * l - n)


def test_region_coherence_of_alpha_classes():
    """Either ordering reports the same exponent pair for the alpha frame."""
    _, alphas, n1, n2 = _model_frame(2, 1)
    for vec in alphas.values():
        on_d = hodge_norm_class(section_from_datum(vec, n1, n2), D_EPS)
        on_dprime = hodge_norm_class(section_from_datum(vec, n2, n1), D_EPS_PRIME)
        assert on_d.log_exps == on_dprime.log_exps
        assert on_dprime.region == D_EPS_PRIME


def test_generic_negative_weights():
    n = ExactMatrix([[0, 1], [0, 0]])
    s = section_from_datum([scalar(1), scalar(0)], n, ExactMatrix.zeros(2, 2))
    assert s.weights == (-1, -1)
    assert hodge_norm_class(s).log_exps == (-1, 0)


def test_growth_class_addition():
    a = GrowthClass((0, 1), (2, 0), D_EPS)
    b = GrowthClass((1, 0), (-1, 1), D_EPS)
    combined = a + b
    assert combined.t_orders == (1, 1)
    assert combined.log_exps == (1, 1)
    assert (a + GrowthClass.zero()).is_zero is True
    with pytest.raises(ValueError):
        a + GrowthClass((0, 0), (0, 0), D_EPS_PRIME)
    with pytest.raises(ValueError):
        GrowthClass((-1, 0), (0, 0), D_EPS)


# ----------------------------------------------------------------------
# theta boundedness


def test_theta_bounded_on_tensor_frame():
    _, alphas, n1, n2 = _model_frame(1, 1)
    for vec in alphas.values():
        s = section_from_datum(vec, n1, n2)
        for i in (1, 2):
            for region in (D_EPS, D_EPS_PRIME):
                tc = theta_apply_class(s, i, n1, n2, region)
                if tc.zero:
                    continue
                assert tc.bounded is True
                assert tc.form_class.log_exps == tc.source_class.log_exps


def test_theta_zero_sentinel():
    _, alphas, n1, n2 = _model_frame(1, 0)
    s = section_from_datum(alphas[(0, 0)], n1, n2)
    tc = theta_apply_class(s, 1, n1, n2)
    assert tc.zero is True
    assert tc.bounded is None


# ----------------------------------------------------------------------
# adapted frames


def _model_metric(model) -> ExactMatrix:
    hs = filtration_to_bigrading(model.hodge_filtration(), model.weight)
    _, h = weil_and_metric(hs, PolarizationForm.for_weight(model.polarization, model.weight))
    return h


def test_alpha_frame_is_adapted():
    # classes decouple at leading order: each class's Gram block must be invertible
    model, alphas, n1, n2 = _model_frame(1, 1)
    h, by_class = _model_metric(model), {}
    for v in alphas.values():
        by_class.setdefault(hodge_norm_class(section_from_datum(v, n1, n2)), []).append(v)
    for group in by_class.values():
        V = ExactMatrix.from_columns(group)
        assert rank(V.transpose() @ h @ V.conjugate()) == len(group)


# ----------------------------------------------------------------------
# ordering changes


def test_ordering_change_symmetric_pair_is_identity():
    _, _, n1, n2 = _model_frame(1, 1)
    basis_a = ordered_alpha_basis(n1, n2)
    basis_b = transpose_keys(ordered_alpha_basis(n2, n1))
    rep = ordering_change(basis_a, basis_b)
    assert rep["supported"] is True
    assert rep["violations"] == []
    t = rep["transition"]
    for (ka, la), row in t.items():
        for (kb, lb), coeff in row.items():
            expected = scalar(1) if (ka, la) == (kb, lb) else Scalar(0)
            assert coeff == expected


def test_ordering_change_mixed_cone_supported_both_ways():
    _, _, n1, n2 = _model_frame(1, 1)
    mixed = n1 + n2
    basis_a = ordered_alpha_basis(mixed, n2)
    basis_b = transpose_keys(ordered_alpha_basis(n2, mixed))
    forward = ordering_change(basis_a, basis_b)
    backward = ordering_change(basis_b, basis_a)
    assert forward["supported"] is True
    assert backward["supported"] is True


def test_lowered_frame_expands_triangularly_in_lattice_basis():
    """The sl2-lowered frame meets the canonical lattice basis with genuine
    strictly-lower corrections, all inside the allowed index cone."""
    _, alphas, n1, n2 = _model_frame(1, 1)
    lattice = ordered_alpha_basis(n1, n2)
    rep = ordering_change(alphas, lattice)
    assert rep["supported"] is True
    strictly_lower = [
        (key, other)
        for key, row in rep["transition"].items()
        for other, coeff in row.items()
        if coeff and other != key
    ]
    assert strictly_lower
    for key, other in strictly_lower:
        assert other[0] <= key[0] and other[1] <= key[1]


def test_ordering_change_rejects_span_mismatch():
    _, _, n1, n2 = _model_frame(1, 1)
    basis_a = ordered_alpha_basis(n1, n2)
    tiny = {(0, 0): basis_a[(0, 0)]}
    with pytest.raises(ValueError):
        ordering_change(basis_a, tiny)
