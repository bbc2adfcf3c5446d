from __future__ import annotations

import random

import pytest

from limithodge import exactla
from limithodge.exactla import (
    ExactMatrix,
    Filtration,
    I,
    Subspace,
    apply_to_subspace,
    exp_nilpotent,
    image,
    induced_filtrations_on_graded,
    maps_into,
    subspace_sum,
)
from limithodge.hodgestruct import (
    MixedHodge,
    NotAHodgeFiltration,
    NotPolarized,
    PolarizationForm,
    deligne_bigrading,
    filtration_to_bigrading,
    mhs_check,
    polarized_mhs_check,
    r_split_check,
    weil_and_metric,
)
from limithodge.hodgestruct import _check_positive_definite
from limithodge.sl2rep import build_model, transport_model
from limithodge.weightfilt import monodromy_weight_filtration
from test_weightfilt import _dense_gaussian, _intersect, _shear


def _limit_mixed(m: int) -> tuple[MixedHodge, ExactMatrix, ExactMatrix]:
    """The degenerate structure of S(m) (x) S(0): (W(N)[-m], twisted F)."""
    model = build_model("S", m, 0)
    n = model.action.nminus[0]
    w = monodromy_weight_filtration(n, center=m).filtration
    return MixedHodge(w, model.limit_filtration()), n, model.polarization


# ----------------------------------------------------------------------
# pure structures


def test_bigrading_of_weight_one_plane():
    model = build_model("S", 1)
    hs = filtration_to_bigrading(model.hodge_filtration(), 1)
    assert hs.bigrading[(1, 0)] == Subspace.from_columns(2, [[1, -I]])
    assert hs.bigrading[(0, 1)] == Subspace.from_columns(2, [[1, I]])


def test_bigrading_of_weight_zero_everything():
    f = Filtration(1, Filtration.DECREASING,
                   [(0, Subspace.full(1)), (1, Subspace.zero(1))])
    hs = filtration_to_bigrading(f, 0)
    assert set(hs.bigrading) == {(0, 0)}
    assert hs.bigrading[(0, 0)] == Subspace.full(1)


def test_bigrading_of_tate_line():
    f = Filtration(1, Filtration.DECREASING,
                   [(1, Subspace.full(1)), (2, Subspace.zero(1))])
    hs = filtration_to_bigrading(f, 2)
    assert set(hs.bigrading) == {(1, 1)}


def test_non_hodge_filtration_rejected():
    f = Filtration(2, Filtration.DECREASING,
                   [(0, Subspace.full(2)),
                    (1, Subspace.from_columns(2, [[1, 0]])),
                    (2, Subspace.zero(2))])
    # the real line F^1 meets its conjugate: the direct-sum check names it
    with pytest.raises(NotAHodgeFiltration, match=r"sum of F\^1 and the conjugate of F\^1$"):
        filtration_to_bigrading(f, 1)


def test_round_trip_bigrading_filtration():
    model = build_model("S", 2, 1)
    f = model.hodge_filtration()
    hs = filtration_to_bigrading(f, model.weight)
    back = hs.filtration()
    for p in range(-1, 5):
        assert back.step(p) == f.step(p)


# ----------------------------------------------------------------------
# Weil operator and metric


def test_weil_and_metric_on_s1():
    model = build_model("S", 1)
    hs = filtration_to_bigrading(model.hodge_filtration(), 1)
    c, h = weil_and_metric(hs, PolarizationForm.for_weight(model.polarization, 1))
    vminus = [1, -I]
    assert c.apply(vminus) == tuple(I * a for a in vminus)
    assert h == ExactMatrix.identity(2)


def test_weil_and_metric_on_trivial_line():
    model = build_model("S", 0)
    hs = filtration_to_bigrading(model.hodge_filtration(), 0)
    c, h = weil_and_metric(hs, PolarizationForm.for_weight(model.polarization, 0))
    assert c == ExactMatrix.identity(1)
    assert h == ExactMatrix.identity(1)


def test_flipped_polarization_detected():
    model = build_model("S", 1)
    hs = filtration_to_bigrading(model.hodge_filtration(), 1)
    with pytest.raises(NotPolarized, match="leading minor 1 is not positive"):
        weil_and_metric(hs, PolarizationForm.for_weight(model.polarization.scale(-1), 1))


def test_non_orthogonal_pieces_are_named():
    # weight 2 on C^3: H^{2,0} = <e1 + i e2>, H^{1,1} = <e3>, H^{0,2} = <e1 - i e2>;
    # the (1,3) entry of S pairs e3 with e1, so H^{0,2} meets H^{1,1} first
    f = Filtration(3, Filtration.DECREASING,
                   [(0, Subspace.full(3)),
                    (1, Subspace.from_columns(3, [[1, I, 0], [0, 0, 1]])),
                    (2, Subspace.from_columns(3, [[1, I, 0]])),
                    (3, Subspace.zero(3))])
    hs = filtration_to_bigrading(f, 2)
    S = ExactMatrix([[1, 0, 1], [0, 1, 0], [1, 0, 1]])
    with pytest.raises(NotPolarized, match=r"pieces \(0,2\) and \(1,1\) are not orthogonal"):
        weil_and_metric(hs, PolarizationForm.for_weight(S, 2))


def test_positive_definite_check_on_complex_hermitian_matrices():
    _check_positive_definite(ExactMatrix([[2, I], [-I, 2]]))  # eigenvalues 1 and 3
    # eigenvalues 3 and -1: the realified 4x4 form first goes negative at minor 3
    with pytest.raises(NotPolarized, match="leading minor 3 is not positive"):
        _check_positive_definite(ExactMatrix([[1, 2 * I], [-2 * I, 1]]))


def test_polarization_form_symmetry_enforced():
    skew = ExactMatrix([[0, 1], [-1, 0]])
    PolarizationForm.for_weight(skew, 1)
    with pytest.raises(NotPolarized):
        PolarizationForm.for_weight(skew, 2)


# ----------------------------------------------------------------------
# mixed structures


def test_limit_structure_is_polarized_mixed():
    mixed, n, s = _limit_mixed(2)
    rep = mhs_check(mixed)
    assert rep["is_mhs"] is True
    polarized = polarized_mhs_check(mixed, n, s, 2)
    assert polarized["nilpotent_order"] is True
    assert polarized["weight_filtration"] is True
    assert polarized["pairing"] is True
    assert polarized["lowers_filtration"] is True
    assert polarized["primitive_polarization"] is True
    assert polarized["all_pass"] is True


@pytest.mark.xfail(strict=True, reason="known defect: the top primitive level of "
                   "_primitive_polarized is never checked, so it reads 'trivial'")
@pytest.mark.parametrize("m", [1, 2])
def test_negated_polarization_fails_the_primitive_check(m):
    mixed, n, s = _limit_mixed(m)
    assert polarized_mhs_check(mixed, n, -s, m)["all_pass"] is False


def test_pure_structure_passes_degenerately():
    model = build_model("S", 0)
    w = Filtration(1, Filtration.INCREASING, [(0, Subspace.full(1))])
    mixed = MixedHodge(w, model.hodge_filtration())
    assert mhs_check(mixed)["is_mhs"] is True
    rep = polarized_mhs_check(mixed, ExactMatrix.zeros(1, 1), model.polarization, 0)
    assert rep["all_pass"] is True


def test_shifted_weight_filtration_flagged():
    model = build_model("S", 1, 0)
    n = model.action.nminus[0]
    wrong = monodromy_weight_filtration(n, center=2).filtration
    mixed = MixedHodge(wrong, model.limit_filtration())
    rep = polarized_mhs_check(mixed, n, model.polarization, 1)
    assert rep["weight_filtration"] is False
    assert rep["all_pass"] is False


# ----------------------------------------------------------------------
# canonical bigrading of a mixed structure


def test_deligne_pieces_of_pure_structure():
    model = build_model("S", 1)
    hs = filtration_to_bigrading(model.hodge_filtration(), 1)
    w = Filtration(2, Filtration.INCREASING, [(1, Subspace.full(2))])
    mixed = MixedHodge(w, model.hodge_filtration())
    pieces = deligne_bigrading(mixed)
    assert pieces == hs.bigrading
    assert r_split_check(mixed) is True


def test_limit_structure_splits_over_r():
    mixed, _, _ = _limit_mixed(1)
    pieces = deligne_bigrading(mixed)
    assert {pq: sub.dim for pq, sub in pieces.items()} == {(0, 0): 1, (1, 1): 1}
    assert r_split_check(mixed) is True


def test_skewed_filtration_breaks_real_splitting():
    n = ExactMatrix([[0, 1], [0, 0]])
    w = monodromy_weight_filtration(n, center=1).filtration
    f = Filtration(2, Filtration.DECREASING,
                   [(0, Subspace.full(2)),
                    (1, Subspace.from_columns(2, [[I, 1]])),
                    (2, Subspace.zero(2))])
    mixed = MixedHodge(w, f)
    assert mhs_check(mixed)["is_mhs"] is True
    assert r_split_check(mixed) is False


def test_nilpotent_is_minus_one_morphism_of_splitting():
    # N maps I^{p,q} into the sum of the I^{p',q'} with p' <= p + r, q' <= q + r
    mixed, n, _ = _limit_mixed(2)
    pieces, zero = deligne_bigrading(mixed), Subspace.zero(mixed.ambient_dim)
    def shifts_by(r: int) -> bool:
        return all(maps_into(n, sub, subspace_sum(zero, *(t for (a, b), t in pieces.items()
                                                          if a <= p + r and b <= q + r)))
                   for (p, q), sub in pieces.items())
    assert shifts_by(-1) and not shifts_by(-2)


def test_canonical_bigrading_tries_only_weights_with_a_graded_piece(monkeypatch):
    # E(16,0) (x) S(1): a square over the Hodge index range made 2,665
    # intersects; meets through the stacked bases [A | B] made 420 row
    # reductions here, meets in F's adapted basis 275
    model = build_model("E", 1, 0, 0, 16, 0)
    n = model.action.nminus[0] + model.action.nminus[1]
    w = monodromy_weight_filtration(n, center=model.weight).filtration
    mixed = MixedHodge(w, model.limit_filtration())
    calls = [0]
    row_reduce = exactla._row_reduce

    def counted(*args):
        calls[0] += 1
        return row_reduce(*args)

    monkeypatch.setattr(exactla, "_row_reduce", counted)
    assert r_split_check(mixed) is True
    assert calls[0] <= 300, f"{calls[0]} row reductions"


# ----------------------------------------------------------------------
# meets in F's adapted basis against intersections of bases


def _conj(V: Subspace) -> Subspace:
    return image(V.basis.conjugate())


def _reference_bigrading(F: Filtration, k: int) -> dict | None:
    """filtration_to_bigrading over the padded index range, every meet taken by
    _intersect of canonical bases; None when a direct sum fails."""
    d, idx = F.ambient_dim, F.indices()
    ps = range(min(min(idx), k - max(idx)), max(max(idx), k - min(idx)) + 2)
    for p in ps:
        A, B = F.step(p), _conj(F.step(k - p + 1))
        if A.dim + B.dim != d or _intersect(A, B).dim:
            return None
    pieces = {(p, k - p): _intersect(F.step(p), _conj(F.step(k - p))) for p in ps}
    return {key: sub for key, sub in pieces.items() if sub.dim}


def _reference_deligne(m: MixedHodge) -> dict:
    """I^{p,q} = F^p ∩ W_{p+q} ∩ (conj(F^q) ∩ W_{p+q} + sum_{j>=1}
    conj(F^{q-j}) ∩ W_{p+q-j-1}), over every p and every weight of W."""
    F, W = m.F, m.W
    fidx, widx = F.indices(), W.indices()
    pieces = {}
    for k in range(min(widx), max(widx) + 1):
        for p in range(min(fidx) - 1, max(fidx) + 2):
            q = k - p
            terms = [_intersect(_conj(F.step(q - j)), W.step(k - j - 1 if j else k))
                     for j in range(k - min(widx) + 2)]
            piece = _intersect(_intersect(F.step(p), W.step(k)), subspace_sum(*terms))
            if piece.dim:
                pieces[(p, q)] = piece
    return pieces


def _pieces_or_none(F: Filtration, k: int) -> dict | None:
    try:
        return filtration_to_bigrading(F, k).bigrading
    except NotAHodgeFiltration:
        return None


_SPLITTING_MODELS = {"S(1)xS(1)": ("S", 1, 1), "H(1)xS(1)": ("H", 1, 0, 1),
                     "E(1,0)xS(1)": ("E", 1, 0, 0, 1, 0), "E(2,1)": ("E", 0, 0, 0, 2, 1)}


@pytest.mark.parametrize("transport", ["split", "sheared", "dense Q(i)"])
@pytest.mark.parametrize("label", sorted(_SPLITTING_MODELS))
def test_hodge_and_deligne_pieces_match_intersections_of_bases(label, transport):
    # dimension <= 4; the twelve cases take about 0.3 s together.  A dense
    # transport makes W(N) non-real unless N = 0, so exp(iN) F, a mixed
    # structure not split over R when N != 0, also meets Q(i) data where W
    # is real
    model = build_model(*_SPLITTING_MODELS[label])
    conjugator = {"sheared": _shear, "dense Q(i)": _dense_gaussian}.get(transport)
    if conjugator is not None:
        model = transport_model(model, conjugator(random.Random(1), model.dim))
    n = model.action.nminus[0] + model.action.nminus[1]
    w = monodromy_weight_filtration(n, center=model.weight).filtration
    limit = model.limit_filtration()
    # a pure filtration, a mixed one read as pure, and each induced graded piece
    for F, k in [(model.hodge_filtration(), model.weight), (limit, model.weight),
                 *((induced_filtrations_on_graded(limit, w, [l])[l], l) for l in w.graded_range())]:
        assert _pieces_or_none(F, k) == _reference_bigrading(F, k)
    twist = exp_nilpotent(n, I)
    twisted = Filtration(model.dim, Filtration.DECREASING,
                         [(p, apply_to_subspace(twist, sub)) for p, sub in limit.steps])
    for F in (limit, twisted):
        mixed = MixedHodge(w, F)
        if mhs_check(mixed)["is_mhs"]:
            assert deligne_bigrading(mixed) == _reference_deligne(mixed)
        else:
            with pytest.raises(NotAHodgeFiltration):
                deligne_bigrading(mixed)
