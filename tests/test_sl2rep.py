from __future__ import annotations

import dataclasses
import random
import re
from collections import Counter

import pytest

from limithodge import l2complex, sl2rep, weightfilt
from limithodge.datum import MonodromyDatum, standard_corpus
from limithodge.exactla import (
    ExactMatrix,
    Filtration,
    I,
    Scalar,
    Subspace,
    bilinear,
    conj_vector,
    scalar,
)
from limithodge.hodgestruct import MixedHodge, mhs_check, polarized_mhs_check
from limithodge.sl2rep import (
    DecompositionError,
    NotHorizontal,
    Sl2PairAction,
    WrongKind,
    alpha_basis,
    build_model,
    direct_sum_models,
    isotypic_decomposition,
    operator_from_bigrading,
    transport_model,
)
from limithodge.sl2rep import _orthogonalize, _verify_decomposition
from limithodge.weightfilt import monodromy_weight_filtration


def _pair(u, S: ExactMatrix, v) -> Scalar:
    return sum((a * b for a, b in zip(S.apply(v), u)), Scalar(0))


def _random_unipotent(rng: random.Random, dim: int) -> ExactMatrix:
    return ExactMatrix.from_function(
        dim, dim,
        lambda i, j: 1 if i == j else (rng.randrange(-1, 2) if j > i else 0))


# ----------------------------------------------------------------------
# model construction


def test_s1_model_matrices():
    model = build_model("S", 1)
    nm = model.action.nminus[0]
    assert nm.apply([0, 1]) == (scalar(1), scalar(0))
    assert nm.apply([1, 0]) == (scalar(0), scalar(0))
    assert model.action.y[0] == ExactMatrix.diagonal([-1, 1])


def test_s1_model_bigrading_and_polarization():
    model = build_model("S", 1)
    vminus = [1, -I]
    vplus = [1, I]
    assert model.bigrading[(1, 0)].contains_vector(vminus)
    assert model.bigrading[(0, 1)].contains_vector(vplus)
    assert _pair(vplus, model.polarization, vminus) == Scalar(0, 2)


def test_tate_model_is_inert():
    model = build_model("H", l=1)
    assert model.dim == 1
    assert model.weight == 2
    assert all(g.is_zero() for g in model.action.generators())
    assert model.polarization.entries[0][0] == scalar(1)
    assert set(model.bigrading) == {(1, 1)}


def test_s11_bigrading_dimensions():
    model = build_model("S", 1, 1)
    dims = {pq: sub.dim for pq, sub in model.bigrading.items()}
    assert dims == {(2, 0): 1, (1, 1): 2, (0, 2): 1}


def test_build_model_shares_one_model_per_spec():
    model = build_model("S", 1, 1)
    assert build_model("S", 1, 1) is model
    assert build_model("S", m=1, n=1) is model
    assert build_model(kind="S", n=1, m=1) is model
    assert build_model("H", 1, 1, l=1) is build_model("H", m=1, n=1, l=1)
    for _ in range(2):  # errors are raised anew, not memoized
        with pytest.raises(ValueError, match="EType requires p != q"):
            build_model("E", 1, 0, p=1, q=1)


def test_models_and_factors_are_immutable():
    model = build_model("S", 1, 1)
    factor = isotypic_decomposition(model.bigrading, model.action)[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.weight = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.labels = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        factor.m = 2
    with pytest.raises(TypeError):
        model.bigrading[(1, 1)] = Subspace.zero(4)
    assert isinstance(model.labels, tuple)
    pieces = {(1, 0): Subspace.full(1)}
    tate = build_model("H", l=1)
    copied = dataclasses.replace(tate, bigrading=pieces)
    pieces[(0, 1)] = Subspace.zero(1)
    assert set(copied.bigrading) == {(1, 0)}


def test_model_actions_are_real_and_bracketed():
    for model in (build_model("S", 2, 1), build_model("H", 1, 0, l=1),
                  build_model("E", 0, 1, p=2, q=0)):
        act = model.action
        assert act.is_real()
        for j in (0, 1):
            nm, y, np_ = act.nminus[j], act.y[j], act.nplus[j]
            assert y.commutator(np_) == np_.scale(2)
            assert y.commutator(nm) == nm.scale(-2)
            assert np_.commutator(nm) == y


def test_direct_sum_requires_equal_weights():
    with pytest.raises(ValueError):
        direct_sum_models([build_model("S", 1), build_model("S", 2)])


def test_hodge_and_limit_filtrations_of_s1():
    model = build_model("S", 1)
    f = model.hodge_filtration()
    assert f.step(1) == Subspace.from_columns(2, [[1, -I]])
    assert f.step(0) == Subspace.full(2)
    assert f.step(2) == Subspace.zero(2)
    limit = model.limit_filtration()
    assert limit.step(1) == Subspace.from_columns(2, [[0, 1]])


# ----------------------------------------------------------------------
# grading operators from a bigrading


def test_ytilde_vanishes_on_pure_structure():
    model = build_model("S", 1)
    assert operator_from_bigrading(model.bigrading, lambda p, q: p + q - 1).is_zero()


def test_ytilde_on_centered_splitting():
    split = {
        (-1, -1): Subspace.from_columns(3, [[1, 0, 0]]),
        (0, 0): Subspace.from_columns(3, [[0, 1, 0]]),
        (1, 1): Subspace.from_columns(3, [[0, 0, 1]]),
    }
    y = operator_from_bigrading(split, lambda p, q: p + q)
    assert y == ExactMatrix.diagonal([-2, 0, 2])


def test_ytilde_rejects_overlapping_pieces():
    overlap = {
        (0, 0): Subspace.from_columns(2, [[1, 0]]),
        (1, 1): Subspace.from_columns(2, [[1, 0]]),
    }
    with pytest.raises(ValueError):
        operator_from_bigrading(overlap, lambda p, q: p + q)


# ----------------------------------------------------------------------
# isotypic decomposition


def test_single_tensor_model_is_irreducible():
    model = build_model("S", 1, 1)
    factors = isotypic_decomposition(model.bigrading, model.action, model.polarization)
    assert [f.params() for f in factors] == [("S", 1, 1, 0)]
    assert factors[0].dim == 4
    assert factors[0].weight == 2


def test_block_sum_splits_into_blocks():
    summands = [build_model("S", 2, 0), build_model("S", 0, 2),
                build_model("H", 0, 0, l=1)]
    model = direct_sum_models(summands)
    factors = isotypic_decomposition(model.bigrading, model.action, model.polarization)
    assert sorted(f.params() for f in factors) == [
        ("H", 0, 0, 1), ("S", 0, 2, 0), ("S", 2, 0, 0)]
    assert sum(f.dim for f in factors) == model.dim == 7


def test_etype_factor_detected():
    model = build_model("E", 1, 0, p=2, q=0)
    factors = isotypic_decomposition(model.bigrading, model.action, model.polarization)
    assert [f.params() for f in factors] == [("E", 1, 0, 2, 0)]
    assert factors[0].dim == 4
    assert factors[0].weight == 3


def test_factors_are_pairwise_orthogonal():
    model = direct_sum_models([build_model("S", 2, 0), build_model("S", 0, 2)])
    factors = isotypic_decomposition(model.bigrading, model.action, model.polarization)
    assert len(factors) == 2
    for u in factors[0].embedding.columns():
        for v in factors[1].embedding.columns():
            assert _pair(u, model.polarization, v) == Scalar(0)


def test_decomposition_survives_transport():
    rng = random.Random(31)
    base = direct_sum_models([build_model("S", 1, 1), build_model("H", 0, 0, l=1)])
    expected = sorted(
        f.params() for f in
        isotypic_decomposition(base.bigrading, base.action, base.polarization))
    for _ in range(3):
        moved = transport_model(base, _random_unipotent(rng, base.dim))
        factors = isotypic_decomposition(moved.bigrading, moved.action, moved.polarization)
        assert sorted(f.params() for f in factors) == expected
        assert sum(f.dim for f in factors) == moved.dim


_E1 = (scalar(1), scalar(0))
_E2 = (scalar(0), scalar(1))


def test_orthogonalize_repairs_a_real_hyperbolic_pair_with_u_plus_v():
    S = ExactMatrix([[0, 1], [1, 0]])

    def form(u, v):
        return bilinear(S, u, v)

    out = _orthogonalize([_E1, _E2], form)
    assert out[0] == (scalar(1), scalar(1))
    assert len(out) == 2
    assert not form(out[0], out[1])
    assert all(form(v, v) for v in out)


def test_orthogonalize_repairs_a_hermitian_pair_with_u_plus_iv():
    H = ExactMatrix([[0, I], [-I, 0]])

    def form(u, v):
        return bilinear(H, u, conj_vector(v))

    assert form(_E1, _E2) == I
    out = _orthogonalize([_E1, _E2], form)
    assert out[0] == (scalar(1), I)
    assert len(out) == 2
    assert not form(out[0], out[1])
    assert all(form(v, v) for v in out)


def test_orthogonalize_rejects_a_zero_form():
    S = ExactMatrix.zeros(2, 2)
    with pytest.raises(DecompositionError):
        _orthogonalize([_E1, _E2], lambda u, v: bilinear(S, u, v))


def test_verification_rejects_non_orthogonal_factors():
    model = direct_sum_models([build_model("S", 0, 0), build_model("S", 0, 0)])
    first, second = isotypic_decomposition(model.bigrading, model.action, model.polarization)
    skewed = dataclasses.replace(second, embedding=first.embedding + second.embedding)
    with pytest.raises(DecompositionError, match="factors are not pairwise orthogonal under S"):
        _verify_decomposition(model.bigrading, model.action, model.polarization,
                              [first, skewed], model.weight)


@pytest.mark.parametrize("forge, message", [
    (lambda cols, h: [cols[0], cols[0], *cols[2:]], "embedding columns are dependent"),
    (lambda cols, h: [tuple(a + b for a, b in zip(cols[0], h)), *cols[1:]],
     "factor is not invariant under the action"),
    (lambda cols, h: [tuple(2 * a for a in cols[0]), *cols[1:]],
     "restricted action differs from the ('S', 1, 1, 0) model"),
])
def test_verification_rejects_forged_factor_embeddings(forge, message):
    model = direct_sum_models([build_model("S", 1, 1), build_model("H", 0, 0, l=1)])
    factors = isotypic_decomposition(model.bigrading, model.action, model.polarization)
    (s_index, s_factor), = [(i, f) for i, f in enumerate(factors) if f.kind == "S"]
    h_column, = next(f for f in factors if f.kind == "H").embedding.columns()
    cols = forge(s_factor.embedding.columns(), h_column)
    factors[s_index] = dataclasses.replace(
        s_factor, embedding=ExactMatrix.from_columns(cols, ambient_dim=model.dim))
    with pytest.raises(DecompositionError, match=re.escape(message)):
        _verify_decomposition(model.bigrading, model.action, model.polarization,
                              factors, model.weight)


def test_isotypic_scan_stops_once_the_lowest_space_is_used_up(monkeypatch):
    model = build_model("S", 3, 3)
    counts = {"rank": 0, "kernel": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sl2rep, "rank", counting("rank", sl2rep.rank))
    monkeypatch.setattr(sl2rep, "kernel", counting("kernel", sl2rep.kernel))
    factors = isotypic_decomposition(model.bigrading, model.action, model.polarization)
    assert [f.params() for f in factors] == [("S", 3, 3, 0)]
    # trying every m and n below the dimension 16 takes 17 ranks and 32 kernels
    assert counts["rank"] <= 5
    assert counts["kernel"] <= 20


def test_decomposition_rejects_nonhorizontal_bigrading():
    model = build_model("S", 1)
    fake = {
        (1, 0): Subspace.from_columns(2, [[1, 0]]),
        (0, 1): Subspace.from_columns(2, [[0, 1]]),
    }
    with pytest.raises(NotHorizontal, match=re.escape("X+_1 does not shift type (1,0) to (0,1)")):
        isotypic_decomposition(fake, model.action)


# ----------------------------------------------------------------------
# the alpha frame


def test_alpha_basis_of_s1():
    model = build_model("S", 1, 0)
    factor = isotypic_decomposition(model.bigrading, model.action)[0]
    alphas = alpha_basis(factor, model.action)
    assert set(alphas) == {(0, 0), (1, 0)}
    assert alphas[(1, 0)] == (scalar(1), -I)
    assert alphas[(0, 0)] == (-I, scalar(0))


def test_alpha_basis_of_point_model():
    model = build_model("S", 0, 0)
    factor = isotypic_decomposition(model.bigrading, model.action)[0]
    alphas = alpha_basis(factor, model.action)
    assert set(alphas) == {(0, 0)}
    assert any(alphas[(0, 0)])


def test_alpha_basis_weights_and_lowering_on_s11():
    model = build_model("S", 1, 1)
    factor = isotypic_decomposition(model.bigrading, model.action)[0]
    act = model.action
    alphas = alpha_basis(factor, act)
    assert set(alphas) == {(k, l) for k in (0, 1) for l in (0, 1)}
    n1, n2 = act.nminus
    assert alphas[(0, 0)] == n1.apply(n2.apply(alphas[(1, 1)]))
    w1 = monodromy_weight_filtration(n1)
    wt = monodromy_weight_filtration(n1 + n2)
    for (k, l), vec in alphas.items():
        assert w1.step(2 * k - 1).contains_vector(vec)
        assert not w1.step(2 * k - 2).contains_vector(vec)
        assert wt.step(2 * (k + l) - 2).contains_vector(vec)
        assert not wt.step(2 * (k + l) - 3).contains_vector(vec)
    for (k, l), vec in alphas.items():
        lowered = n1.apply(vec)
        if k == 0:
            assert not any(lowered)
        else:
            assert lowered == alphas[(k - 1, l)]


def test_alpha_basis_requires_symmetric_kind():
    model = build_model("H", 0, 0, l=1)
    factor = isotypic_decomposition(model.bigrading, model.action)[0]
    with pytest.raises(WrongKind):
        alpha_basis(factor, model.action)


def test_action_constructor_rejects_noncommuting_pairs():
    s1 = build_model("S", 1, 0).action
    s2 = build_model("S", 0, 1).action
    with pytest.raises(ValueError):
        Sl2PairAction(nminus=(s1.nminus[0], s1.nminus[0]),
                      y=(s1.y[0], s1.y[0]),
                      nplus=(s1.nplus[0], s1.nplus[0]))
    # sanity: the genuine tensor pair passes
    model = build_model("S", 1, 1)
    assert s1.dim == s2.dim == 2 and model.action.dim == 4


# ----------------------------------------------------------------------
# the trusted constructors


def _stalk_spaces(datum: MonodromyDatum, mode: str):
    try:
        c = l2complex.build_stalk_complex(datum, mode)
    except l2complex.IllFormedComplex as exc:
        return str(exc)
    return (c.k0, c.k1_dt1, c.k1_dt2, c.k2)


def _frame_path_outcomes() -> list:
    """Factors, both mixed-structure reports and the stalk spaces in both
    modes of the corpus models, a sheared S(2)⊗S(1) and S(1)⊗S(1) ⊕ H(1),
    and the stalk spaces of the End data, all from cold memos."""
    for memo in (sl2rep._standard_model, weightfilt._weight_filtration,
                 l2complex._bilevel_pieces):
        memo.cache_clear()
    models = [d.model for d in standard_corpus(include_end=False)]
    models.append(transport_model(build_model("S", 2, 1), _random_unipotent(random.Random(5), 6)))
    models.append(direct_sum_models([build_model("S", 1, 1), build_model("H", 0, 0, l=1)]))
    out: list = []
    for model in models:
        factors = isotypic_decomposition(model.bigrading, model.action, model.polarization)
        total = model.action.nminus[0] + model.action.nminus[1]
        W = monodromy_weight_filtration(total, model.weight).filtration
        mixed = MixedHodge(W, model.limit_filtration())
        datum = MonodromyDatum.from_model(model)
        out.append(([(f.params(), f.embedding) for f in factors], mhs_check(mixed),
                    polarized_mhs_check(mixed, total, model.polarization, model.weight),
                    [_stalk_spaces(datum, mode)
                     for mode in (l2complex.LOCAL_SYSTEM, l2complex.HODGE_BUNDLE)]))
    out += [_stalk_spaces(d, l2complex.LOCAL_SYSTEM)
            for d in standard_corpus() if d.model is None]
    return out


def test_trusted_constructors_build_only_what_the_checking_ones_accept(monkeypatch):
    """Filtration._nested and Sl2PairAction._preserved skip checks that cannot
    fail; routed through the checking constructors, the same path raises
    nothing and gives the same answers (about 0.3 s)."""
    trusted = _frame_path_outcomes()
    calls: Counter = Counter()

    def nested(cls, ambient_dim, direction, steps):
        calls["nested"] += 1
        return Filtration(ambient_dim, direction, steps)

    def preserved(cls, nminus, y, nplus):
        calls["preserved"] += 1
        return Sl2PairAction(nminus, y, nplus)

    monkeypatch.setattr(Filtration, "_nested", classmethod(nested))
    monkeypatch.setattr(Sl2PairAction, "_preserved", classmethod(preserved))
    assert _frame_path_outcomes() == trusted
    assert calls["nested"] > 0 and calls["preserved"] == 2
