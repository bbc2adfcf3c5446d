from __future__ import annotations

import itertools
import random
import re

import pytest

from limithodge import l2complex
from limithodge.datum import MonodromyDatum, corpus_entry, end_datum, standard_corpus
from limithodge.exactla import ExactMatrix, Subspace, bigraded_pieces, image, kernel, rank
from limithodge.growth import minimal_weight
from limithodge.l2complex import (
    HODGE_BUNDLE,
    LOCAL_SYSTEM,
    AnticommutationFailure,
    DoubleComplex,
    IllFormedComplex,
    StalkComplex,
    build_stalk_complex,
    classify_l2,
    hypercohomology,
    koszul_cohomology,
    theta_image_check,
    total_cohomology,
    truncated_global_model,
    two_chart_cover,
)
from limithodge.l2verdict import directional
from limithodge.sl2rep import alpha_basis, build_model, isotypic_decomposition, transport_model
from limithodge.weightfilt import NonCommuting, monodromy_weight_filtration

from test_weightfilt import _shear


def _corpus_by_label() -> dict:
    return {d.label: d for d in standard_corpus()}


# ----------------------------------------------------------------------
# the classifier


def test_zero_form_with_second_weight_dropped_is_l2_on_first_wedge():
    v = classify_l2(frozenset(), 0, 0, 0, -2)
    assert v.is_l2_d_eps is True
    assert v.is_l2_d_eps_prime is False


def test_dt1_form_needs_first_weight_below_minus_two():
    v = classify_l2({1}, 0, 0, -2, -2)
    assert v.is_l2_d_eps is True
    bad = classify_l2({1}, 0, 0, 0, 0)
    assert bad.is_l2_d_eps is False
    assert bad.is_l2 is False
    healed = classify_l2({1}, 1, 0, 0, 0)
    assert healed.is_l2_d_eps is True
    assert healed.is_l2 is True


def test_classifier_rejects_bad_inputs():
    with pytest.raises(ValueError):
        classify_l2(frozenset(), -1, 0, 0, 0)
    with pytest.raises(ValueError):
        classify_l2({3}, 0, 0, 0, 0)


def test_global_verdict_is_swap_invariant():
    rng = random.Random(41)
    swap = {frozenset(): frozenset(), frozenset({1}): frozenset({2}),
            frozenset({2}): frozenset({1}),
            frozenset({1, 2}): frozenset({1, 2})}
    for _ in range(300):
        J = rng.choice(list(swap))
        n1, n2 = rng.randrange(0, 2), rng.randrange(0, 2)
        l1, l2 = rng.randrange(-4, 5), rng.randrange(-4, 5)
        a = classify_l2(J, n1, n2, l1, l2)
        b = classify_l2(swap[J], n2, n1, l2, l1)
        assert a.is_l2 == b.is_l2
        assert a.is_l2_d_eps == b.is_l2_d_eps_prime


def test_verdicts_monotone_in_safe_directions():
    """More vanishing or a uniform weight drop never destroys integrability."""
    rng = random.Random(43)
    for _ in range(300):
        J = rng.choice([frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})])
        n1, n2 = rng.randrange(0, 2), rng.randrange(0, 2)
        l1, l2 = rng.randrange(-4, 5), rng.randrange(-4, 5)
        base = classify_l2(J, n1, n2, l1, l2)
        dn1, dn2 = rng.randrange(0, 2), rng.randrange(0, 2)
        drop = rng.randrange(0, 3)
        moved = classify_l2(J, n1 + dn1, n2 + dn2, l1 - drop, l2 - drop)
        for field in ("is_l2_d_eps", "is_l2_d_eps_prime", "is_l2"):
            if getattr(base, field):
                assert getattr(moved, field)


def test_verdict_json_shape():
    blob = classify_l2({1, 2}, 1, 0, -1, -3).to_json()
    assert blob["component"] == [1, 2]
    assert blob["t_orders"] == [1, 0]
    assert blob["weights"] == [-1, -3]
    assert set(blob) >= {"is_l2_d_eps", "is_l2_d_eps_prime", "is_l2"}


# ----------------------------------------------------------------------
# stalk complexes and their cohomology


def test_trivial_stalk_complex():
    data = _corpus_by_label()
    c = build_stalk_complex(data["trivial"])
    assert c.dims == (1, 0, 0)
    assert hypercohomology(c) == (1, 0, 0)


def test_one_axis_jordan_stalk():
    data = _corpus_by_label()
    c = build_stalk_complex(data["jordan2-t1"])
    assert c.k0 == Subspace.from_columns(2, [[1, 0]])
    assert hypercohomology(c) == (1, 0, 0)
    assert c.euler_characteristic() == sum(
        (-1) ** i * d for i, d in enumerate(c.dims))


def test_corpus_golden_cohomology():
    data = _corpus_by_label()
    expected = {
        "trivial": (1, 0, 0),
        "jordan2-t1": (1, 0, 0),
        "jordan2-t2": (1, 0, 0),
        "s11": (1, 0, 0),
        "s21": (1, 0, 0),
        "End(jordan2-t1)": (2, 0, 0),
        "End(s11)": (4, 0, 0),
    }
    for label, h in expected.items():
        assert hypercohomology(build_stalk_complex(data[label])) == h, label


def test_s21_stalk_dimensions():
    data = _corpus_by_label()
    c = build_stalk_complex(data["s21"])
    assert c.dims == (2, 1, 0)


def test_differentials_stay_inside_the_complex():
    for datum in standard_corpus():
        c = build_stalk_complex(datum)
        for v in c.k0.basis_columns():
            assert c.k1_dt1.contains_vector(c.n1.apply(v))
            assert c.k1_dt2.contains_vector(c.n2.apply(v))
        for v in c.k1_dt1.basis_columns():
            assert c.k2.contains_vector(c.n2.apply(v))
        for v in c.k1_dt2.basis_columns():
            assert c.k2.contains_vector(c.n1.apply(v))


def test_ill_formed_complex_names_every_leg_that_leaves():
    one, zero = ExactMatrix.identity(2), ExactMatrix.zeros(2, 2)
    full, none = Subspace.full(2), Subspace.zero(2)
    with pytest.raises(IllFormedComplex, match=re.escape(
            "first differential leaves the dt1 component; "
            "second differential leaves the top component (dt2 leg)")):
        StalkComplex(full, none, full, none, one, zero)
    with pytest.raises(IllFormedComplex, match=re.escape(
            "first differential leaves the dt2 component; "
            "second differential leaves the top component (dt1 leg)")):
        StalkComplex(full, full, none, none, zero, one)


def test_nonzero_composite_differential_is_rejected():
    full = Subspace.full(2)
    m1 = ExactMatrix([[0, 1], [0, 0]])
    m2 = ExactMatrix([[0, 0], [1, 0]])
    with pytest.raises(IllFormedComplex, match="composite differential is nonzero"):
        StalkComplex(full, full, full, full, m1, m2)


def test_hodge_bundle_mode_matches_local_system_on_corpus():
    for datum in standard_corpus(include_end=False):
        flat = build_stalk_complex(datum, LOCAL_SYSTEM)
        graded = build_stalk_complex(datum, HODGE_BUNDLE)
        assert flat.dims == graded.dims
        assert hypercohomology(flat) == hypercohomology(graded)


def test_truncated_model_agrees_and_stabilizes():
    for datum in standard_corpus():
        target = hypercohomology(build_stalk_complex(datum))
        values = {d: truncated_global_model(datum, d) for d in (2, 3, 4)}
        assert values[2] == values[3] == values[4] == target, datum.label


def test_trivial_truncated_model_any_degree():
    trivial = standard_corpus()[0]
    for d in (0, 1, 5):
        assert truncated_global_model(trivial, d) == (1, 0, 0)


def test_tate_coefficients_match_both_pipelines():
    datum = MonodromyDatum.from_model(build_model("H", 0, 0, l=1), label="tate")
    stalk = hypercohomology(build_stalk_complex(datum))
    assert stalk == truncated_global_model(datum, 3)


# ----------------------------------------------------------------------
# Koszul comparison


# The transport of perfbench's cli-batch that makes the local-system stalk
# complex of S(2)(x)S(1) ill-formed.
_DEFECT_TRANSPORT = [[1, -1, -2, -4, 0, -2], [-1, 2, 0, 0, -1, 0], [0, 0, 1, 2, 0, 0],
                     [-2, 2, 0, 1, -2, 0], [2, -2, -2, -4, 1, -2], [0, 0, 1, 2, 0, 1]]
_FORM_COMPONENTS = (frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2}))
_T_ORDERS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _reference_generators(datum: MonodromyDatum, mode: str) -> list:
    """(vector, l1, l2) of each stalk generator, from the public pieces."""
    W1 = monodromy_weight_filtration(datum.n1)
    Wt = monodromy_weight_filtration(datum.n1 + datum.n2)
    if mode == LOCAL_SYSTEM:
        return [(v, a, b) for a, b, reps in bigraded_pieces(W1.filtration, Wt.filtration)
                for v in reps]
    model, out = datum.model, []
    for factor in isotypic_decomposition(model.bigrading, model.action, model.polarization):
        if factor.kind == "S":
            out += [(v, 2 * k - factor.m, 2 * (k + l) - factor.m - factor.n)
                    for (k, l), v in alpha_basis(factor, model.action).items()]
        else:
            out += [(v, minimal_weight(v, W1), minimal_weight(v, Wt))
                    for v in factor.embedding.columns()]
    return out


def _spaces_or_error(build):
    try:
        c = build()
    except IllFormedComplex as exc:
        return str(exc)
    return (c.k0, c.k1_dt1, c.k1_dt2, c.k2)


def _reference_outcome(datum: MonodromyDatum, mode: str, degree: int):
    """The stalk spaces (or the IllFormedComplex text) with each generator
    list spanned by Subspace.from_columns, and in local-system mode the
    truncated model's cohomology (or its text) built the same way."""
    generators = _reference_generators(datum, mode)

    def spaces(i: int = 0, j: int = 0) -> list:
        return [Subspace.from_columns(datum.dimension, [
            v for v, l1, l2 in generators if directional(J, i, j, l1, l2)])
            for J in _FORM_COMPONENTS]

    stalk = _spaces_or_error(lambda: StalkComplex(*spaces(), datum.n1, datum.n2, mode))
    if mode != LOCAL_SYSTEM:
        return stalk
    # a shifted cell is exact once well-formed, so its spaces are compared too
    cells = [spaces(i, j) for i, j in _T_ORDERS]
    total = (0, 0, 0)
    try:
        for i, j in itertools.product(range(degree + 1), repeat=2):
            shift = [ExactMatrix.diagonal([t] * datum.dimension) for t in (i, j)]
            cell = StalkComplex(*spaces(i, j), datum.n1 + shift[0], datum.n2 + shift[1])
            total = tuple(t + h for t, h in zip(total, hypercohomology(cell)))
    except IllFormedComplex as exc:
        return stalk, cells, str(exc)
    return stalk, cells, total


def _outcome(datum: MonodromyDatum, mode: str, degree: int):
    stalk = _spaces_or_error(lambda: build_stalk_complex(datum, mode))
    if mode != LOCAL_SYSTEM:
        return stalk
    generators, spans = l2complex._bilevel_pieces(datum.n1, datum.n2), {}
    cells = [l2complex._component_spaces(generators, spans, i, j) for i, j in _T_ORDERS]
    try:
        return stalk, cells, truncated_global_model(datum, degree)
    except IllFormedComplex as exc:
        return stalk, cells, str(exc)


def test_stalk_spaces_match_spanning_each_generator_list():
    """Both stalk modes and the truncated model (and the spaces of each of its
    cells) against spans of the generator lists, on the corpus, a sheared
    S(2)⊗S(1) and the defect transport, with one generator matrix formed per
    datum (about 0.15 s)."""
    s21 = build_model("S", 2, 1)
    sheared = MonodromyDatum.from_model(transport_model(s21, _shear(random.Random(4), 6)))
    defect = MonodromyDatum.from_model(transport_model(s21, ExactMatrix(_DEFECT_TRANSPORT)))
    data = [*standard_corpus(), sheared, defect]
    l2complex._bilevel_pieces.cache_clear()
    for datum in data:
        modes = [LOCAL_SYSTEM] + ([HODGE_BUNDLE] if datum.model is not None else [])
        for mode in modes:
            assert _outcome(datum, mode, 2) == _reference_outcome(datum, mode, 2), \
                (datum.label, mode)
    info = l2complex._bilevel_pieces.cache_info()
    assert (info.misses, info.hits) == (len(data), 2 * len(data))
    leaves = "first differential leaves the dt2 component"
    stalk, _, truncated = _outcome(defect, LOCAL_SYSTEM, 2)
    assert (stalk, truncated) == (leaves, leaves)
    assert not isinstance(_outcome(defect, HODGE_BUNDLE, 2), str)


def test_koszul_of_trivial_datum():
    trivial = standard_corpus()[0]
    assert koszul_cohomology(trivial) == (1, 2, 1)


def test_koszul_matches_direct_rank_computation():
    data = _corpus_by_label()
    datum = data["jordan2-t1"]
    from limithodge.exactla import exp_nilpotent

    g1 = exp_nilpotent(datum.n1) - ExactMatrix.identity(2)
    g2 = exp_nilpotent(datum.n2) - ExactMatrix.identity(2)
    d0 = ExactMatrix.from_function(4, 2, lambda i, j: g1[i, j] if i < 2 else g2[i - 2, j])
    d1 = ExactMatrix.from_function(2, 4, lambda i, j: g2[i, j] if j < 2 else -g1[i, j - 2])
    expected = (kernel(d0).dim,
                kernel(d1).dim - rank(d0),
                2 - rank(d1))
    assert koszul_cohomology(datum) == expected


def test_koszul_kernel_never_trivial():
    for datum in standard_corpus():
        h = koszul_cohomology(datum)
        assert h[0] >= 1


# ----------------------------------------------------------------------
# End data and the image of theta


def test_end_of_rank_one_is_inert():
    trivial = standard_corpus()[0]
    e = end_datum(trivial)
    assert e.dimension == 1
    assert e.n1.is_zero() and e.n2.is_zero()
    assert e.label == "End(trivial)"


def test_ad_of_jordan_block_graded_dims():
    data = _corpus_by_label()
    e = end_datum(data["jordan2-t1"])
    w = monodromy_weight_filtration(e.n1)
    assert w.graded_dims() == {-2: 1, 0: 2, 2: 1}


def test_ad_operators_commute_and_kill_each_other():
    for datum in standard_corpus(include_end=False):
        e = end_datum(datum)
        assert e.n1.commutator(e.n2).is_zero()
        d = datum.dimension
        flat_n2 = [datum.n2[i, j] for i in range(d) for j in range(d)]
        assert all(not x for x in e.n1.apply(flat_n2))


def test_theta_image_check_passes_on_corpus():
    for datum in standard_corpus(include_end=False):
        rep = theta_image_check(datum)
        assert rep["commutes"] is True
        assert rep["passes"] is True
        assert set(rep["entries"]) == {1, 2}


# ----------------------------------------------------------------------
# double complexes


def test_one_column_total_cohomology():
    d = ExactMatrix([[0, 0], [0, 0]])
    dc = DoubleComplex(spaces={(0, 0): 2, (0, 1): 2}, horizontal={},
                       vertical={(0, 0): d})
    assert total_cohomology(dc) == (2, 2)


def test_exact_row_collapses():
    iso = ExactMatrix.identity(3)
    dc = DoubleComplex(spaces={(0, 0): 3, (1, 0): 3},
                       horizontal={(0, 0): iso}, vertical={})
    assert total_cohomology(dc) == (0, 0)


def test_anticommutation_enforced():
    one = ExactMatrix.identity(1)
    spaces = {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    both_paths = DoubleComplex(spaces, horizontal={(0, 0): one, (0, 1): one},
                               vertical={(0, 0): one, (1, 0): one})
    # only the path through (0, 1) exists; the missing one counts as zero
    lone_path = DoubleComplex(spaces, horizontal={(0, 1): one}, vertical={(0, 0): one})
    for dc in (both_paths, lone_path):
        with pytest.raises(AnticommutationFailure,
                           match=re.escape("square at (0, 0) does not anticommute")):
            total_cohomology(dc)


def test_two_chart_cover_reproduces_stalk_cohomology():
    for datum in standard_corpus():
        c = build_stalk_complex(datum)
        h = hypercohomology(c)
        total = total_cohomology(two_chart_cover(c))
        width = max(len(total), 3)
        lhs = tuple(total) + (0,) * (width - len(total))
        rhs = h + (0,) * (width - 3)
        assert lhs == rhs, datum.label


# ----------------------------------------------------------------------
# datum plumbing


def test_datum_validates_inputs():
    n = ExactMatrix([[0, 1], [0, 0]])
    bad = ExactMatrix([[0, 0], [1, 0]])
    with pytest.raises(NonCommuting):
        MonodromyDatum(weight=1, n1=n, n2=bad)
    with pytest.raises(ValueError):
        MonodromyDatum(weight=0, n1=ExactMatrix.identity(2),
                       n2=ExactMatrix.zeros(2, 2))
    with pytest.raises(ValueError, match=r"polarization \(S\) is 3x3, not 2x2"):
        MonodromyDatum(weight=1, n1=n, n2=n, polarization=ExactMatrix.identity(3))


def test_corpus_labels_are_stable():
    labels = [d.label for d in standard_corpus()]
    assert labels == ["trivial", "jordan2-t1", "jordan2-t2", "s11", "s21",
                      "End(jordan2-t1)", "End(s11)"]


def test_corpus_entry_builds_the_labelled_datum_alone():
    for datum in standard_corpus():
        assert corpus_entry(datum.label) == datum
    assert corpus_entry("End(trivial)") is None
    assert corpus_entry("no-such-label") is None
