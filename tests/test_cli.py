from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import limithodge
from limithodge.cli import main

CONFIGS = Path(__file__).with_name("dbar_configs")


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured


def _run_json(argv, capsys):
    code, captured = _run(argv, capsys)
    assert code == 0, captured.err or captured.out
    return json.loads(captured.out)


def _run_error(argv, capsys):
    code, captured = _run(argv, capsys)
    assert code != 0
    assert captured.out == ""
    blob = json.loads(captured.err)
    assert blob["error"]["code"] == code
    return code, blob["error"]


def _write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _jordan_datum(tmp_path, name="jordan.json"):
    return _write_json(
        tmp_path / name,
        {
            "dimension": 2,
            "weight": 1,
            "N1": [[0, 1], [0, 0]],
            "N2": [[0, 0], [0, 0]],
        },
    )


# ----------------------------------------------------------------------
# report plumbing


def test_report_envelope_and_determinism(tmp_path, capsys):
    path = _jordan_datum(tmp_path)
    first = _run(["weight-filtration", path], capsys)
    second = _run(["weight-filtration", path], capsys)
    assert first[0] == second[0] == 0
    assert first[1].out == second[1].out
    report = json.loads(first[1].out)
    assert set(report) == {"command", "inputs", "results", "warnings"}
    assert report["command"] == "weight-filtration"
    assert len(report["inputs"]["digest"]) == 16
    assert report["warnings"] == []


def test_digest_tracks_the_input(tmp_path, capsys):
    a = _jordan_datum(tmp_path, "a.json")
    b = _write_json(
        tmp_path / "b.json",
        {"dimension": 2, "N1": [[0, 0], [0, 0]], "N2": [[0, 1], [0, 0]]},
    )
    ra = _run_json(["weight-filtration", a], capsys)
    rb = _run_json(["weight-filtration", b], capsys)
    assert ra["inputs"]["digest"] != rb["inputs"]["digest"]


def test_table_format(capsys):
    code, captured = _run(
        ["--format", "table", "dbar-region", "--p", "0", "--q", "2"], capsys)
    assert code == 0
    assert "covered" in captured.out
    assert "false" in captured.out
    with pytest.raises(json.JSONDecodeError):
        json.loads(captured.out)


# ----------------------------------------------------------------------
# weight filtrations and cones


def test_weight_filtration_of_a_jordan_block(tmp_path, capsys):
    path = _jordan_datum(tmp_path)
    report = _run_json(["weight-filtration", path], capsys)
    results = report["results"]
    assert results["operator"] == "cone"
    assert results["center"] == 0
    assert results["graded_dims"] == {"-1": 1, "1": 1}
    assert [s["l"] for s in results["steps"]] == sorted(s["l"] for s in results["steps"])
    for step in results["steps"]:
        assert step["dim"] == len(step["basis"])


def test_weight_filtration_operator_and_center_flags(tmp_path, capsys):
    path = _jordan_datum(tmp_path)
    report = _run_json(
        ["weight-filtration", path, "--operator", "n2", "--center", "1"], capsys)
    assert report["results"]["graded_dims"] == {"1": 2}


def test_cone_check_builtin(capsys):
    report = _run_json(["cone-check", "s11", "--samples", "5", "--seed", "1"], capsys)
    results = report["results"]
    assert results["independent"] is True
    assert len(results["samples"]) == 6
    assert results["samples"][0] == ["1", "1"]


def test_cone_check_with_no_samples_checks_the_base_filtration_only(capsys):
    results = _run_json(["cone-check", "s11", "--samples", "0"], capsys)["results"]
    assert results["independent"] is True
    assert results["samples"] == [["1", "1"]]


@pytest.mark.parametrize("samples", ["-3", "101", "1000000000"])
def test_cone_check_samples_out_of_range_exit_2(capsys, samples):
    code, error = _run_error(["cone-check", "s11", "--samples", samples], capsys)
    assert (code, error["kind"]) == (2, "invalid-input")
    assert f"--samples must be between 0 and 100, got {samples}" in error["message"]


# ----------------------------------------------------------------------
# models: decomposition, frames, mixed structures


def test_decompose_model_spec(tmp_path, capsys):
    path = _write_json(
        tmp_path / "model.json",
        {"model": {"sum": [{"kind": "S", "m": 2}, {"kind": "H", "l": 1}]}},
    )
    report = _run_json(["decompose", path], capsys)
    results = report["results"]
    assert results["ambient_dim"] == 4
    assert results["weight"] == 2
    assert results["multiset"] == ["H(1)xS(0)xS(0)", "S(2)xS(0)"]
    assert results["dims_sum_ok"] is True


def test_decompose_sees_through_a_transport(tmp_path, capsys):
    transport = [[1, 0, 0, 0], [2, 1, 0, 0], [0, 1, 1, 0], [3, 0, 0, 1]]
    path = _write_json(
        tmp_path / "twisted.json",
        {"model": {"sum": [{"kind": "S", "m": 2}, {"kind": "H", "l": 1}],
                   "transport": transport}},
    )
    report = _run_json(["decompose", path], capsys)
    assert report["results"]["multiset"] == ["H(1)xS(0)xS(0)", "S(2)xS(0)"]


def test_decompose_requires_a_model(tmp_path, capsys):
    path = _jordan_datum(tmp_path)
    code, error = _run_error(["decompose", path], capsys)
    assert code == 2
    assert error["kind"] == "invalid-input"


def test_alpha_basis_reports_frames_and_warns_on_inert_factors(tmp_path, capsys):
    path = _write_json(
        tmp_path / "model.json",
        {"model": {"sum": [{"kind": "S", "m": 1},
                           {"kind": "E", "p": 1, "q": 0}]}},
    )
    report = _run_json(["alpha-basis", path], capsys)
    factors = report["results"]["factors"]
    assert len(factors) == 1
    assert factors[0]["m"] == 1 and factors[0]["n"] == 0
    assert set(factors[0]["alphas"]) == {"0,0", "1,0"}
    assert any("no alpha frame" in w for w in report["warnings"])


def test_mhs_check_on_builtin_model(capsys):
    report = _run_json(["mhs-check", "s11"], capsys)
    results = report["results"]
    assert results["is_mhs"] is True
    assert results["r_split"] is True
    assert results["polarized"]["all_pass"] is True


# about 0.02 s
def test_mhs_check_forms_its_mixed_structure_report_once(monkeypatch, capsys):
    from limithodge import hodgestruct

    calls = []
    check = hodgestruct.mhs_check
    monkeypatch.setattr(hodgestruct, "mhs_check", lambda m: calls.append(m) or check(m))
    assert _run_json(["mhs-check", "s21"], capsys)["results"]["r_split"] is True
    assert len(calls) == 1


def test_mhs_check_requires_a_filtration(tmp_path, capsys):
    path = _jordan_datum(tmp_path)
    code, error = _run_error(["mhs-check", path], capsys)
    assert code == 2
    assert error["kind"] == "invalid-input"


# ----------------------------------------------------------------------
# growth commands


def test_norm_class_alpha_frame(capsys):
    report = _run_json(["norm-class", "s11"], capsys)
    results = report["results"]
    assert results["region"] == "global"
    labels = {entry["label"] for entry in results["sections"]}
    assert labels == {"alpha[0,0]", "alpha[0,1]", "alpha[1,0]", "alpha[1,1]"}
    for entry in results["sections"]:
        for key in ("d_eps", "d_eps_prime"):
            assert len(entry[key]["weights"]) == 2
            assert "class" in entry[key]


def test_norm_class_explicit_vectors(tmp_path, capsys):
    path = _write_json(
        tmp_path / "vecs.json",
        {
            "dimension": 2,
            "N1": [[0, 1], [0, 0]],
            "N2": [[0, 0], [0, 0]],
            "vectors": [[1, 0], [0, 1]],
        },
    )
    report = _run_json(["norm-class", path, "--region", "d-eps"], capsys)
    sections = report["results"]["sections"]
    assert [e["label"] for e in sections] == ["v0", "v1"]
    assert all("d_eps" in e and "d_eps_prime" not in e for e in sections)


def test_theta_bound_on_builtin(capsys):
    report = _run_json(["theta-bound", "s21"], capsys)
    results = report["results"]
    assert results["all_bounded"] is True
    for entry in results["entries"]:
        assert entry["zero"] or entry["bounded"]
        assert entry["direction"] in (1, 2)
        assert entry["region"] in ("d_eps", "d_eps_prime")


# ----------------------------------------------------------------------
# classification commands


def test_l2_classify_region_split(capsys):
    base = ["l2-classify", "--l1", "0", "--l2", "-2"]
    whole = _run_json(base, capsys)
    assert whole["results"]["verdict"] is False
    assert whole["results"]["region"] == "global"
    wedge = _run_json(base + ["--region", "d-eps"], capsys)
    assert wedge["results"]["verdict"] is True


def test_l2_classify_component_parsing(capsys):
    report = _run_json(
        ["l2-classify", "--component", "12", "--n1", "1", "--n2", "1",
         "--l1", "0", "--l2", "0"], capsys)
    assert report["results"]["component"] == [1, 2]
    assert report["results"]["verdict"] is True
    code, error = _run_error(
        ["l2-classify", "--component", "3", "--l1", "0", "--l2", "0"], capsys)
    assert code == 2


def test_stalk_cohomology_trivial(capsys):
    report = _run_json(["stalk-cohomology", "trivial"], capsys)
    assert report["results"]["h"] == [1, 0, 0]


def test_stalk_cohomology_truncation_comparison(capsys):
    report = _run_json(
        ["stalk-cohomology", "s21", "--truncation-degree", "3",
         "--mode", "hodge-bundle"], capsys)
    results = report["results"]
    assert results["dims"] == [2, 1, 0]
    assert results["truncated_h"] == results["h"]
    assert results["agrees"] is True


def test_oracle_compare_subgrid(capsys):
    report = _run_json(
        ["oracle-compare", "--l-min", "-1", "--l-max", "0", "--n-max", "0",
         "--jobs", "2"], capsys)
    results = report["results"]
    assert results["cells"] == 16
    assert results["agreements"] == 16
    assert results["all_agree"] is True
    assert results["disagreements"] == []


def test_oracle_compare_admits_the_n_max_2_sweep(capsys):
    results = _run_json(["oracle-compare", "--n-max", "2"], capsys)["results"]
    assert (results["cells"], results["agreements"]) == (2916, 2916)


@pytest.mark.parametrize("argv, message", [
    (["--epsilon", "nan"], "--epsilon must be a number strictly between 0 and 1, got nan"),
    (["--epsilon", "-1"], "--epsilon must be a number strictly between 0 and 1, got -1.0"),
    (["--epsilon", "1"], "--epsilon must be a number strictly between 0 and 1, got 1.0"),
    (["--epsilon", "inf"], "--epsilon must be a number strictly between 0 and 1, got inf"),
    (["--n-max", "-1"], "--n-max must be non-negative, got -1"),
    (["--n-max", "3"], "give 5184 cells, more than 4096"),
    (["--l-min", "-100", "--l-max", "100"], "give 646416 cells, more than 4096"),
], ids=["epsilon-nan", "epsilon-negative", "epsilon-one", "epsilon-inf", "n-max-negative",
        "n-max-3", "wide-weights"])
def test_oracle_compare_rejects_meaningless_grids_before_numpy_loads(capsys, argv, message):
    argv = ["oracle-compare", *argv]
    assert _cli_in_subprocess(argv)[:4] == (2, "cli", False, False)
    code, error = _run_error(argv, capsys)
    assert (code, error["kind"]) == (2, "invalid-input")
    assert message in error["message"]


def test_end_check_builtin(capsys):
    report = _run_json(["end-check", "jordan2-t1"], capsys)
    results = report["results"]
    assert results["end_dimension"] == 4
    assert results["commutes"] is True
    assert results["passes"] is True
    assert set(results["entries"]) == {"1", "2"}


# ----------------------------------------------------------------------
# dbar commands


def test_dbar_region_coverage(capsys):
    report = _run_json(["dbar-region", "--p", "0", "--q", "2"], capsys)
    assert report["results"]["covered"] is False
    report = _run_json(
        ["dbar-region", "--p", "0", "--q", "1", "--k", "-2", "--l", "-1"], capsys)
    assert report["results"]["covered"] is True


def test_dbar_solve_monomial_pair(tmp_path, capsys):
    config = _write_json(
        tmp_path / "solve.json",
        {
            "k": -1.0,
            "l": 0.5,
            "modes": [
                {"m": 3, "n": -1, "component": 1, "profile": "poly",
                 "params": {"powers": [2, 1], "amplitude": 0.5}},
                {"m": 2, "n": 0, "component": 2, "profile": "poly",
                 "params": {"powers": [3, 0], "amplitude": 1.0}},
            ],
        },
    )
    report = _run_json(["dbar-solve", config], capsys)
    results = report["results"]
    assert results["residual_ok"] is True
    assert results["residual"] < 1e-6
    assert results["grid"]["points"] == 256
    assert results["norms"]["phi"] > 0 and results["norms"]["u"] > 0
    assert results["c"] is not None and results["c"] > 0
    # solved even though the classical existence theorem does not apply here
    assert results["hormander_covered"] is False
    assert results["corners"] == [
        {"component": 1, "mode": [2, -1],
         "corner": [pytest.approx(results["grid"]["a"]), 0.0]},
    ]


def test_dbar_solve_rejects_non_file_input(capsys):
    code, error = _run_error(["dbar-solve", "trivial"], capsys)
    assert code == 2
    assert error["kind"] == "invalid-input"


# ----------------------------------------------------------------------
# errors and input resolution


def test_missing_file_exits_2(capsys):
    code, error = _run_error(["weight-filtration", "no-such-datum"], capsys)
    assert code == 2
    assert error["kind"] == "invalid-input"


def test_unparseable_file_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, error = _run_error(["weight-filtration", str(path)], capsys)
    assert code == 2


def test_zero_denominator_entry_exits_2(tmp_path, capsys):
    path = _write_json(
        tmp_path / "zero-den.json",
        {"dimension": 2, "N1": [[0, "1/0"], [0, 0]], "N2": [[0, 0], [0, 0]]},
    )
    code, error = _run_error(["weight-filtration", path], capsys)
    assert code == 2
    assert error["kind"] == "invalid-input"


def test_non_commuting_datum_exits_3(tmp_path, capsys):
    path = _write_json(
        tmp_path / "bad.json",
        {"dimension": 2, "N1": [[0, 1], [0, 0]], "N2": [[0, 0], [1, 0]]},
    )
    code, error = _run_error(["weight-filtration", path], capsys)
    assert code == 3
    assert error["kind"] == "precondition-violated"


def test_non_nilpotent_operator_exits_3(tmp_path, capsys):
    path = _write_json(
        tmp_path / "unipotent.json",
        {"dimension": 2, "N1": [[1, 0], [0, 1]], "N2": [[0, 0], [0, 0]]},
    )
    code, error = _run_error(["weight-filtration", path], capsys)
    assert code == 3


def test_logarithm_not_run_must_still_be_nilpotent(tmp_path, capsys):
    path = _write_json(
        tmp_path / "unipotent-n2.json",
        {"dimension": 2, "N1": [[0, 1], [0, 0]], "N2": [[1, 0], [0, 1]]},
    )
    code, error = _run_error(["weight-filtration", path, "--operator", "n1"], capsys)
    assert code == 3
    assert error["kind"] == "precondition-violated"
    assert "does not power to zero" in error["message"]


def test_excluded_exponent_exits_4(tmp_path, capsys):
    config = _write_json(
        tmp_path / "edge.json",
        {"k": 1.0, "l": 0.0, "modes": [
            {"m": 0, "n": 0, "component": 2, "profile": "poly", "params": {}}]},
    )
    code, error = _run_error(["dbar-solve", config], capsys)
    assert code == 4
    assert error["kind"] == "excluded-exponent"


@pytest.mark.parametrize("key, value", [("k", "nan"), ("l", "inf"), ("A", "nan")])
def test_non_finite_dbar_exponent_exits_2(tmp_path, capsys, key, value):
    payload = {"k": 0.0, "l": 0.0, "modes": [
        {"m": 0, "n": 0, "component": 2, "profile": "poly", "params": {}}]}
    payload[key] = value
    config = _write_json(tmp_path / "non-finite.json", payload)
    code, error = _run_error(["dbar-solve", config], capsys)
    assert code == 2
    assert error["kind"] == "invalid-input"
    assert f"{key} must be finite" in error["message"]


@pytest.mark.parametrize("flag, value", [("--k", "nan"), ("--l", "inf")])
def test_non_finite_dbar_region_exponent_exits_2(capsys, flag, value):
    code, error = _run_error(["dbar-region", "--p", "0", "--q", "1", flag, value], capsys)
    assert code == 2
    assert error["kind"] == "invalid-input"
    assert f"{flag[2:]} must be finite" in error["message"]


def test_dbar_solve_non_object_params_exits_2(tmp_path, capsys):
    config = _write_json(
        tmp_path / "params-list.json",
        {"k": 0.5, "l": 0.5, "modes": [
            {"m": 0, "n": 0, "component": 2, "profile": "poly", "params": [1]}]},
    )
    code, error = _run_error(["dbar-solve", config], capsys)
    assert code == 2
    assert error["kind"] == "invalid-input"
    assert "must be an object" in error["message"]


@pytest.mark.parametrize("field, value", [
    ("m", 1.7), ("m", "2"), ("n", True), ("component", 2.0), ("degree", 1.0),
    ("points", "256"),
])
def test_dbar_solve_integer_fields_must_be_json_integers(tmp_path, capsys, field, value):
    mode = {"m": 0, "n": 0, "component": 2, "profile": "poly", "params": {}}
    payload = {"k": 0.5, "l": 0.5, "modes": [mode]}
    (payload if field in ("degree", "points") else mode)[field] = value
    config = _write_json(tmp_path / "config.json", payload)
    code, error = _run_error(["dbar-solve", config], capsys)
    assert code == 2
    assert f"{field} must be an integer, got {value!r}" in error["message"]


@pytest.mark.parametrize("payload, field, value", [
    ({"model": {"kind": "S", "m": 1.7}}, "m", 1.7),
    ({"model": {"kind": "S", "n": "1"}}, "n", "1"),
    ({"model": {"kind": "H", "l": True}}, "l", True),
    ({"model": {"sum": [{"kind": "E", "p": 1.0}]}}, "p", 1.0),
    ({"model": {"kind": "E", "p": 1, "q": "0"}}, "q", "0"),
    ({"model": {"kind": "S", "m": 1}, "weight": 1.5}, "weight", 1.5),
    ({"dimension": 2.0, "N1": [[0, 1], [0, 0]], "N2": [[0, 0], [0, 0]]}, "dimension", 2.0),
    ({"dimension": 2, "weight": "1", "N1": [[0, 1], [0, 0]], "N2": [[0, 0], [0, 0]]},
     "weight", "1"),
])
def test_datum_integer_fields_must_be_json_integers(tmp_path, capsys, payload, field, value):
    path = _write_json(tmp_path / "datum.json", payload)
    code, error = _run_error(["weight-filtration", path], capsys)
    assert code == 2
    assert f"{field} must be an integer, got {value!r}" in error["message"]


@pytest.mark.parametrize("labels", ["ab", 5, ["a", 1]])
def test_datum_labels_must_be_a_list_of_strings(tmp_path, capsys, labels):
    path = _write_json(tmp_path / "datum.json",
                       {"model": {"kind": "S", "m": 1}, "labels": labels})
    code, error = _run_error(["weight-filtration", path], capsys)
    assert code == 2
    assert f"labels must be a list of strings, got {labels!r}" in error["message"]



@pytest.mark.parametrize("hodge_numbers", [3, [1, -1], [1, 1.0], [True], ["1"]])
def test_datum_hodge_numbers_must_be_a_list_of_non_negative_integers(tmp_path, capsys,
                                                                    hodge_numbers):
    path = _write_json(tmp_path / "datum.json",
                       {"model": {"kind": "S", "m": 1}, "hodge_numbers": hodge_numbers})
    code, error = _run_error(["weight-filtration", path], capsys)
    assert code == 2
    assert ("hodge_numbers must be a list of non-negative integers, "
            f"got {hodge_numbers!r}") in error["message"]


def test_datum_hodge_numbers_are_accepted_and_not_read(tmp_path, capsys):
    plain = _write_json(tmp_path / "plain.json", {"model": {"kind": "S", "m": 1}})
    numbered = _write_json(tmp_path / "numbered.json",
                           {"model": {"kind": "S", "m": 1}, "hodge_numbers": [1, 1]})
    assert (_run_json(["weight-filtration", plain], capsys)["results"]
            == _run_json(["weight-filtration", numbered], capsys)["results"])


@pytest.mark.parametrize("command", ["decompose", "weight-filtration"])
def test_datum_model_must_match_the_dimension(tmp_path, capsys, command):
    path = _write_json(tmp_path / "datum.json",
                       {"model": {"kind": "S", "m": 1, "n": 1}, "dimension": 2,
                        "N1": [[0, 1], [0, 0]], "N2": [[0, 0], [0, 0]]})
    code, error = _run_error([command, path], capsys)
    assert (code, error["kind"]) == (2, "invalid-input")
    assert error["message"] == "model has dimension 4, not 2"

@pytest.mark.parametrize("spec, message", [
    ({"kind": "S", "m": 40, "n": 40},
     "model dimension (m, n, sum) must be at most 64, got 1681"),
    ({"kind": "H", "l": 10**6}, "l must satisfy |l| <= 16, got 1000000"),
    ({"kind": "E", "m": 1, "p": 0, "q": -17}, "q must satisfy |q| <= 16, got -17"),
    ({"sum": [{"kind": "E", "m": 31}, {"kind": "S"}]},
     "model dimension (m, n, sum) must be at most 64, got 65"),
    # at the caps the spec is accepted and reaches build_model
    ({"kind": "E", "m": 31, "p": 16, "q": -16}, "build_model called"),
])
def test_model_specs_are_capped_before_any_model_is_built(tmp_path, capsys, monkeypatch,
                                                          spec, message):
    from limithodge import sl2rep

    def stand_in(*args, **kwargs):
        raise ValueError("build_model called")

    monkeypatch.setattr(sl2rep, "build_model", stand_in)
    path = _write_json(tmp_path / "datum.json", {"model": spec})
    code, error = _run_error(["decompose", path], capsys)
    assert (code, error["kind"]) == (2, "invalid-input")
    assert error["message"] == f"bad model spec: {message}"


@pytest.mark.parametrize("dimension, message", [
    (65, "dimension must be at most 64, got 65"),
    # at the cap the datum is accepted and its matrices are read
    (64, "matrix read"),
])
def test_explicit_dimension_is_capped_before_any_matrix_is_read(tmp_path, capsys,
                                                                monkeypatch, dimension,
                                                                message):
    from limithodge import serialize

    def stand_in(*args, **kwargs):
        raise ValueError("matrix read")

    monkeypatch.setattr(serialize, "matrix_from_json", stand_in)
    zeros = [[0] * dimension for _ in range(dimension)]
    path = _write_json(tmp_path / "datum.json",
                       {"dimension": dimension, "N1": zeros, "N2": zeros})
    code, error = _run_error(["weight-filtration", path], capsys)
    assert (code, error["kind"]) == (2, "invalid-input")
    assert error["message"] == f"{path}: {message}"


_WRONG_SIZE = {
    "F": ("hodge (F)", {"ambient_dim": 3, "direction": "decreasing",
                        "steps": [{"l": 0, "basis": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}]}),
    "S": ("polarization (S)", [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
}


@pytest.mark.parametrize("field", sorted(_WRONG_SIZE))
@pytest.mark.parametrize("command", ["stalk-cohomology", "mhs-check"])
def test_datum_hodge_and_polarization_must_match_the_dimension(tmp_path, capsys, field,
                                                               command):
    name, value = _WRONG_SIZE[field]
    path = _write_json(tmp_path / "datum.json", {"model": {"kind": "S", "m": 1}, field: value})
    code, error = _run_error([command, path], capsys)
    assert (code, error["kind"]) == (2, "invalid-input")
    assert error["message"].startswith(name)


@pytest.mark.parametrize("command", ["stalk-cohomology", "mhs-check"])
def test_datum_with_both_a_model_and_f_exits_2(tmp_path, capsys, command):
    # a right-sized F that mhs-check used to ignore for the model's own filtration
    F = {"ambient_dim": 2, "direction": "decreasing",
         "steps": [{"l": 0, "basis": [[1, 0], [0, 1]]}, {"l": 1, "basis": [[0, 1]]}]}
    path = _write_json(tmp_path / "datum.json", {"model": {"kind": "S", "m": 1}, "F": F})
    code, error = _run_error([command, path], capsys)
    assert (code, error["kind"]) == (2, "invalid-input")
    assert error["message"] == f"{path}: give 'F' or a 'model', not both"


# every error class of the library, with its builtin base and exit code
_ERROR_CLASSES = [
    ("weightfilt", "NotNilpotent", ValueError, 3),
    ("weightfilt", "NonCommuting", ValueError, 3),
    ("weightfilt", "NonPositiveCoefficient", ValueError, 3),
    ("weightfilt", "AxiomFailure", RuntimeError, 5),
    ("sl2rep", "NotHorizontal", ValueError, 3),
    ("sl2rep", "NotIsometric", ValueError, 3),
    ("sl2rep", "WrongKind", ValueError, 3),
    ("sl2rep", "DecompositionError", RuntimeError, 5),
    ("hodgestruct", "NotAHodgeFiltration", ValueError, 3),
    ("hodgestruct", "NotPolarized", ValueError, 3),
    ("l2complex", "IllFormedComplex", ValueError, 5),
    ("l2complex", "AnticommutationFailure", ValueError, 5),
    ("dbarspec", "ExcludedExponent", ValueError, 4),
    ("dbarspec", "IncompatibleInput", ValueError, 3),
    ("dbarspec", "DivergentNorm", ValueError, 3),
    ("cli", "CliError", Exception, 2),
]
_KINDS = {2: "invalid-input", 3: "precondition-violated", 4: "excluded-exponent",
          5: "internal-invariant-failure"}


@pytest.mark.parametrize("module, name, base, code", _ERROR_CLASSES,
                         ids=[name for _, name, _, _ in _ERROR_CLASSES])
def test_error_classes_carry_their_exit_code_and_kind(module, name, base, code):
    cls = getattr(importlib.import_module(f"limithodge.{module}"), name)
    assert issubclass(cls, limithodge.LimithodgeError)
    assert issubclass(cls, base)
    assert (cls.code, cls.kind) == (code, _KINDS[code])


def _subprocess_env():
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(limithodge.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}


def _cli_in_subprocess(argv):
    """The CLI in a fresh interpreter: its exit code, the ``limithodge.*`` modules
    it loaded (names after the dot, sorted, space-separated), whether numpy and
    scipy got loaded, and its error object (None on success)."""
    probe = ("import json, sys\nfrom limithodge.cli import main\ncode = main(sys.argv[1:])\n"
             "mods = sorted(m.partition('.')[2] for m in sys.modules"
             " if m.startswith('limithodge.'))\n"
             "print(json.dumps([code, ' '.join(mods), 'numpy' in sys.modules,"
             " any(m.partition('.')[0] == 'scipy' for m in sys.modules)]))")
    run = subprocess.run([sys.executable, "-c", probe, *argv], env=_subprocess_env(),
                         capture_output=True, text=True, check=True)
    code, modules, numpy_loaded, scipy_loaded = json.loads(run.stdout.splitlines()[-1])
    error = json.loads(run.stderr.splitlines()[-1])["error"] if code else None
    return code, modules, numpy_loaded, scipy_loaded, error


_NAN_AMPLITUDE = {"k": 0.5, "l": 0.5, "modes": [
    {"m": 0, "n": 0, "component": 2, "profile": "bump", "params": {"amplitude": "nan"}}]}


def _poly_mode(m, powers):
    return {"k": 0.5, "l": 0.5, "modes": [
        {"m": m, "n": 0, "component": 2, "profile": "poly", "params": {"powers": powers}}]}


_RAW_PAIR = {"dimension": 3, "N1": [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
             "N2": [[0, 0, 1], [0, 0, 0], [0, 0, 0]]}
_NON_COMMUTING = {"dimension": 2, "N1": [[0, 1], [0, 0]], "N2": [[0, 0], [2, 0]]}
# The transport of perfbench's cli-batch that makes the local-system stalk
# complex of S(2)(x)S(1) ill-formed.
_DEFECT_TRANSPORT = [[1, -1, -2, -4, 0, -2], [-1, 2, 0, 0, -1, 0], [0, 0, 1, 2, 0, 0],
                     [-2, 2, 0, 1, -2, 0], [2, -2, -2, -4, 1, -2], [0, 0, 1, 2, 0, 1]]

# the limithodge modules a subcommand may load, after the cli itself; a datum
# loads ``datum`` and, to validate it, ``weightfilt``
_DBAR = "cli dbarspec"
_RAW = "cli datum exactla serialize weightfilt"
_MODEL = "cli datum exactla serialize sl2rep weightfilt"
_L2 = "cli datum exactla growth l2complex l2verdict serialize sl2rep weightfilt"


def _model(spec):
    return {"model": spec}


@pytest.mark.parametrize("argv, code, modules, numpy_loaded", [
    (["dbar-region", "--p", "0", "--q", "1", "--k", "0.5", "--l", "2"], 0, _DBAR, False),
    (["dbar-region", "--p", "0", "--q", "1", "--k", "nan"], 2, _DBAR, False),
    (["dbar-solve", str(CONFIGS / "exit2-k-nan.json")], 2, _DBAR, False),
    (["dbar-solve", str(CONFIGS / "exit2-degree-0.json")], 2, _DBAR, False),
    (["dbar-solve", str(CONFIGS / "exit2-excluded-malformed-powers.json")], 2, _DBAR, False),
    (["dbar-solve", str(CONFIGS / "exit4-excluded.json")], 4, _DBAR, False),
    (["dbar-solve", _NAN_AMPLITUDE], 2, _DBAR, False),
    (["dbar-solve", _poly_mode(100000, [0, 0])], 2, _DBAR, False),
    (["dbar-solve", _poly_mode(-100000, [0, 0])], 2, _DBAR, False),
    (["dbar-solve", _poly_mode(0, [0, 1000])], 2, _DBAR, False),
    (["dbar-solve", str(CONFIGS / "solve-corner.json")], 0, "cli dbar dbarspec exactla", True),
    (["oracle-compare", "--l-min", "-1", "--l-max", "0", "--n-max", "0", "--jobs", "1"], 0,
     "cli dbar dbarspec exactla l2verdict", True),
    (["l2-classify", "--l1", "0", "--l2", "-2"], 0, "cli l2verdict", False),
    (["weight-filtration", _RAW_PAIR], 0, _RAW, False),
    (["cone-check", _RAW_PAIR, "--samples", "2"], 0, _RAW, False),
    (["weight-filtration", _NON_COMMUTING], 3, _RAW, False),
    (["decompose", b'{"model": {"kind": "S", "m": '], 2, "cli", False),
    (["weight-filtration", "no-such-datum"], 2, "cli datum exactla weightfilt", False),
    (["decompose", _model({"kind": "S", "m": 1, "n": 1})], 0, _MODEL, False),
    (["alpha-basis", _model({"kind": "S", "m": 2})], 0, _MODEL, False),
    # a built-in label loads what a model file does, and no more
    (["alpha-basis", "s11"], 0, _MODEL, False),
    (["mhs-check", _model({"kind": "H", "l": 1, "m": 1})], 0,
     "cli datum exactla hodgestruct serialize sl2rep weightfilt", False),
    (["norm-class", "s11"], 0, "cli datum exactla growth sl2rep weightfilt", False),
    (["theta-bound", _model({"kind": "S", "m": 1, "n": 1})], 0,
     "cli datum exactla growth serialize sl2rep weightfilt", False),
    (["stalk-cohomology", _model({"kind": "S", "m": 1, "n": 1}), "--truncation-degree", "1"],
     0, _L2, False),
    # pins a known defect: the local-system stalk complex of this transported
    # model is ill-formed, which the CLI reports as an internal failure (exit 5)
    (["stalk-cohomology", _model({"kind": "S", "m": 2, "n": 1, "transport": _DEFECT_TRANSPORT})],
     5, _L2, False),
    (["end-check", "jordan2-t1"], 0,
     "cli datum exactla growth l2complex l2verdict sl2rep weightfilt", False),
], ids=["region", "region-nan", "k-nan", "degree-0", "excluded-malformed", "excluded",
        "amplitude-nan", "m-huge", "m-huge-negative", "power-huge", "solve", "oracle-compare",
        "l2-classify", "weight-filtration", "cone-check", "exit3-noncommuting",
        "unparseable", "missing-datum", "decompose", "alpha-basis", "alpha-basis-builtin",
        "mhs-check", "norm-class", "theta-bound", "stalk-cohomology",
        "exit5-ill-formed-known-defect", "end-check"])
def test_dbar_commands_load_numpy_only_to_solve(tmp_path, argv, code, modules, numpy_loaded):
    """Each subcommand loads only the modules it runs; numpy only to solve, scipy never."""
    # a dict or bytes stands for a file written on the fly, outside the golden dbar_configs/
    path = tmp_path / "input.json"
    for a in argv:
        if isinstance(a, (dict, bytes)):
            path.write_bytes(a if isinstance(a, bytes) else json.dumps(a).encode())
    argv = [str(path) if isinstance(a, (dict, bytes)) else a for a in argv]
    got_code, got_modules, got_numpy, got_scipy, error = _cli_in_subprocess(argv)
    assert (got_code, got_modules, got_numpy, got_scipy) == (code, modules, numpy_loaded, False)
    if code:
        assert error["code"] == code
    if code == 5:
        assert "differential leaves" in error["message"]


def test_oversized_dbar_grid_exits_2_before_numpy_loads(tmp_path, capsys):
    config = _write_json(
        tmp_path / "huge.json",
        {"k": 0.5, "l": 0.5, "points": 100000000, "modes": [
            {"m": 0, "n": 0, "component": 2, "profile": "poly", "params": {}}]},
    )
    assert _cli_in_subprocess(["dbar-solve", config])[:4] == (2, _DBAR, False, False)
    _, error = _run_error(["dbar-solve", config], capsys)
    assert "points must be at most 2048" in error["message"]


def test_corpus_directory_resolution(tmp_path, capsys, monkeypatch):
    _jordan_datum(tmp_path, "mydatum.json")
    monkeypatch.setenv("LIMITHODGE_CORPUS", str(tmp_path))
    report = _run_json(["weight-filtration", "mydatum"], capsys)
    assert report["results"]["graded_dims"] == {"-1": 1, "1": 1}


def test_explicit_path_beats_corpus_lookup(tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    _write_json(corpus / "d.json",
                {"dimension": 1, "N1": [[0]], "N2": [[0]]})
    local = _jordan_datum(tmp_path, "d.json")
    monkeypatch.setenv("LIMITHODGE_CORPUS", str(corpus))
    report = _run_json(["weight-filtration", local], capsys)
    assert report["results"]["graded_dims"] == {"-1": 1, "1": 1}
