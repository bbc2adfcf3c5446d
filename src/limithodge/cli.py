"""Batch front door: JSON data in, deterministic reports out.

Every subcommand reads monodromy data or an experiment config, dispatches
to the corresponding library module, and prints a report on standard
output — JSON by default, a flat key/value table with ``--format table``.
Reports are byte-identical for identical inputs.  Exact quantities are
serialized as string rationals; floating-point numbers appear only in the
``dbar-*`` reports and are rounded to 15 significant digits.

Exit codes: 0 success, 2 invalid input, 3 precondition violated (e.g.
non-commuting logarithms), 4 excluded exponent, 5 internal invariant
failure.  Errors are emitted as one JSON object on standard error.

Counts are bounded: ``cone-check --samples`` takes 0 (the base filtration
only) to ``MAX_CONE_SAMPLES`` = 100; ``oracle-compare`` needs
0 < ``--epsilon`` < 1, ``--n-max`` >= 0 and a grid of
4 (n_max+1)^2 (l_max-l_min+1)^2 <= ``MAX_ORACLE_CELLS`` = 4096 cells; a
datum's ``model`` spec has dimension at most ``MAX_MODEL_DIM`` = 64, summed
over a ``sum``, and |l|, |p|, |q| at most ``MAX_MODEL_TWIST`` = 16; the
``dimension`` of explicit ``N1``/``N2`` matrices is at most 64 as well.
Anything else exits 2, and ``oracle-compare`` exits before numpy loads; an
oversized model spec exits before any model is built, and an oversized
``dimension`` before any matrix is read.

Each handler imports the library modules it runs when it runs, so a
process loads only what its subcommand uses:

- ``dbar-region`` and a ``dbar-solve`` that exits 2 or 4 load ``dbarspec``
  only; ``dbar`` and with it numpy load only for a config that gets as far
  as solving, and for ``oracle-compare``;
- ``l2-classify`` loads ``l2verdict`` only, with no exact algebra;
- an unreadable or unparseable datum file loads nothing more;
- loading a datum takes ``datum`` (which validates it), ``exactla`` and
  ``weightfilt``, plus ``serialize`` for a file and ``sl2rep`` for a model
  spec or a built-in label; a name that is neither a file nor a label loads
  no more than ``datum`` does before it exits 2.

Every library error is a ``limithodge.LimithodgeError``, which carries its
exit code and kind, so ``main`` needs to know none of the modules that
raise them.

Input files with monodromy data follow one schema::

    {"dimension": 2, "weight": 1,
     "N1": [[...]], "N2": [[...]],          # string rationals or {"re","im"}
     "F": {...},                             # optional Hodge filtration
     "S": [[...]],                           # optional polarization
     "model": {"kind": "S", "m": 1, "n": 0}, # optional bigraded model spec
     "vectors": [[...], ...],                # optional section list
     "hodge_numbers": [...], "labels": [...]}

Every datum is loaded as a ``datum.MonodromyDatum``, so both logarithms must be
nilpotent and commute, and ``F``, ``S`` and ``model`` must have its dimension.
A ``model`` supplies its own Hodge filtration, so a datum that gives both
``model`` and ``F`` exits 2.
``labels`` must be a list of strings and ``hodge_numbers`` a list of
non-negative integers; neither is read further.

A bare name is looked up in the directory named by LIMITHODGE_CORPUS and
then among the built-in corpus labels (``trivial``, ``jordan2-t1``, ...).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import warnings
from typing import TYPE_CHECKING, Any, Sequence

from . import InternalInvariantFailure, LimithodgeError, PreconditionViolated, _integer

if TYPE_CHECKING:
    from .datum import MonodromyDatum
    from .sl2rep import Model

_REGION_FLAGS = ("d-eps", "d-eps-prime", "global")

# cone-check samples at most this many coefficient vectors
MAX_CONE_SAMPLES = 100
# oracle-compare sweeps at most this many cells; the default grid has 1296
# and ``--n-max 2`` over the default weights 2916
MAX_ORACLE_CELLS = 4096
# a datum's model spec may have at most this dimension, summed over a "sum"
# ((m+1)(n+1) per S or H factor, twice that per E factor), and so may the
# "dimension" of explicit N1/N2; the corpus and the benchmark's data stay at
# or below 12
MAX_MODEL_DIM = 64
# and |l|, |p|, |q| at most this; a mhs-check process on E(p, 0) takes about
# 0.2 s (2-core host) at p = 16, and the same at p = 64 with the cap lifted
MAX_MODEL_TWIST = 16


class CliError(LimithodgeError):
    """Input the front door cannot read (exit 2)."""

    code = 2
    kind = "invalid-input"


# ----------------------------------------------------------------------
# input resolution


def _read_payload(arg: str) -> tuple[dict | None, str]:
    """A datum argument's file as (payload, digest); (None, "") when no file has that name."""
    path = arg
    if not os.path.exists(path) and os.sep not in arg:
        base = os.environ.get("LIMITHODGE_CORPUS")
        if base:
            for cand in (os.path.join(base, arg), os.path.join(base, arg + ".json")):
                if os.path.exists(cand):
                    path = cand
                    break
    if not os.path.exists(path):
        return None, ""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CliError(f"{arg}: {exc}") from exc
    if not isinstance(payload, dict):
        raise CliError(f"{arg}: top-level JSON value must be an object")
    return payload, hashlib.sha256(raw).hexdigest()[:16]


def _model_from_spec(spec: Any) -> Model:
    """Assemble a model from its JSON description.

    {"kind": "S"|"H"|"E", "m":, "n":, "l":, "p":, "q":} for one factor,
    {"sum": [spec, ...]} for a direct sum; an optional "transport" matrix
    conjugates the result out of the split basis.  The whole spec is
    checked against ``MAX_MODEL_DIM`` and ``MAX_MODEL_TWIST`` before any
    model is built.
    """
    try:
        dim = _spec_dimension(spec)
        if dim > MAX_MODEL_DIM:
            raise ValueError(f"model dimension (m, n, sum) must be at most {MAX_MODEL_DIM}, "
                             f"got {dim}")
        return _build_spec(spec)
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(f"bad model spec: {exc}") from exc


def _spec_fields(spec: Any) -> dict[str, int]:
    """The integer fields of a one-factor spec, each checked; missing ones are 0."""
    if not isinstance(spec, dict):
        raise CliError("model spec must be an object")
    fields = {key: _integer(key, spec.get(key, 0)) for key in "mnlpq"}
    for key in "lpq":
        if abs(fields[key]) > MAX_MODEL_TWIST:
            raise ValueError(f"{key} must satisfy |{key}| <= {MAX_MODEL_TWIST}, "
                             f"got {fields[key]}")
    return fields


def _spec_dimension(spec: Any) -> int:
    """The dimension of the model a spec describes, found without building it."""
    if isinstance(spec, dict) and "sum" in spec:
        return sum(_spec_dimension(s) for s in spec["sum"])
    fields = _spec_fields(spec)
    # a negative m or n is left for build_model to reject
    base = (max(fields["m"], 0) + 1) * (max(fields["n"], 0) + 1)
    return 2 * base if spec.get("kind") == "E" else base


def _build_spec(spec: dict) -> Model:
    from .serialize import matrix_from_json
    from .sl2rep import build_model, direct_sum_models, transport_model

    if "sum" in spec:
        model = direct_sum_models([_build_spec(s) for s in spec["sum"]])
    else:
        model = build_model(spec.get("kind", "S"), **_spec_fields(spec))
    if "transport" in spec:
        model = transport_model(model, matrix_from_json(spec["transport"]))
    return model


def _load_datum(arg: str) -> tuple[MonodromyDatum, str, list[tuple] | None]:
    """A datum file or built-in label as (datum labelled ``arg``, digest, ``vectors``)."""
    payload, digest = _read_payload(arg)
    from .datum import MonodromyDatum, corpus_entry

    if payload is None:
        builtin = corpus_entry(arg)
        if builtin is None:
            raise CliError(f"no such file or corpus entry: {arg}")
        return builtin, hashlib.sha256(f"corpus:{arg}".encode()).hexdigest()[:16], None
    from .serialize import filtration_from_json, matrix_from_json, vector_from_json

    model = _model_from_spec(payload["model"]) if "model" in payload else None
    try:
        if model is not None and ("N1" not in payload or "N2" not in payload):
            n1, n2 = model.action.nminus
            dim = model.dim
            weight = _integer("weight", payload.get("weight", model.weight))
        else:
            dim = _integer("dimension", payload["dimension"])
            if dim > MAX_MODEL_DIM:
                raise ValueError(f"dimension must be at most {MAX_MODEL_DIM}, got {dim}")
            weight = _integer("weight", payload.get("weight", 0))
            n1 = matrix_from_json(payload["N1"])
            n2 = matrix_from_json(payload["N2"])
        hodge = filtration_from_json(payload["F"]) if "F" in payload else None
        pol = matrix_from_json(payload["S"]) if "S" in payload else None
        vectors = ([vector_from_json(v) for v in payload["vectors"]]
                   if "vectors" in payload else None)
        labels = payload.get("labels", [])
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise ValueError(f"labels must be a list of strings, got {labels!r}")
        hodge_numbers = payload.get("hodge_numbers", [])
        if not isinstance(hodge_numbers, list) or not all(
                type(x) is int and x >= 0 for x in hodge_numbers):
            raise ValueError("hodge_numbers must be a list of non-negative integers, "
                             f"got {hodge_numbers!r}")
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(f"{arg}: {exc}") from exc
    for label, mat in (("N1", n1), ("N2", n2)):
        if mat.rows != dim or mat.cols != dim:
            raise CliError(f"{arg}: {label} is not square of dimension {dim}")
    datum = MonodromyDatum(weight, n1, n2, hodge, pol, model, label=arg)
    if model is not None and hodge is not None:
        raise CliError(f"{arg}: give 'F' or a 'model', not both")
    return datum, digest, vectors


def _param_digest(**params: Any) -> str:
    blob = json.dumps(params, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


# ----------------------------------------------------------------------
# report assembly and rendering


def _report(command: str, digest: str, results: dict, warns: list[str] | None = None) -> dict:
    return {
        "command": command,
        "inputs": {"digest": digest},
        "results": results,
        "warnings": warns or [],
    }


def _round_floats(value: Any) -> Any:
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            return None
        return float(f"{value:.15g}")
    if isinstance(value, dict):
        return {k: _round_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(v) for v in value]
    return value


def _scalar_str(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.15g}"
    return str(value)


def _flatten_for_table(prefix: str, value: Any, rows: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        if set(value) == {"re", "im"}:
            re, im = str(value["re"]), str(value["im"])
            joined = re if im in ("0", "0/1") else f"{re}{'+' if not im.startswith('-') else ''}{im}i"
            rows.append((prefix, joined))
            return
        for key in sorted(value, key=str):
            sub = f"{prefix}.{key}" if prefix else str(key)
            _flatten_for_table(sub, value[key], rows)
        return
    if isinstance(value, list):
        if value and all(isinstance(v, (dict, list)) for v in value):
            for i, v in enumerate(value):
                _flatten_for_table(f"{prefix}[{i}]", v, rows)
            return
        rows.append((prefix, " ".join(_scalar_str(v) for v in value)))
        return
    rows.append((prefix, _scalar_str(value)))


def _render_table(report: dict) -> str:
    rows: list[tuple[str, str]] = [("command", str(report["command"])),
                                   ("inputs.digest", report["inputs"]["digest"])]
    _flatten_for_table("", report["results"], rows)
    for i, msg in enumerate(report.get("warnings", [])):
        rows.append((f"warnings[{i}]", msg))
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


def _emit(report: dict, fmt: str) -> None:
    report = _round_floats(report)
    if fmt == "table":
        sys.stdout.write(_render_table(report) + "\n")
    else:
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _fail(error: LimithodgeError | type[LimithodgeError], message: str) -> int:
    """Write the error object of ``error``'s code and kind on stderr; return the code."""
    sys.stderr.write(json.dumps({"error": {"code": error.code, "kind": error.kind,
                                           "message": message}}, sort_keys=True) + "\n")
    return error.code


# ----------------------------------------------------------------------
# sections shared by norm-class and theta-bound


def _sections_for(datum: MonodromyDatum, vectors: list[tuple] | None,
                  ) -> list[tuple[str, tuple]]:
    """Labeled flat vectors: the alpha frame of a model, or explicit vectors."""
    if datum.model is not None:
        from .sl2rep import alpha_basis, isotypic_decomposition

        factors = isotypic_decomposition(datum.model.bigrading, datum.model.action,
                                         datum.model.polarization)
        out: list[tuple[str, tuple]] = []
        for idx, factor in enumerate(factors):
            if factor.kind != "S":
                continue
            alphas = alpha_basis(factor, datum.model.action)
            prefix = f"{idx}:" if len(factors) > 1 else ""
            for (k, l) in sorted(alphas):
                out.append((f"{prefix}alpha[{k},{l}]", alphas[(k, l)]))
        if not out:
            raise PreconditionViolated("model has no symmetric factors to sample sections from")
        return out
    if vectors:
        return [(f"v{i}", v) for i, v in enumerate(vectors)]
    raise CliError("need a 'model' spec or a 'vectors' list to pick sections")


def _regions(flag: str) -> list[tuple[str, str]]:
    """(growth region, report key) pairs of a --region flag."""
    from .growth import D_EPS, D_EPS_PRIME

    both = [(D_EPS, "d_eps"), (D_EPS_PRIME, "d_eps_prime")]
    return {"d-eps": both[:1], "d-eps-prime": both[1:], "global": both}[flag]


# ----------------------------------------------------------------------
# command handlers


def _cmd_weight_filtration(args: argparse.Namespace) -> dict:
    datum, digest, _ = _load_datum(args.datum)
    from .serialize import filtration_to_json
    from .weightfilt import monodromy_weight_filtration

    if args.operator == "n1":
        op = datum.n1
    elif args.operator == "n2":
        op = datum.n2
    else:
        op = datum.n1 + datum.n2
    W = monodromy_weight_filtration(op, center=args.center)
    results = {
        "operator": args.operator,
        "center": args.center,
        "graded_dims": {str(l): d for l, d in sorted(W.graded_dims().items())},
        "steps": filtration_to_json(W.filtration)["steps"],
    }
    return _report("weight-filtration", digest, results)


def _cmd_cone_check(args: argparse.Namespace) -> dict:
    if not 0 <= args.samples <= MAX_CONE_SAMPLES:
        raise CliError(f"--samples must be between 0 and {MAX_CONE_SAMPLES}, got {args.samples}")
    datum, digest, _ = _load_datum(args.datum)
    from .weightfilt import cone_independence_report

    rep = cone_independence_report([datum.n1, datum.n2], samples=args.samples, seed=args.seed)
    return _report("cone-check", digest, rep)


def _cmd_decompose(args: argparse.Namespace) -> dict:
    datum, digest, _ = _load_datum(args.datum)
    if datum.model is None:
        raise CliError("decompose needs a 'model' spec or a built-in corpus entry")
    from .sl2rep import isotypic_decomposition

    model = datum.model
    factors = isotypic_decomposition(model.bigrading, model.action, model.polarization)
    results = {
        "ambient_dim": model.dim,
        "weight": model.weight,
        "factors": [f.to_json() for f in factors],
        "multiset": sorted(_factor_tag(f) for f in factors),
        "dims_sum_ok": sum(f.dim for f in factors) == model.dim,
    }
    return _report("decompose", digest, results)


def _factor_tag(factor: Any) -> str:
    if factor.kind == "E":
        return f"E({factor.p},{factor.q})xS({factor.m})xS({factor.n})"
    if factor.kind == "H":
        return f"H({factor.l})xS({factor.m})xS({factor.n})"
    return f"S({factor.m})xS({factor.n})"


def _cmd_alpha_basis(args: argparse.Namespace) -> dict:
    datum, digest, _ = _load_datum(args.datum)
    if datum.model is None:
        raise CliError("alpha-basis needs a 'model' spec or a built-in corpus entry")
    from .serialize import vector_to_json
    from .sl2rep import alpha_basis, isotypic_decomposition

    model = datum.model
    factors = isotypic_decomposition(model.bigrading, model.action, model.polarization)
    warns: list[str] = []
    reported = []
    for idx, factor in enumerate(factors):
        if factor.kind != "S":
            warns.append(f"factor {idx} ({_factor_tag(factor)}) has no alpha frame")
            continue
        alphas = alpha_basis(factor, model.action)
        reported.append({
            "factor": idx,
            "m": factor.m,
            "n": factor.n,
            "alphas": {f"{k},{l}": vector_to_json(v) for (k, l), v in sorted(alphas.items())},
        })
    if not reported:
        raise PreconditionViolated("no symmetric factors: nothing carries an alpha frame")
    return _report("alpha-basis", digest, {"factors": reported}, warns)


def _cmd_mhs_check(args: argparse.Namespace) -> dict:
    datum, digest, _ = _load_datum(args.datum)
    from .hodgestruct import MixedHodge, mhs_check, polarized_mhs_check, r_split_check
    from .weightfilt import monodromy_weight_filtration

    if datum.model is not None:
        F = datum.model.limit_filtration()
    elif datum.hodge is not None:
        F = datum.hodge
    else:
        raise CliError("mhs-check needs a Hodge filtration ('F' or a model)")
    center = datum.weight if args.center is None else args.center
    total = datum.n1 + datum.n2
    W = monodromy_weight_filtration(total, center=center).filtration
    mixed = MixedHodge(W, F)
    rep = mhs_check(mixed)
    results = {
        "center": center,
        "is_mhs": rep["is_mhs"],
        "weight_real": rep["weight_real"],
        "levels": rep["levels"],
        "r_split": r_split_check(mixed, rep),
    }
    if datum.polarization is not None:
        results["polarized"] = polarized_mhs_check(mixed, total, datum.polarization, center)
    return _report("mhs-check", digest, results)


def _cmd_norm_class(args: argparse.Namespace) -> dict:
    datum, digest, vectors = _load_datum(args.datum)
    from .growth import hodge_norm_class, section_from_datum

    sections = _sections_for(datum, vectors)
    entries = []
    for label, vec in sections:
        entry: dict = {"label": label}
        for region, key in _regions(args.region):
            first, second = ((datum.n1, datum.n2) if key == "d_eps"
                             else (datum.n2, datum.n1))
            s = section_from_datum(vec, first, second)
            cls = hodge_norm_class(s, region)
            entry[key] = {"weights": list(s.weights), "class": cls.to_json()}
        entries.append(entry)
    return _report("norm-class", digest,
                   {"region": args.region, "sections": entries})


def _cmd_theta_bound(args: argparse.Namespace) -> dict:
    datum, digest, vectors = _load_datum(args.datum)
    from .growth import section_from_datum, theta_apply_class

    sections = _sections_for(datum, vectors)
    entries = []
    all_bounded = True
    for label, vec in sections:
        base = section_from_datum(vec, datum.n1, datum.n2)
        for region, key in _regions(args.region):
            for direction in (1, 2):
                tc = theta_apply_class(base, direction, datum.n1, datum.n2, region)
                if not tc.zero:
                    all_bounded = all_bounded and bool(tc.bounded)
                entries.append({
                    "label": label,
                    "direction": direction,
                    "region": key,
                    "zero": tc.zero,
                    "bounded": tc.bounded,
                    "form_class": tc.form_class.to_json(),
                    "source_class": tc.source_class.to_json(),
                })
    return _report("theta-bound", digest,
                   {"region": args.region, "all_bounded": all_bounded, "entries": entries})


def _parse_component(text: str) -> frozenset[int]:
    cleaned = text.replace(",", "").strip()
    if cleaned in ("", "none", "0"):
        return frozenset()
    try:
        parts = frozenset(int(c) for c in cleaned)
    except ValueError as exc:
        raise CliError(f"bad component {text!r}") from exc
    if not parts <= {1, 2}:
        raise CliError(f"component must be drawn from {{1,2}}, got {text!r}")
    return parts


def _cmd_l2_classify(args: argparse.Namespace) -> dict:
    from .l2verdict import classify_l2

    component = _parse_component(args.component)
    verdict = classify_l2(component, args.n1, args.n2, args.l1, args.l2)
    results = verdict.to_json()
    if args.region == "d-eps":
        results["verdict"] = verdict.is_l2_d_eps
    elif args.region == "d-eps-prime":
        results["verdict"] = verdict.is_l2_d_eps_prime
    else:
        results["verdict"] = verdict.is_l2
    results["region"] = args.region
    digest = _param_digest(component=sorted(component), n=[args.n1, args.n2],
                           l=[args.l1, args.l2])
    return _report("l2-classify", digest, results)


def _cmd_stalk_cohomology(args: argparse.Namespace) -> dict:
    datum, digest, _ = _load_datum(args.datum)
    from .l2complex import (HODGE_BUNDLE, LOCAL_SYSTEM, build_stalk_complex, hypercohomology,
                            truncated_global_model)

    mode = HODGE_BUNDLE if args.mode == "hodge-bundle" else LOCAL_SYSTEM
    complex_ = build_stalk_complex(datum, mode)
    h = hypercohomology(complex_)
    results: dict = {
        "mode": args.mode,
        "dims": list(complex_.dims),
        "h": list(h),
        "euler": complex_.euler_characteristic(),
    }
    if args.truncation_degree is not None:
        truncated = truncated_global_model(datum, args.truncation_degree)
        results["truncation_degree"] = args.truncation_degree
        results["truncated_h"] = list(truncated)
        results["agrees"] = list(truncated) == list(h)
    return _report("stalk-cohomology", digest, results)


def _cmd_oracle_compare(args: argparse.Namespace) -> dict:
    if not 0 < args.epsilon < 1:  # also rejects nan
        raise CliError(f"--epsilon must be a number strictly between 0 and 1, got {args.epsilon}")
    if args.n_max < 0:
        raise CliError(f"--n-max must be non-negative, got {args.n_max}")
    if args.l_min > args.l_max:
        raise CliError("empty weight range")
    size = 4 * (args.n_max + 1) ** 2 * (args.l_max - args.l_min + 1) ** 2
    if size > MAX_ORACLE_CELLS:
        raise CliError(f"--n-max, --l-min and --l-max give {size} cells, "
                       f"more than {MAX_ORACLE_CELLS}")
    # only a grid that will be swept pays for numpy
    from .dbar import integrability_oracle
    from .l2verdict import classify_l2

    components = (frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2}))
    cells = [
        (J, n1, n2, l1, l2)
        for J in components
        for n1 in range(args.n_max + 1)
        for n2 in range(args.n_max + 1)
        for l1 in range(args.l_min, args.l_max + 1)
        for l2 in range(args.l_min, args.l_max + 1)
    ]
    disagreements = []
    for J, n1, n2, l1, l2 in cells:
        verdict = classify_l2(J, n1, n2, l1, l2)
        symbolic = [verdict.is_l2_d_eps, verdict.is_l2_d_eps_prime, verdict.is_l2]
        oracle = list(integrability_oracle(J, n1, n2, l1, l2,
                                           epsilon=args.epsilon).as_tuple())
        if symbolic != oracle:
            disagreements.append({
                "component": sorted(J),
                "t_orders": [n1, n2],
                "weights": [l1, l2],
                "classifier": symbolic,
                "oracle": oracle,
            })
    digest = _param_digest(epsilon=args.epsilon, l=[args.l_min, args.l_max], n_max=args.n_max)
    results = {
        "epsilon": args.epsilon,
        "cells": len(cells),
        "agreements": len(cells) - len(disagreements),
        "all_agree": not disagreements,
        "disagreements": disagreements,
    }
    return _report("oracle-compare", digest, results)


def _cmd_end_check(args: argparse.Namespace) -> dict:
    datum, digest, _ = _load_datum(args.datum)
    from .l2complex import theta_image_check

    rep = theta_image_check(datum)
    entries = {}
    for index, entry in rep["entries"].items():
        clean = dict(entry)
        for key in ("weights_d_eps", "weights_d_eps_prime"):
            if key in clean:
                clean[key] = list(clean[key])
        if "ad_graded_dims" in clean:
            clean["ad_graded_dims"] = {str(l): d
                                       for l, d in sorted(clean["ad_graded_dims"].items())}
        entries[str(index)] = clean
    results = {
        "end_dimension": datum.dimension ** 2,
        "commutes": rep["commutes"],
        "passes": rep["passes"],
        "entries": entries,
    }
    return _report("end-check", digest, results)


def _cmd_dbar_solve(args: argparse.Namespace) -> dict:
    from .dbarspec import hormander_region, parse_case, path_corner

    payload, digest = _read_payload(args.config)
    if payload is None:
        raise CliError(f"dbar-solve takes an experiment JSON file, got {args.config!r}")
    try:
        spec = parse_case(payload)
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(f"{args.config}: {exc}") from exc
    if spec.degree not in (1, 2):
        raise CliError(f"no solver for degree {spec.degree} data")
    bundle = spec.bundle
    bundle.require_admissible()
    # only a config that will be solved pays for numpy
    from . import dbar

    phi = dbar.sample_case(spec)
    warns: list[str] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if phi.degree == 1:
            u = dbar.solve_dbar_01(phi, bundle, tolerance=args.tolerance)
        else:
            u = dbar.solve_dbar_02(phi, bundle)
        residual = dbar.dbar_residual(u, phi)
        norm_phi = dbar.weighted_norm(phi, bundle)
        norm_u = dbar.weighted_norm(u, bundle)
        ratio = dbar.verify_bound(phi, u, bundle)
    warns.extend(str(w.message) for w in caught)
    corners = []
    for slot, modes in enumerate(u.components):
        for (m, n) in sorted(modes):
            c1, c2 = path_corner(m, n, bundle.k, bundle.l, phi.grid.a)
            corners.append({"component": slot + 1, "mode": [m, n], "corner": [c1, c2]})
    results = {
        "k": bundle.k,
        "l": bundle.l,
        "degree": phi.degree,
        "grid": {"points": phi.grid.n, "a": phi.grid.a, "span": phi.grid.span},
        "phi_modes": [{"component": slot + 1, "modes": [list(key) for key in sorted(modes)]}
                      for slot, modes in enumerate(phi.components)],
        "residual": residual,
        "tolerance": args.tolerance,
        "residual_ok": residual < args.tolerance,
        "norms": {"phi": norm_phi, "u": norm_u},
        "c": None if math.isnan(ratio) else ratio,
        "hormander_covered": hormander_region(0, phi.degree, bundle.k, bundle.l),
        "corners": corners,
    }
    return _report("dbar-solve", digest, results, warns)


def _cmd_dbar_region(args: argparse.Namespace) -> dict:
    from .dbarspec import _finite, hormander_region

    k, l = _finite(vars(args), "k"), _finite(vars(args), "l")
    covered = hormander_region(args.p, args.q, k, l)
    digest = _param_digest(p=args.p, q=args.q, k=k, l=l)
    return _report("dbar-region", digest,
                   {"p": args.p, "q": args.q, "k": k, "l": l, "covered": covered})


# ----------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="limithodge",
        description="Weight filtrations, growth classes, L2 stalk cohomology, "
                    "and the weighted corner dbar solver, behind one JSON front door.",
    )
    parser.add_argument("--format", choices=("json", "table"), default="json",
                        help="report rendering (default json)")
    sub = parser.add_subparsers(dest="command", required=True)

    def datum_command(name: str, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("datum", help="datum file, corpus-directory name, or built-in label")
        return p

    p = datum_command("weight-filtration", "monodromy weight filtration of a datum")
    p.add_argument("--operator", choices=("n1", "n2", "cone"), default="cone")
    p.add_argument("--center", type=int, default=0)
    p.set_defaults(func=_cmd_weight_filtration)

    p = datum_command("cone-check", "sampled lambda-independence of the cone filtration")
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_cone_check)

    p = datum_command("decompose", "isotypic decomposition of a bigraded model")
    p.set_defaults(func=_cmd_decompose)

    p = datum_command("alpha-basis", "lowered monomial frames of the symmetric factors")
    p.set_defaults(func=_cmd_alpha_basis)

    p = datum_command("mhs-check", "mixed-structure and polarization report")
    p.add_argument("--center", type=int, default=None,
                   help="central weight (default: the datum weight)")
    p.set_defaults(func=_cmd_mhs_check)

    p = datum_command("norm-class", "Hodge-norm growth classes of the section frame")
    p.add_argument("--region", choices=_REGION_FLAGS, default="global")
    p.set_defaults(func=_cmd_norm_class)

    p = datum_command("theta-bound", "Higgs-field boundedness verdicts on the frame")
    p.add_argument("--region", choices=_REGION_FLAGS, default="global")
    p.set_defaults(func=_cmd_theta_bound)

    p = sub.add_parser("l2-classify", help="square-integrability of one generator")
    p.add_argument("--component", default="none",
                   help="form component: none, 1, 2, or 12")
    p.add_argument("--n1", type=int, default=0)
    p.add_argument("--n2", type=int, default=0)
    p.add_argument("--l1", type=int, required=True)
    p.add_argument("--l2", type=int, required=True)
    p.add_argument("--region", choices=_REGION_FLAGS, default="global")
    p.set_defaults(func=_cmd_l2_classify)

    p = datum_command("stalk-cohomology", "cohomology of the L2 stalk complex")
    p.add_argument("--mode", choices=("local-system", "hodge-bundle"), default="local-system")
    p.add_argument("--truncation-degree", type=int, default=None,
                   help="also compare against the truncated polynomial model")
    p.set_defaults(func=_cmd_stalk_cohomology)

    p = sub.add_parser("oracle-compare",
                       help="symbolic classifier vs quadrature oracle over a grid")
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--l-min", type=int, default=-4)
    p.add_argument("--l-max", type=int, default=4)
    p.add_argument("--n-max", type=int, default=1)
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; has no effect")
    p.set_defaults(func=_cmd_oracle_compare)

    p = datum_command("end-check", "L2 verdicts of the Higgs field inside End(H)")
    p.set_defaults(func=_cmd_end_check)

    p = sub.add_parser("dbar-solve", help="solve the weighted corner dbar problem")
    p.add_argument("config", help="experiment JSON file")
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.set_defaults(func=_cmd_dbar_solve)

    p = sub.add_parser("dbar-region", help="Hormander-coverage test for a bidegree")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=float, default=0.0)
    p.add_argument("--l", type=float, default=0.0)
    p.set_defaults(func=_cmd_dbar_region)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
    except LimithodgeError as exc:
        return _fail(exc, str(exc))
    except AssertionError as exc:
        return _fail(InternalInvariantFailure, str(exc))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return _fail(CliError, str(exc))
    except Exception as exc:  # noqa: BLE001 - contract: never a bare traceback
        return _fail(InternalInvariantFailure, f"{type(exc).__name__}: {exc}")
    _emit(report, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
