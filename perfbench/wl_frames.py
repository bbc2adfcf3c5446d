"""frames-rational: real models in split basis or transported by integer matrices.

Each op assembles one model from its spec and runs the whole frame path:
isotypic decomposition and alpha frames, growth and Higgs classes on both
regions, the mixed-structure and polarization checks, the stalk complex
against the truncated global model, and the serialized report.  The End
data run the stalk comparison and ``theta_image_check`` instead.
"""

from __future__ import annotations

from gen import op_rng, shear_pair
from checks import axioms_hold

NAME = "frames-rational"

# One cycle of op shapes in a fixed order, so that every run sees the same
# mix whatever the seed; the seed picks conjugators, orientations and the
# order of summands.  On a 2-core x86 box twelve of the sixteen shapes cost
# 0.3-0.9 s an op, two (S(2)(x)S(1) transported, End(s11)) about 1.5 s and
# two under 0.3 s.  With the median and the 11th-largest op both inside the
# middle group for any run of 25-60 ops, neither jumps between groups from
# seed to seed.  S(2)(x)S(2) transported (4-7 s an op) and S(3)(x)S(3) (9 s
# split) would swing a 25 s run by a whole op and are left out.
CYCLE = ("S11t", "sum2", "S30t", "H", "S21t", "E", "sum3a", "S11", "S11t", "E2", "H",
         "End(jordan2-t1)", "sum3b", "S21", "S03t", "End(s11)")
SMOKE = ("S11t", "H", "End(jordan2-t1)", "sum2")
TRACE_OPS = 8


# shape -> summands (kind, m, n, l) or (kind, m, n, p, q), given the op's rng
_PARTS = {
    "S11t": lambda rng: [("S", 1, 1, 0)],
    "S11": lambda rng: [("S", 1, 1, 0)],
    "S30t": lambda rng: [("S", 3, 0, 0)],
    "S03t": lambda rng: [("S", 0, 3, 0)],
    "S21t": lambda rng: [("S", *rng.choice(((2, 1), (1, 2))), 0)],
    "S21": lambda rng: [("S", *rng.choice(((2, 1), (1, 2))), 0)],
    "H": lambda rng: [("H", 1, 1, 1)],
    "E": lambda rng: [("E", *rng.choice(((1, 0), (0, 1))), 1, 0)],
    "E2": lambda rng: [("E", *rng.choice(((2, 0), (0, 2))), 1, 0)],
    "sum2": lambda rng: rng.sample([("S", 1, 1, 0), ("H", 0, 0, 1)], 2),
    "sum3a": lambda rng: rng.sample([("S", 2, 0, 0), ("H", 0, 0, 1), ("H", 0, 0, 1)], 3),
    "sum3b": lambda rng: rng.sample([("S", 1, 0, 0), ("S", 0, 1, 0), ("E", 0, 0, 1, 0)], 3),
}
_SPLIT = ("S11", "S21")


def imports() -> dict:
    from limithodge import exactla, growth, hodgestruct, l2complex, serialize, sl2rep, weightfilt
    return {"exactla": exactla, "growth": growth, "hodgestruct": hodgestruct,
            "l2complex": l2complex, "serialize": serialize, "sl2rep": sl2rep,
            "weightfilt": weightfilt}


def make(lh: dict, seed: int, index: int, smoke: bool = False) -> dict:
    rng = op_rng(NAME, seed, index)
    cycle = SMOKE if smoke else CYCLE
    shape = cycle[index % len(cycle)]
    if shape.startswith("End("):
        return {"end": shape[4:-1]}
    parts = _PARTS[shape](rng)
    dim = sum(_dim(p) for p in parts)
    return {"parts": parts, "transport": None if shape in _SPLIT else shear_pair(rng, dim)[0],
            "degree": 3 if dim <= 4 else 2}


def _dim(part: tuple) -> int:
    base = (part[1] + 1) * (part[2] + 1)
    return 2 * base if part[0] == "E" else base


def _build(lh: dict, part: tuple):
    kind, m, n = part[:3]
    if kind == "E":
        return lh["sl2rep"].build_model("E", m, n, p=part[3], q=part[4])
    return lh["sl2rep"].build_model(kind, m, n, l=part[3])


def _params(part: tuple) -> tuple:
    kind, m, n = part[:3]
    return (kind, m, n, part[3], part[4]) if kind == "E" else (kind, m, n, part[3])


def execute(lh: dict, inp: dict, tr) -> dict:
    if "end" in inp:
        return _execute_end(lh, inp, tr)
    sl2, growth, ser = lh["sl2rep"], lh["growth"], lh["serialize"]
    l2c, hs = lh["l2complex"], lh["hodgestruct"]
    models = [tr.call("sl2rep", _build, lh, p) for p in inp["parts"]]
    model = models[0] if len(models) == 1 else tr.call("sl2rep", sl2.direct_sum_models, models)
    if inp["transport"] is not None:
        model = tr.call("sl2rep", sl2.transport_model, model,
                        lh["exactla"].ExactMatrix(inp["transport"]))
    factors = tr.call("sl2rep", sl2.isotypic_decomposition,
                      model.bigrading, model.action, model.polarization)
    n1, n2 = model.action.nminus
    frames = []
    for idx, factor in enumerate(factors):
        if factor.kind != "S":
            continue
        alphas = tr.call("sl2rep", sl2.alpha_basis, factor, model.action)
        for key in sorted(alphas):
            vec = alphas[key]
            first = tr.call("growth", growth.section_from_datum, vec, n1, n2)
            swapped = tr.call("growth", growth.section_from_datum, vec, n2, n1)
            classes = (tr.call("growth", growth.hodge_norm_class, first, growth.D_EPS),
                       tr.call("growth", growth.hodge_norm_class, swapped, growth.D_EPS_PRIME))
            thetas = [tr.call("growth", growth.theta_apply_class, first, d, n1, n2, region)
                      for region in (growth.D_EPS, growth.D_EPS_PRIME) for d in (1, 2)]
            frames.append((idx, factor, key, vec, classes, thetas))
    total = n1 + n2
    W = tr.call("weightfilt", lh["weightfilt"].monodromy_weight_filtration, total, model.weight)
    F = tr.call("sl2rep", model.limit_filtration)
    mixed = hs.MixedHodge(W.filtration, F)
    mhs = tr.call("hodgestruct", hs.mhs_check, mixed)
    pol = tr.call("hodgestruct", hs.polarized_mhs_check, mixed, total, model.polarization,
                  model.weight)
    datum = tr.call("l2complex", l2c.MonodromyDatum.from_model, model)
    stalk, known = _stalk(l2c, datum, inp["degree"], tr)

    def encode() -> dict:
        return {
            "factors": [{"params": list(f.params()), "embedding": ser.matrix_to_json(f.embedding)}
                        for f in factors],
            "frames": [{"factor": idx, "key": list(key), "alpha": ser.vector_to_json(vec),
                        "classes": [c.to_json() for c in classes],
                        "theta": [[t.zero, t.bounded, t.form_class.to_json()] for t in thetas]}
                       for idx, _, key, vec, classes, thetas in frames],
            "W": ser.filtration_to_json(W.filtration, model.weight),
            "mhs": mhs,
            "polarized": pol,
            "stalk": stalk,
        }

    return {"encoded": tr.call("serialize", encode), "known": known, "model": model,
            "factors": factors, "frames": frames, "W": W, "mhs": mhs, "pol": pol, "stalk": stalk}


def _stalk(l2c, datum, degree: int, tr) -> tuple[dict, list[str]]:
    """Stalk cohomology next to the truncated model; ill-formed complexes are a known defect."""
    out: dict = {}
    known = []
    try:
        complex_ = tr.call("l2complex", l2c.build_stalk_complex, datum)
        out["h"] = list(tr.call("l2complex", l2c.hypercohomology, complex_))
    except l2c.IllFormedComplex as exc:
        out["h"] = f"ill-formed: {exc}"
        known.append("ill_formed")
    try:
        out["truncated"] = list(tr.call("l2complex", l2c.truncated_global_model, datum, degree))
    except l2c.IllFormedComplex as exc:
        out["truncated"] = f"ill-formed: {exc}"
        if not known:
            known.append("ill_formed")
    return out, known


def _execute_end(lh: dict, inp: dict, tr) -> dict:
    l2c, sl2 = lh["l2complex"], lh["sl2rep"]
    m, n = {"jordan2-t1": (1, 0), "s11": (1, 1)}[inp["end"]]
    model = tr.call("sl2rep", sl2.build_model, "S", m, n)
    base = tr.call("l2complex", l2c.MonodromyDatum.from_model, model, inp["end"])
    end = tr.call("l2complex", l2c.end_datum, base)
    stalk, known = _stalk(l2c, end, 2, tr)
    theta = tr.call("l2complex", l2c.theta_image_check, base)
    # plain ints, bools and tuples: json encodes the report as it stands
    return {"encoded": {"stalk": stalk, "theta": theta}, "known": known,
            "stalk": stalk, "theta": theta}


def check(lh: dict, inp: dict, res: dict) -> list[str]:
    """Invariants that hold for every seed; each failing one is named."""
    bad = []
    stalk = res["stalk"]
    if isinstance(stalk["h"], list) and isinstance(stalk["truncated"], list) \
            and stalk["h"] != stalk["truncated"]:
        bad.append("check:stalk_vs_truncated")
    if "end" in inp:
        if not res["theta"]["passes"]:
            bad.append("check:theta_image")
        return bad
    model, factors = res["model"], res["factors"]
    if sorted(f.params() for f in factors) != sorted(_params(p) for p in inp["parts"]) \
            or sum(f.dim for f in factors) != model.dim:
        bad.append("check:factor_multiset")
    keys_by_factor: dict[int, set] = {}
    for idx, factor, (k, l), _, classes, thetas in res["frames"]:
        keys_by_factor.setdefault(idx, set()).add((k, l))
        if classes[0].log_exps != (2 * k - factor.m, 2 * l - factor.n):
            bad.append("check:log_exponents")
        if any(not t.zero and not t.bounded for t in thetas):
            bad.append("check:higgs_bounded")
    for idx, factor in enumerate(factors):
        if factor.kind == "S" and keys_by_factor.get(idx) != {
                (k, l) for k in range(factor.m + 1) for l in range(factor.n + 1)}:
            bad.append("check:alpha_keys")
    n1, n2 = model.action.nminus
    if not axioms_hold(n1 + n2, res["W"]):
        bad.append("check:weight_axioms")
    if not res["mhs"]["is_mhs"] or not res["pol"]["all_pass"]:
        bad.append("check:polarized_mhs")
    return sorted(set(bad))
