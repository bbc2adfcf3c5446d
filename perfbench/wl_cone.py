"""cone-gaussian: commuting nilpotent pairs conjugated by dense Gaussian-integer matrices.

The same exact core as frames-rational, used differently: dense entries
in Q(i) with large denominators and no model structure.  Each op runs the
sampled cone lambda-independence report, the relative weight check, the
Koszul cohomology, and the stalk complex with its two-chart total
cohomology.
"""

from __future__ import annotations

from gen import dense_gaussian, jordan_pair, op_rng

NAME = "cone-gaussian"

# Block shapes: each block is the Jordan pair of S(m) (x) S(n); the seed
# orders the blocks.  On a 2-core x86 box twelve of the sixteen shapes cost
# 0.3-0.9 s an op, two (S(2)(x)S(1), S(1)(x)S(2)) about 1.3 s and two under
# 0.25 s, so the median and the 11th-largest op stay inside the middle group
# for any run of 25-60 ops.  Dense conjugation makes S(2)(x)S(2) cost 4-6 s
# and dimension 12 about 16 s an op; either would swing a 25 s run by a
# whole op, so the pair stays at dimension 6 and below.
CYCLE = (((1, 1),), ((3, 0),), ((2, 0), (0, 1)), ((1, 0), (0, 1), (1, 0)), ((2, 1),),
         ((0, 3),), ((1, 1), (1, 0)), ((2, 0),), ((1, 1),), ((0, 2), (1, 0)),
         ((0, 1), (1, 0), (0, 1)), ((1, 2),), ((3, 0),), ((1, 0), (0, 1)),
         ((0, 1), (1, 1)), ((0, 3),))
SMOKE = (((1, 1),), ((1, 0), (0, 1)))
TRACE_OPS = 5


def imports() -> dict:
    from limithodge import exactla, l2complex, weightfilt
    return {"exactla": exactla, "l2complex": l2complex, "weightfilt": weightfilt}


def make(lh: dict, seed: int, index: int, smoke: bool = False) -> dict:
    """Seeded conjugate P (N1, N2) P^-1 of a block-diagonal Jordan pair."""
    ExactMatrix, Scalar, inverse = (lh["exactla"].ExactMatrix, lh["exactla"].Scalar,
                                    lh["exactla"].inverse)
    rng = op_rng(NAME, seed, index)
    cycle = SMOKE if smoke else CYCLE
    shape = cycle[index % len(cycle)]
    blocks = rng.sample(shape, len(shape))
    dim = sum((m + 1) * (n + 1) for m, n in blocks)
    n1 = [[0] * dim for _ in range(dim)]
    n2 = [[0] * dim for _ in range(dim)]
    offset = 0
    for m, n in blocks:
        b1, b2 = jordan_pair(m, n)
        for i, (r1, r2) in enumerate(zip(b1, b2)):
            n1[offset + i][offset:offset + len(r1)] = r1
            n2[offset + i][offset:offset + len(r2)] = r2
        offset += len(b1)
    while True:
        P = ExactMatrix([[Scalar(a, b) for a, b in row] for row in dense_gaussian(rng, dim)])
        try:
            Pinv = inverse(P)
            break
        except ValueError:  # singular draw: take the next one from the same stream
            continue
    return {"n1": P @ ExactMatrix(n1) @ Pinv, "n2": P @ ExactMatrix(n2) @ Pinv,
            "blocks": len(blocks), "lambda_seed": rng.randrange(2 ** 31)}


def execute(lh: dict, inp: dict, tr) -> dict:
    wf, l2c = lh["weightfilt"], lh["l2complex"]
    n1, n2 = inp["n1"], inp["n2"]
    cone = tr.call("weightfilt", wf.cone_independence_report, [n1, n2], 1, inp["lambda_seed"])
    relative = tr.call("weightfilt", wf.relative_weight_check, n1, n2)
    datum = tr.call("l2complex", l2c.MonodromyDatum, 0, n1, n2)
    koszul = tr.call("l2complex", l2c.koszul_cohomology, datum)
    known = []
    try:
        complex_ = tr.call("l2complex", l2c.build_stalk_complex, datum)
        h = list(tr.call("l2complex", l2c.hypercohomology, complex_))
        total = list(tr.call("l2complex", l2c.total_cohomology,
                             tr.call("l2complex", l2c.two_chart_cover, complex_)))
    except l2c.IllFormedComplex as exc:
        h = total = f"ill-formed: {exc}"
        known.append("ill_formed")
    encoded = {"cone": cone, "relative": relative, "koszul": list(koszul), "h": h, "total": total}
    return {"encoded": encoded, "known": known}


def check(lh: dict, inp: dict, res: dict) -> list[str]:
    out = res["encoded"]
    bad = []
    if not out["cone"]["independent"]:
        bad.append("check:cone_lambda_independence")
    if not out["relative"]["agree"]:
        bad.append("check:relative_weight")
    r = inp["blocks"]
    if out["koszul"] != [r, 2 * r, r]:
        bad.append("check:koszul")
    h, total = out["h"], out["total"]
    if isinstance(h, list):
        width = max(len(total), 3)
        if total + [0] * (width - len(total)) != h + [0] * (width - 3):
            bad.append("check:two_chart_total")
    return bad
