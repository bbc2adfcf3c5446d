"""dbar-numeric: the numpy/scipy weighted dbar solver and the quadrature oracle.

Solve ops take seeded compatible (0,1) data (exact gradients of
Gaussian-bump-times-monomial potentials, 1-3 modes) or (0,2) data on the
exponent grid {-2,-1,0,0.5,2}^2, solve at two grid sizes, and check the
residual and the stability of the measured constant across the sizes.
Oracle ops sweep the 1296-cell classifier-vs-quadrature grid.
"""

from __future__ import annotations

import math
import warnings

from gen import op_rng

NAME = "dbar-numeric"

EXPONENTS = (-2.0, -1.0, 0.0, 0.5, 2.0)
# (kind, coarse points, fine points) per op; the oracle sweep has no grid.
CYCLE = (("01", 256, 512), ("01", 256, 512), ("oracle", 0, 0), ("02", 256, 512),
         ("01", 512, 1024), ("01", 256, 512), ("02", 256, 512), ("oracle", 0, 0),
         ("01", 256, 512), ("02", 512, 1024))
SMOKE = (("01", 256, 512), ("02", 256, 512), ("oracle", 0, 0))
TRACE_OPS = 10
RESIDUAL_TARGET = 1e-6
STABILITY = 0.1
_COMPONENTS = (frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2}))


def imports() -> dict:
    import numpy
    from limithodge import dbar, l2complex
    return {"np": numpy, "dbar": dbar, "l2complex": l2complex}


def make(lh: dict, seed: int, index: int, smoke: bool = False) -> dict:
    rng = op_rng(NAME, seed, index)
    cycle = SMOKE if smoke else CYCLE
    kind, coarse, fine = cycle[index % len(cycle)]
    if kind == "oracle":
        return {"kind": kind, "epsilon": rng.choice((0.05, 0.1, 0.15, 0.2))}
    # the exponent pair walks a seeded permutation of the 25-cell grid
    pairs = [(k, l) for k in EXPONENTS for l in EXPONENTS]
    op_rng(NAME, seed, -1).shuffle(pairs)
    k, l = pairs[index % len(pairs)]
    keys = [(a, b) for a in (-1, 0, 1, 2) for b in (-1, 0, 1, 2)]
    # A solve's cost grows with its mode count (about 0.6, 1.3 and 1.9 s for
    # 1, 2 and 3 modes at 512/1024 points on a 2-core x86 box), so the count
    # follows the op index, not the seed, and every run meets the same mix:
    # 1-3 modes in turn at 512/1024 points, 2 modes at 256/512, where the
    # median op sits.
    modes = []
    for mode in rng.sample(keys, 1 + index % 3 if fine == 1024 else 2):
        modes.append({"mode": mode,
                      "center": (rng.uniform(-4.4, -3.6), rng.uniform(-4.4, -3.6)),
                      "width": (rng.uniform(0.55, 0.7), rng.uniform(0.55, 0.7)),
                      "amplitude": rng.uniform(0.5, 1.5),
                      "powers": (rng.randint(0, 2), rng.randint(0, 2))})
    inp = {"kind": kind, "k": k, "l": l, "modes": modes}
    inp["forms"] = [forms(lh, inp, points) for points in (coarse, fine)]
    return inp


def _potential(np, grid, spec):
    """Bump-times-monomial potential g and its log-derivatives along each axis."""
    x1 = grid.log_r[:, None]
    x2 = grid.log_r[None, :]
    top = math.log(grid.a)
    (c1, c2), (w1, w2), (p1, p2) = spec["center"], spec["width"], spec["powers"]
    c1, c2 = top + c1, top + c2
    bump = (x1 - c1) ** 2 / (2 * w1 ** 2) + (x2 - c2) ** 2 / (2 * w2 ** 2)
    g = spec["amplitude"] * np.exp(p1 * x1 + p2 * x2 - bump)
    return g, p1 - (x1 - c1) / w1 ** 2, p2 - (x2 - c2) / w2 ** 2


def forms(lh: dict, inp: dict, points: int):
    """The bundle and the exact right-hand side on a grid of the given size."""
    np, dbar = lh["np"], lh["dbar"]
    grid = dbar.RadialGrid(n=points)
    r1 = grid.r[:, None]
    r2 = grid.r[None, :]
    if inp["kind"] == "01":
        f1, f2 = {}, {}
        for spec in inp["modes"]:
            m, n = spec["mode"]
            g, d1, d2 = _potential(np, grid, spec)
            f1[(m + 1, n)] = 0.5 * g * (d1 - m) / r1  # (1/2)(d/dr1 - m/r1) g
            f2[(m, n + 1)] = 0.5 * g * (d2 - n) / r2
        comps = (f1, f2)
    else:
        comps = ({tuple(spec["mode"]): _potential(np, grid, spec)[0] / (r1 * r2)
                  for spec in inp["modes"]},)
    return dbar.WeightedLineBundle(inp["k"], inp["l"]), dbar.FourierForm(
        1 if inp["kind"] == "01" else 2, grid, comps)


def execute(lh: dict, inp: dict, tr) -> dict:
    if inp["kind"] == "oracle":
        return _sweep(lh, inp, tr)
    dbar = lh["dbar"]
    solve = dbar.solve_dbar_01 if inp["kind"] == "01" else dbar.solve_dbar_02
    levels = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for bundle, phi in inp["forms"]:
            u = tr.call("dbar.solve", solve, phi, bundle)
            residual = tr.call("dbar.residual", dbar.dbar_residual, u, phi)
            norms = (tr.call("dbar.norm", dbar.weighted_norm, phi, bundle),
                     tr.call("dbar.norm", dbar.weighted_norm, u, bundle))
            c = tr.call("dbar.norm", dbar.verify_bound, phi, u, bundle)
            levels.append((residual, norms, c))
    degree = 1 if inp["kind"] == "01" else 2
    encoded = {
        "kind": inp["kind"], "k": inp["k"], "l": inp["l"],
        "covered": dbar.hormander_region(0, degree, inp["k"], inp["l"]),
        # rounded so that the digest tracks the answer, not the last bits of the quadrature
        "levels": [{"residual_ok": res < RESIDUAL_TARGET, "norms": [_round(x) for x in norms],
                    "c": _round(c)} for res, norms, c in levels],
    }
    return {"encoded": encoded, "known": [], "levels": levels, "warnings": len(caught)}


def _round(x: float) -> float:
    return float(f"{x:.5g}")


def _sweep(lh: dict, inp: dict, tr) -> dict:
    classify = lh["l2complex"].classify_l2
    oracle = lh["dbar"].integrability_oracle
    cells = [(J, n1, n2, l1, l2) for J in _COMPONENTS for n1 in (0, 1) for n2 in (0, 1)
             for l1 in range(-4, 5) for l2 in range(-4, 5)]

    def symbolic():
        out = []
        for cell in cells:
            v = classify(*cell)
            out.append((v.is_l2_d_eps, v.is_l2_d_eps_prime, v.is_l2))
        return out

    def numeric():
        return [oracle(*cell, epsilon=inp["epsilon"]).as_tuple() for cell in cells]

    sym = tr.call("l2complex", symbolic)
    num = tr.call("dbar.oracle", numeric)
    agree = sum(a == b for a, b in zip(sym, num))
    encoded = {"kind": "oracle", "epsilon": inp["epsilon"], "cells": len(cells), "agree": agree,
               "verdicts": "".join("".join("1" if x else "0" for x in v) for v in num)}
    return {"encoded": encoded, "known": [], "warnings": 0}


def check(lh: dict, inp: dict, res: dict) -> list[str]:
    out = res["encoded"]
    if inp["kind"] == "oracle":
        return [] if out["agree"] == out["cells"] == 1296 else ["check:oracle_vs_classifier"]
    bad = []
    (r0, n0, c0), (r1, n1, c1) = res["levels"]
    if not (r0 < RESIDUAL_TARGET and r1 < RESIDUAL_TARGET):
        bad.append("check:residual")
    if not all(math.isfinite(x) and x > 0 for x in (*n0, *n1, c0, c1)):
        bad.append("check:norms")
    elif abs(c1 - c0) / c0 >= STABILITY:
        bad.append("check:constant_stability")
    return bad
