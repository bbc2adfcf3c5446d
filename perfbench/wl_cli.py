"""cli-batch: sequential ``python -m limithodge.cli`` processes over all 13 subcommands.

Interpreter start and imports are most of every call here, so this
workload shows front-door and import changes and barely moves with the
exact core.  The mix also holds malformed inputs with their documented
exit codes and three known defects, counted as known-defect ops.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time

from gen import int_matmul, jordan_pair, op_rng, shear_pair
from layers import parse_importtime

NAME = "cli-batch"
WORKDIR = os.path.join(".perfbench-out", "cli-inputs")

CYCLE = ("weight-filtration", "dbar-region", "decompose", "l2-classify", "theta-bound",
         "error-noncommuting", "dbar-solve-256", "cone-check", "defect-zero-denominator",
         "alpha-basis", "stalk-cohomology", "error-excluded", "norm-class", "oracle-compare",
         "defect-nan", "mhs-check", "end-check", "error-unparseable", "dbar-solve-1024",
         "defect-stalk", "dbar-solve-512")
SMOKE = ("dbar-region", "l2-classify", "weight-filtration", "error-unparseable", "defect-nan")
TRACE_OPS = 12

EXPONENTS = (-2.0, -1.0, 0.0, 0.5, 2.0)
# A transport that makes the stalk complex of S(2)(x)S(1) ill-formed (exit 5).
DEFECT_TRANSPORT = [[1, -1, -2, -4, 0, -2], [-1, 2, 0, 0, -1, 0], [0, 0, 1, 2, 0, 0],
                    [-2, 2, 0, 1, -2, 0], [2, -2, -2, -4, 1, -2], [0, 0, 1, 2, 0, 1]]

# Known defects: op kind -> (exit codes the CLI gives today, failure kind).
# The documented code is the op's "expect"; getting a code listed here is a
# known failure, getting the documented one means the defect was fixed.  A
# NaN exponent on compatible data runs to exit 0; on incompatible data it
# stops at the compatibility check with exit 3.
KNOWN = {
    "defect-zero-denominator": ((5,), "zero_denominator_exit5"),
    "defect-nan": ((0, 3), "nan_exponent_accepted"),
}


def imports() -> dict:
    os.makedirs(WORKDIR, exist_ok=True)
    return {}


def _write(index: int, payload, raw: str | None = None) -> str:
    path = os.path.join(WORKDIR, f"op{index}.json")
    with open(path, "w") as fh:
        fh.write(raw if raw is not None else json.dumps(payload))
    return path


def _spec(kind: str, m: int, n: int, **extra) -> dict:
    return {"kind": kind, "m": m, "n": n, **extra}


def make(lh: dict, seed: int, index: int, smoke: bool = False) -> dict:
    """One CLI invocation: argv after ``-m limithodge.cli``, expected exit code, check data."""
    rng = op_rng(NAME, seed, index)
    cycle = SMOKE if smoke else CYCLE
    kind = cycle[index % len(cycle)]
    expect, extra = 0, {}

    def model_file(spec: dict) -> str:
        dim = sum((s["m"] + 1) * (s["n"] + 1) * (2 if s["kind"] == "E" else 1)
                  for s in spec.get("sum", [spec]))
        return _write(index, {"model": {**spec, "transport": shear_pair(rng, dim)[0]}})

    if kind == "weight-filtration":
        m, n = rng.choice(((1, 1), (2, 1), (1, 2)))
        n1, n2 = jordan_pair(m, n)
        p, q = shear_pair(rng, len(n1))
        path = _write(index, {"dimension": len(n1), "N1": int_matmul(int_matmul(p, n1), q),
                              "N2": int_matmul(int_matmul(p, n2), q)})
        argv = [kind, path, "--operator", rng.choice(("n1", "n2", "cone"))]
        extra["dimension"] = len(n1)
    elif kind == "dbar-region":
        p, q = rng.randint(0, 2), rng.randint(0, 2)
        k, l = rng.choice(EXPONENTS), rng.choice(EXPONENTS)
        argv = [kind, "--p", str(p), "--q", str(q), "--k", str(k), "--l", str(l)]
        gamma = sorted((k, l))
        extra["covered"] = sum(gamma[:q]) - sum(gamma[p:]) > 0.0
    elif kind == "decompose":
        parts = [rng.choice((("S", 1, 1), ("S", 2, 0), ("S", 0, 2))) for _ in range(2)]
        argv = [kind, model_file({"sum": [_spec(*p) for p in parts]})]
        extra["multiset"] = sorted(f"S({m})xS({n})" for _, m, n in parts)
    elif kind == "l2-classify":
        argv = [kind, "--l1", str(rng.randint(-4, 4)), "--l2", str(rng.randint(-4, 4)),
                "--n1", str(rng.randint(0, 1)), "--n2", str(rng.randint(0, 1)),
                "--component", rng.choice(("none", "1", "2", "12")),
                "--region", rng.choice(("d-eps", "d-eps-prime", "global"))]
    elif kind == "theta-bound":
        m = rng.randint(1, 2)
        argv = [kind, model_file(_spec("S", m, 3 - m)), "--region", "global"]
    elif kind == "error-noncommuting":
        argv = ["weight-filtration", _write(index, {"dimension": 2, "N1": [[0, 1], [0, 0]],
                                                    "N2": [[0, 0], [rng.randint(1, 3), 0]]})]
        expect = 3
    elif kind.startswith("dbar-solve"):
        argv = ["dbar-solve", _write(index, _poly_config(rng, int(kind.rsplit("-", 1)[1])))]
    elif kind == "cone-check":
        argv = [kind, model_file(_spec("S", 1, 1)), "--samples", "2",
                "--seed", str(rng.randrange(1000))]
    elif kind == "defect-zero-denominator":
        argv = ["weight-filtration", _write(index, {"dimension": 2, "N1": [[0, "1/0"], [0, 0]],
                                                    "N2": [[0, 0], [0, 0]]})]
        expect = 2
    elif kind == "alpha-basis":
        argv = [kind, rng.choice(("s11", "s21"))]
    elif kind == "stalk-cohomology":
        m = rng.randint(0, 2)
        argv = [kind, model_file(_spec("S", m, 2 - m)), "--truncation-degree", "2"]
    elif kind == "error-excluded":
        argv = ["dbar-solve", _write(index, {"k": 1.0, "l": rng.choice(EXPONENTS), "modes": [
            {"m": 0, "n": 0, "component": 2, "profile": "poly", "params": {}}]})]
        expect = 4
    elif kind == "norm-class":
        argv = [kind, rng.choice(("s11", "s21")),
                "--region", rng.choice(("d-eps", "d-eps-prime", "global"))]
    elif kind == "oracle-compare":
        lo = rng.randint(-4, 2)
        argv = [kind, "--n-max", "0", "--l-min", str(lo), "--l-max", str(lo + 2),
                "--epsilon", str(rng.choice((0.05, 0.1, 0.2))), "--jobs", "1"]
    elif kind == "defect-nan":
        config = _poly_config(rng, 256)
        config["k"] = "nan"
        argv = ["dbar-solve", _write(index, config)]
        expect = 2
    elif kind == "mhs-check":
        spec = rng.choice((_spec("H", 1, 1, l=1), _spec("E", 1, 0, p=1, q=0), _spec("S", 1, 1)))
        argv = [kind, model_file(spec)]
    elif kind == "end-check":
        argv = [kind, rng.choice(("jordan2-t1", "jordan2-t2", "s11"))]
    elif kind == "error-unparseable":
        argv = ["decompose", _write(index, None, raw='{"model": {"kind": "S", "m": ')]
        expect = 2
    elif kind == "defect-stalk":
        argv = ["stalk-cohomology", _write(index, {"model": _spec(
            "S", 2, 1, transport=DEFECT_TRANSPORT)})]
    else:
        raise ValueError(f"unknown cli op kind {kind!r}")
    return {"kind": kind, "argv": argv, "expect": expect, **extra}


def _poly_config(rng, points: int) -> dict:
    """Compatible monomial (0,1) data: dbar of u = A r1^a r2^b in mode (m, n).

    (1/2)(d/dr1 - m/r1) u and (1/2)(d/dr2 - n/r2) u feed modes (m+1, n) and
    (m, n+1); a > m and b > n with a, b >= 1 keep both parts nonzero and
    square-integrable at the inner edge.
    """
    m, n = rng.randint(-1, 2), rng.randint(-1, 2)
    a, b = max(m, 0) + rng.randint(1, 2), max(n, 0) + rng.randint(1, 2)
    amp = rng.choice((0.5, 1.0, 1.5))
    return {"k": rng.choice(EXPONENTS), "l": rng.choice(EXPONENTS), "points": points, "modes": [
        {"m": m + 1, "n": n, "component": 1, "profile": "poly",
         "params": {"powers": [a - 1, b], "amplitude": amp * (a - m) / 2}},
        {"m": m, "n": n + 1, "component": 2, "profile": "poly",
         "params": {"powers": [a, b - 1], "amplitude": amp * (b - n) / 2}}]}


def run_child(argv: list[str]) -> tuple[int, bytes, bytes, float, int]:
    """Run one child to completion: (exit code, stdout, stderr, wall s, peak RSS KiB)."""
    out_path = os.path.join(WORKDIR, "stdout")
    err_path = os.path.join(WORKDIR, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return proc.returncode, stdout, stderr, wall, usage.ru_maxrss


def execute(lh: dict, inp: dict, tr) -> dict:
    flags = ["-X", "importtime"] if tr.enabled else []
    code, stdout, stderr, wall, rss = run_child(
        [sys.executable, *flags, "-m", "limithodge.cli", *inp["argv"]])
    res = {"code": code, "stdout": stdout, "rss_kib": rss, "wall": wall,
           "encoded": {"exit": code, "stdout_sha256": hashlib.sha256(stdout).hexdigest()}}
    text = stderr.decode("utf-8", "replace")
    if tr.enabled:
        res["import_ms"], res["scipy_import_ms"], rest = parse_importtime(text)
        text = "\n".join(rest)
    res["error"] = _error(text)
    res["known"] = _known(inp, code, res["error"])
    return res


def _error(stderr: str) -> dict | None:
    for line in reversed(stderr.splitlines()):
        if line.startswith("{"):
            try:
                return json.loads(line).get("error")
            except json.JSONDecodeError:
                return None
    return None


def _known(inp: dict, code: int, error: dict | None) -> list[str]:
    if inp["kind"] in KNOWN and code in KNOWN[inp["kind"]][0]:
        return [KNOWN[inp["kind"]][1]]
    message = (error or {}).get("message", "")
    if inp["expect"] == 0 and code == 5 and "differential leaves" in message:
        return ["ill_formed"]
    return []


def check(lh: dict, inp: dict, res: dict) -> list[str]:
    code = res["code"]
    if res["known"]:
        return []
    if code != inp["expect"]:
        return [f"exit:{code}"]
    if code != 0:
        error = res["error"] or {}
        return [] if error.get("code") == code else ["check:error_report"]
    try:
        report = json.loads(res["stdout"])
        results = report["results"]
    except (ValueError, KeyError):
        return ["check:report"]
    command = inp["argv"][0]
    ok = report.get("command") == command
    if command == "weight-filtration":
        ok = ok and sum(results["graded_dims"].values()) == inp["dimension"]
    elif command == "dbar-region":
        ok = ok and results["covered"] is inp["covered"]
    elif command == "decompose":
        ok = ok and results["dims_sum_ok"] and results["multiset"] == inp["multiset"]
    elif command == "theta-bound":
        ok = ok and results["all_bounded"] is True
    elif command == "dbar-solve":
        ok = ok and results["residual_ok"] is True and results["c"] is not None
    elif command == "cone-check":
        ok = ok and results["independent"] is True
    elif command == "alpha-basis":
        ok = ok and bool(results["factors"])
    elif command == "stalk-cohomology":
        ok = ok and results["agrees"] is True
    elif command == "norm-class":
        ok = ok and bool(results["sections"])
    elif command == "oracle-compare":
        ok = ok and results["all_agree"] is True
    elif command == "mhs-check":
        ok = ok and results["is_mhs"] is True
    elif command == "end-check":
        ok = ok and results["passes"] is True
    elif command == "l2-classify":
        ok = ok and isinstance(results["verdict"], bool)
    return [] if ok else [f"check:{command}"]
