#!/usr/bin/env python3
"""Seeded benchmark for limithodge: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload frames-rational --seed 1 --seconds 25 --trace 0

Workloads: cli-batch, frames-rational, cone-gaussian, dbar-numeric (see
perfbench/README.md for why each exists).  ``--trace 0`` times a closed
loop with one client for ``--seconds`` of op time and prints the end-to-end
metrics; ``--trace 1`` runs a fixed op list twice, untraced and then with
spans and counting hooks, and prints the per-layer metrics.  Info lines
(environment, failures by kind, tail rank) come first; the last stdout
line is one JSON object with the keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata

from hostspeed import reference, scaled
from layers import Hooks, Tracer, cache_ratios, clear_caches, parse_importtime

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
MANIFEST = os.path.join(HERE, "manifest.json")

WORKLOADS = {"cli-batch": "wl_cli", "frames-rational": "wl_frames",
             "cone-gaussian": "wl_cone", "dbar-numeric": "wl_dbar"}
MANIFEST_SEED = 0
SETUP_SAMPLES = 5
TAIL_BEYOND = 10  # op_tail_ms: the latency with exactly this many samples above it
WALL_CAP = 1.2  # a timed run also stops once its wall-clock op time reaches this many --seconds
BARE_SAMPLES = 3
# Failure kinds of known defects; any other failure kind makes the run incorrect.
KNOWN_DEFECTS = {"ill_formed", "zero_denominator_exit5", "nan_exponent_accepted"}

# The interpreter environment of this process and of every child it times.
PINNED = {"PYTHONPATH": SRC, "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1",
          "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
UNSET = ("PYTHONPYCACHEPREFIX", "PYTHONSTARTUP", "PYTHONINSPECT", "PYTHONOPTIMIZE",
         "PYTHONWARNINGS", "PYTHONPROFILEIMPORTTIME", "PYTHONDEVMODE", "PYTHONMALLOC",
         "PYTHONTRACEMALLOC", "LIMITHODGE_CORPUS")


def pin_environment() -> None:
    """Re-exec under the pinned environment unless already there.

    A cache prefix makes numpy and scipy recompile on every import, and
    extra BLAS threads would break the two-at-once limit, so neither may
    leak in from the caller.
    """
    if all(os.environ.get(k) == v for k, v in PINNED.items()) \
            and not any(k in os.environ for k in UNSET):
        return
    env = {k: v for k, v in os.environ.items() if k not in UNSET}
    env.update(PINNED)
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable, *sys.argv], env)


def environment() -> dict:
    def version(name: str) -> str:
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return "missing"

    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "limithodge")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"commit": _commit(), "src_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "loadavg": list(os.getloadavg()),
            "python_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("PYTHON")}}


def _commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# ----------------------------------------------------------------------
# ops


def execute(wl, lh: dict, inp: dict, tracer, index: int):
    """Run one op; returns (result or None, exception or None, seconds)."""
    tracer.op_id = index
    start = time.perf_counter()
    try:
        res, error = wl.execute(lh, inp, tracer), None
    except Exception as exc:  # noqa: BLE001 - any library exception is a failed op
        res, error = None, exc
    end = time.perf_counter()
    tracer.op_span(index, start, end)
    return res, error, end - start


def judge(wl, lh: dict, inp: dict, res, error, index: int,
          manifest: dict | None) -> tuple[list[str], str | None]:
    """Failure kinds of one op (empty when it succeeded) and its output digest."""
    if error is not None:
        return [f"exception:{type(error).__name__}"], None
    try:
        kinds = list(res["known"]) + wl.check(lh, inp, res)
    except Exception as exc:  # noqa: BLE001 - a check that cannot run is a failed check
        kinds = [f"check-error:{type(exc).__name__}"]
    blob = json.dumps(res["encoded"], sort_keys=True, default=str).encode()
    digest = hashlib.sha256(blob).hexdigest()[:16]
    expected = (manifest or {}).get(str(index))
    if not kinds and expected not in (None, digest) and not expected.startswith("fail:"):
        kinds.append("digest")
    return kinds, digest


def load_manifest(workload: str, seed: int, smoke: bool) -> dict | None:
    if smoke or seed != MANIFEST_SEED or not os.path.exists(MANIFEST):
        return None
    with open(MANIFEST) as fh:
        return json.load(fh).get(workload)


def tail_ms(latencies: list[float]) -> float:
    """The highest latency with TAIL_BEYOND samples above it (the maximum for short runs)."""
    ordered = sorted(latencies)
    return 1000.0 * ordered[-TAIL_BEYOND - 1 if len(ordered) > TAIL_BEYOND else -1]


def summarize(kinds_per_op: list[list[str]]) -> tuple[bool, int, int, Counter]:
    """(correct, failed ops, known-defect ops, ops by failure kind).

    An op that only reproduces a known defect is counted as a known-defect
    op, not as a failed one; any other failure kind makes the op failed and
    the run incorrect.
    """
    by_kind = Counter(kind for kinds in kinds_per_op for kind in set(kinds))
    failed = sum(1 for kinds in kinds_per_op if set(kinds) - KNOWN_DEFECTS)
    known = sum(1 for kinds in kinds_per_op if kinds and set(kinds) <= KNOWN_DEFECTS)
    return failed == 0, failed, known, by_kind


def failures(by_kind: Counter, failed: int, known: int, n: int) -> dict:
    return {"by_kind": dict(sorted(by_kind.items())), "failed": failed,
            "known_defect_ops": known, "fail_ratio": (failed + known) / n}


def info(key: str, value) -> None:
    print(json.dumps({key: value}, sort_keys=True), flush=True)


# ----------------------------------------------------------------------
# set-up time


def setup_samples(args, wl, count: int,
                  importtime: bool) -> tuple[list[float], list[tuple[float, float]]]:
    """Wall seconds from process start until the first op could run, ``count`` times.

    For the in-process workloads each sample is a fresh child that imports
    the library modules and generates one cycle of inputs (with
    ``importtime``, also its import times).  For cli-batch each sample
    generates one cycle of input files and makes one warm-up CLI call,
    since that call is what every op pays for.
    """
    walls, imports = [], []
    cycle = wl.SMOKE if args.smoke else wl.CYCLE
    for _ in range(count):
        if args.workload == "cli-batch":
            start = time.perf_counter()
            lh = wl.imports()
            for index in range(len(cycle)):
                wl.make(lh, args.seed, index, args.smoke)
            code = wl.run_child([sys.executable, "-m", "limithodge.cli", "dbar-region",
                                 "--p", "0", "--q", "1"])[0]
            walls.append(time.perf_counter() - start)
            if code != 0:
                raise RuntimeError(f"warm-up CLI call exited {code}")
            continue
        flags = ["-X", "importtime"] if importtime else []
        argv = [sys.executable, *flags, os.path.join(HERE, "run.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
        start = time.perf_counter()
        proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, check=False)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(
                f"set-up probe exited {proc.returncode}: {proc.stderr.decode()[-400:]}")
        if importtime:
            total, scipy_ms, _ = parse_importtime(proc.stderr.decode("utf-8", "replace"))
            imports.append((total, scipy_ms))
    return walls, imports


# ----------------------------------------------------------------------
# the two kinds of run


def timed_run(args, wl, lh: dict) -> dict:
    """A closed loop over the op stream, timed at nominal host speed.

    Each op's wall time is scaled by the host-speed reference taken just
    before and just after it, and the loop runs until the scaled op time
    reaches ``--seconds``: a run then holds about the same ops whatever
    the host's speed, so the tail rank stays put too.
    """
    # One set-up sample before the first op and the others spread over the
    # run, so that a short burst of load on the host moves at most one of them.
    walls, _ = setup_samples(args, wl, 1, importtime=False)
    samples = 1 if args.smoke else SETUP_SAMPLES
    manifest = load_manifest(args.workload, args.seed, args.smoke)
    tracer = Tracer(False)
    latencies, times, refs, kinds_per_op, rss_kib = [], [], [reference()], [], 0
    index = 0
    while True:
        inp = wl.make(lh, args.seed, index, args.smoke)
        res, error, seconds = execute(wl, lh, inp, tracer, index)
        refs.append(reference())
        kinds, _ = judge(wl, lh, inp, res, error, index, manifest)
        latencies.append(seconds)
        times.append(scaled(seconds, refs[-2], refs[-1]))
        kinds_per_op.append(kinds)
        if res is not None:
            rss_kib = max(rss_kib, res.get("rss_kib", 0))
        index += 1
        if args.smoke:
            if index >= len(wl.SMOKE):
                break
        elif sum(times) >= args.seconds or sum(latencies) >= WALL_CAP * args.seconds:
            break
        while len(walls) < samples and sum(times) >= len(walls) * args.seconds / samples:
            walls += setup_samples(args, wl, 1, importtime=False)[0]
            refs[-1] = reference()
    if args.workload != "cli-batch":
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    correct, failed, known, by_kind = summarize(kinds_per_op)
    n = len(times)
    info("failures", {**failures(by_kind, failed, known, n), "digest_checked": manifest is not None})
    above = TAIL_BEYOND if n > TAIL_BEYOND else 0
    info("tail", {"samples": n, "above": above, "percentile": round(100.0 * (n - above) / n, 1)})
    info("setup_samples_s", walls)
    info("wall_clock", {"op_s": sum(latencies), "ops_per_s": n / sum(latencies),
                        "op_p50_ms": 1000.0 * statistics.median(latencies),
                        "op_tail_ms": tail_ms(latencies),
                        "reference_ms": 1000.0 * statistics.median(refs)})
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"ops-{args.workload}-seed{args.seed}.json"), "w") as fh:
        json.dump({"latencies": latencies, "scaled": times, "refs": refs}, fh)
    metrics = {
        "setup_s": (statistics.median(walls), "s"),
        "ops_per_s": (n / sum(times), "1/s"),
        "op_p50_ms": (1000.0 * statistics.median(times), "ms"),
        "op_tail_ms": (tail_ms(times), "ms"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
    }
    return {"correct": correct, "attempted": n, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def traced_run(args, wl, lh: dict) -> dict:
    count = len(wl.SMOKE) if args.smoke else wl.TRACE_OPS
    inputs = [wl.make(lh, args.seed, index, args.smoke) for index in range(count)]
    manifest = load_manifest(args.workload, args.seed, args.smoke)

    def one_pass(tracer):
        clear_caches()
        start = time.perf_counter()
        results = [execute(wl, lh, inp, tracer, index) for index, inp in enumerate(inputs)]
        return results, time.perf_counter() - start

    plain, plain_wall = one_pass(Tracer(False))
    tracer, hooks = Tracer(True), Hooks()
    hooks.install()
    try:
        traced, traced_wall = one_pass(tracer)
        caches, cache_absent = cache_ratios()
    finally:
        hooks.remove()
    kinds_per_op = [judge(wl, lh, inp, res, err, index, manifest)[0]
                    for index, (inp, (res, err, _)) in enumerate(zip(inputs, traced))]
    plain_kinds = [judge(wl, lh, inp, res, err, index, manifest)[0]
                   for index, (inp, (res, err, _)) in enumerate(zip(inputs, plain))]
    correct, failed, known, by_kind = summarize(kinds_per_op)
    correct = correct and summarize(plain_kinds)[0]
    info("failures", failures(by_kind, failed, known, count))

    metrics = dict(tracer.busy_ms())
    metrics.update({k: v for k, v in hooks.counts.items() if k not in hooks.absent})
    metrics.update(caches)
    metrics["l2complex.ill_formed"] = by_kind.get("ill_formed", 0)
    metrics["dbar.warnings"] = sum(res.get("warnings", 0) for res, _, _ in traced if res)
    metrics["fail_ratio"] = (failed + known) / count
    metrics["trace.overhead_ms"] = 1000.0 * (traced_wall - plain_wall)
    metrics.update(cli_layer(args, wl, traced))
    absent = sorted(hooks.absent | cache_absent)
    info("absent", absent)
    info("trace", {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
                   "spans": len(tracer.spans)})
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"))
    out = {name: {"value": value, "unit": "ms" if name.endswith("_ms")
                  else "ratio" if name.endswith("ratio") else "count"}
           for name, value in sorted(metrics.items())}
    return {"correct": correct, "attempted": count, "failed": failed, "metrics": out}


def cli_layer(args, wl, traced) -> dict:
    """Import and work time of the CLI (cli-batch) or of the library imports (elsewhere)."""
    if args.workload != "cli-batch":
        _, imports = setup_samples(args, wl, 1 if args.smoke else 3, importtime=True)
        return {"cli.import_ms": statistics.median(t for t, _ in imports),
                "cli.scipy_import_ms": statistics.median(s for _, s in imports),
                "cli.work_ms": 0.0}
    bare = []
    for _ in range(BARE_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        bare.append(time.perf_counter() - start)
    bare_ms = 1000.0 * statistics.median(bare)
    done = [res for res, _, _ in traced if res is not None]
    return {"cli.import_ms": statistics.median(r["import_ms"] for r in done),
            "cli.scipy_import_ms": statistics.median(r["scipy_import_ms"] for r in done),
            "cli.work_ms": statistics.median(1000.0 * r["wall"] - r["import_ms"] - bare_ms
                                             for r in done)}


def write_manifest(args, wl, lh: dict) -> int:
    entries = {}
    for index in range(args.write_manifest):
        inp = wl.make(lh, MANIFEST_SEED, index)
        res, error, _ = execute(wl, lh, inp, Tracer(False), index)
        kinds, digest = judge(wl, lh, inp, res, error, index, None)
        if any(kind not in KNOWN_DEFECTS for kind in kinds):
            print(f"op {index} failed unexpectedly: {kinds}", file=sys.stderr)
            return 1
        entries[str(index)] = "fail:" + ",".join(sorted(set(kinds))) if kinds else digest
    data = {}
    if os.path.exists(MANIFEST):
        with open(MANIFEST) as fh:
            data = json.load(fh)
    data[args.workload] = entries
    with open(MANIFEST, "w") as fh:
        json.dump(data, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=MANIFEST_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one pass over tiny inputs")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-manifest", type=int, metavar="OPS", default=0,
                        help=f"record output digests of the first OPS ops of seed {MANIFEST_SEED}")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "limithodge", "cli.py")):
        print(f"perfbench: no limithodge sources under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    os.chdir(ROOT)
    wl = importlib.import_module(WORKLOADS[args.workload])
    lh = wl.imports()
    if args.setup_probe:
        for index in range(len(wl.SMOKE if args.smoke else wl.CYCLE)):
            wl.make(lh, args.seed, index, args.smoke)
        return 0
    if args.write_manifest:
        return write_manifest(args, wl, lh)
    info("env", environment())
    result = traced_run(args, wl, lh) if args.trace else timed_run(args, wl, lh)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
