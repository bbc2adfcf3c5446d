#!/usr/bin/env python3
"""Smoke test for the benchmark: every workload once at tiny sizes, all checks on.

    python3 perfbench/smoke.py

Runs each workload of BENCHMARK.json with ``--smoke`` untraced and traced,
and checks the result line against BENCHMARK.json: the four keys, a correct
run, and exactly the listed metrics with their units.  Then checks that the
benchmark exits non-zero without printing a result in a directory that
holds only BENCHMARK.json and perfbench/.  Exits 1 on any problem.
"""

from __future__ import annotations

import json
import numbers
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600, check=False)


def problems_of(proc: subprocess.CompletedProcess, units: dict[str, str]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("not correct")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("nothing attempted")
    metrics = result.get("metrics", {})
    if set(metrics) != set(units):
        problems.append(f"metrics differ: missing {sorted(set(units) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(units))}")
    for name, entry in metrics.items():
        if not isinstance(entry.get("value"), numbers.Real) or entry.get("unit") != units.get(name):
            problems.append(f"bad metric {name}: {entry}")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                       "--trace", str(trace), "--smoke")
            problems = problems_of(proc, units[trace])
            failed = failed or bool(problems)
            print(f"{'FAIL' if problems else 'ok'} {workload} trace={trace} {'; '.join(problems)}",
                  flush=True)

    bare = os.path.join(ROOT, ".perfbench-out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run(bare, "--workload", "frames-rational", "--seed", "1", "--seconds", "1",
               "--trace", "0")
    printed_result = any(line.startswith('{"attempted"') for line in proc.stdout.splitlines())
    refused = proc.returncode != 0 and not printed_result
    shutil.rmtree(bare, ignore_errors=True)
    failed = failed or not refused
    print(f"{'ok' if refused else 'FAIL'} refuses to run without the sources "
          f"(exit {proc.returncode})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
