"""Per-layer measurement: spans around the benchmark's calls, and counting hooks.

Spans are recorded only by a tracer built with ``enabled=True``; the
timed (untraced) runs use a disabled tracer, whose ``call`` is a plain
call.  Counting hooks wrap a few limithodge internals at runtime and are
installed only for the traced pass, then removed again.  Nothing here
edits the library's files.
"""

from __future__ import annotations

import json
import sys
import time

# Busy-time spans: one name per limithodge module the benchmark calls into,
# plus finer names inside dbar.  Spans never nest, so busy time is self time.
SPAN_METRICS = {
    "weightfilt": "weightfilt.busy_ms",
    "sl2rep": "sl2rep.busy_ms",
    "hodgestruct": "hodgestruct.busy_ms",
    "growth": "growth.busy_ms",
    "l2complex": "l2complex.busy_ms",
    "serialize": "serialize.busy_ms",
    "dbar.solve": "dbar.solve_ms",
    "dbar.residual": "dbar.residual_ms",
    "dbar.norm": "dbar.norm_ms",
    "dbar.oracle": "dbar.oracle_ms",
}

COUNTERS = (
    "exactla.scalar_muls",
    "exactla.scalar_invs",
    "exactla.matmuls",
    "exactla.rref_calls",
    "exactla.rref_max_cols",
    "weightfilt.calls",
    "dbar.tail_integrals",
    "dbar.tail_integrals_distinct",
)

# (metric, module, function holding an lru cache)
CACHES = (
    ("growth.wf_cache_hit_ratio", "growth", "_weight_filtration"),
    ("l2complex.pieces_cache_hit_ratio", "l2complex", "_bilevel_pieces"),
)


class Tracer:
    """Spans (name, start, end, parent, op id) kept in memory until the run ends."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[str, float, float, str | None, int | None]] = []
        self.op_id: int | None = None

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, start, time.perf_counter(), f"op{self.op_id}", self.op_id))

    def op_span(self, op_id: int, start: float, end: float) -> None:
        if self.enabled:
            self.spans.append(("op", start, end, None, op_id))

    def busy_ms(self) -> dict[str, float]:
        out = {metric: 0.0 for metric in SPAN_METRICS.values()}
        for name, start, end, _, _ in self.spans:
            if name in SPAN_METRICS:
                out[SPAN_METRICS[name]] += 1000.0 * (end - start)
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump([{"name": n, "start": s, "end": e, "parent": p, "op": o}
                       for n, s, e, p, o in self.spans], fh)


def _module(name: str):
    return sys.modules.get(f"limithodge.{name}")


class Hooks:
    """Counting wrappers around limithodge internals, for the traced pass only.

    A module the workload never imported leaves its counters at 0 (nothing
    ran); a module that is loaded but lacks the hooked name reports the
    metric as absent instead of 0.
    """

    def __init__(self):
        self.counts = {name: 0 for name in COUNTERS}
        self.absent: set[str] = set()
        self._tails: set = set()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, module: str, owner: str | None, attr: str, metrics: tuple[str, ...],
              make) -> None:
        mod = _module(module)
        if mod is None:
            return
        target = getattr(mod, owner, None) if owner else mod
        original = getattr(target, attr, None) if target is not None else None
        if original is None:
            self.absent.update(metrics)
            return
        self._patches.append((target, attr, original))
        setattr(target, attr, make(original))

    def install(self) -> None:
        counts = self.counts

        def counting(metric):
            def make(original):
                def wrapper(*args, **kwargs):
                    counts[metric] += 1
                    return original(*args, **kwargs)
                return wrapper
            return make

        def row_reduce(original):
            def wrapper(rows, *args, **kwargs):
                counts["exactla.rref_calls"] += 1
                width = len(rows[0]) if rows else 0
                if width > counts["exactla.rref_max_cols"]:
                    counts["exactla.rref_max_cols"] = width
                return original(rows, *args, **kwargs)
            return wrapper

        def tail(original):
            def wrapper(*args, **kwargs):
                counts["dbar.tail_integrals"] += 1
                self._tails.add((args, tuple(sorted(kwargs.items()))))
                counts["dbar.tail_integrals_distinct"] = len(self._tails)
                return original(*args, **kwargs)
            return wrapper

        muls = ("exactla.scalar_muls",)
        self._wrap("exactla", "Scalar", "__mul__", muls, counting(muls[0]))
        self._wrap("exactla", "Scalar", "__rmul__", muls, counting(muls[0]))
        self._wrap("exactla", "Scalar", "inv", ("exactla.scalar_invs",),
                   counting("exactla.scalar_invs"))
        self._wrap("exactla", "ExactMatrix", "__matmul__", ("exactla.matmuls",),
                   counting("exactla.matmuls"))
        self._wrap("exactla", None, "_row_reduce",
                   ("exactla.rref_calls", "exactla.rref_max_cols"), row_reduce)
        self._wrap("weightfilt", None, "_verify_weight_axioms", ("weightfilt.calls",),
                   counting("weightfilt.calls"))
        self._wrap("dbar", None, "_tail_converges",
                   ("dbar.tail_integrals", "dbar.tail_integrals_distinct"), tail)

    def remove(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()


def clear_caches() -> None:
    """Empty the library's lru caches so a pass starts cold."""
    for name in ("growth", "l2complex", "dbar"):
        mod = _module(name)
        for value in vars(mod).values() if mod is not None else ():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def cache_ratios() -> tuple[dict[str, float], set[str]]:
    """Hit ratio of each named cache since the last clear (0 when never queried)."""
    out, absent = {}, set()
    for metric, module, attr in CACHES:
        mod = _module(module)
        if mod is None:
            out[metric] = 0.0
            continue
        info = getattr(getattr(mod, attr, None), "cache_info", None)
        if info is None:
            absent.add(metric)
            continue
        stats = info()
        total = stats.hits + stats.misses
        out[metric] = stats.hits / total if total else 0.0
    return out, absent


def parse_importtime(stderr: str) -> tuple[float, float, list[str]]:
    """(total import ms, scipy.interpolate ms, remaining stderr lines) from -X importtime."""
    total_us = scipy_us = 0
    rest = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            rest.append(line)
            continue
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative = int(parts[1])
        name = parts[2]
        if name.startswith(" ") and not name.startswith("  "):
            total_us += cumulative
        if name.strip() == "scipy.interpolate":
            scipy_us = max(scipy_us, cumulative)
    return total_us / 1000.0, scipy_us / 1000.0, rest
