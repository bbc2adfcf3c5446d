"""What the weighted dbar layer decides before any numerics.

This module holds the dbar errors, the metric exponents and the radial grid
description, the corner rule, Hormander's coverage predicate and the parser
of ``dbar-solve`` experiment configs.  None of it imports numpy at module
level, so the CLI answers ``dbar-region`` and rejects invalid input (exit 2)
or an excluded exponent (exit 4) before numpy loads.  ``dbar``
re-exports every public name here and does the sampling and solving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Mapping

from . import LimithodgeError, PreconditionViolated, _integer

if TYPE_CHECKING:
    import numpy as np

# Twice the largest grid any test or benchmark solves on; at 4096 points
# the running spline terms of one mode alone (4n x n doubles) take about
# 0.5 GB.
MAX_POINTS = 2048
# The largest |e log r| of a radial power r^e that a config may make the
# solver form on its grid: the mode weights r^(+-(|m|+1)) and the profile
# powers r^p.  A solve multiplies at most four such powers (two profile
# powers, a path weight and its inverse), so 4 * 170 stays inside the
# normal double range e^(+-708) and every product is finite and nonzero.
# On the default grid (radii down to e^-9) this allows |m| <= 17 and
# |p| <= 18.9.
MAX_LOG_POWER = 170.0


class ExcludedExponent(LimithodgeError, ValueError):
    """A metric exponent sits at the excluded value 1."""

    code = 4
    kind = "excluded-exponent"


class IncompatibleInput(PreconditionViolated, ValueError):
    """Degree-(0,1) data that fail the mode-wise compatibility identity."""


class DivergentNorm(PreconditionViolated, ValueError):
    """A weighted norm that keeps growing under quadrature refinement."""


@dataclass(frozen=True)
class WeightedLineBundle:
    """Metric exponents (k, l); the section norm grows like (-log r1)^k (-log r2)^l.

    Any real pair may be stored — the region predicate below is meaningful
    for all exponents — but the solvers refuse k = 1 and l = 1, where no
    corner path yields a bounded inverse.
    """

    k: float
    l: float

    def admissible(self) -> bool:
        return self.k != 1.0 and self.l != 1.0

    def require_admissible(self) -> None:
        if not self.admissible():
            raise ExcludedExponent(
                f"metric exponents k={self.k}, l={self.l}: values equal to 1 are excluded"
            )


@lru_cache(maxsize=16)
def _grid_arrays(n: int, a: float, span: float) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    x = np.linspace(math.log(a) - span, math.log(a), n)
    r = np.exp(x)
    r.flags.writeable = False
    x.flags.writeable = False
    return r, x


@dataclass(frozen=True)
class RadialGrid:
    """Geometric radial sample points r_0 < ... < r_{n-1} = a on (0, a].

    Uniform in log r over ``span`` log-units, so with the default
    a = 1/e the weight variable -log r runs from 1 + span down to 1 and
    the log-power measures stay bounded on the grid.
    """

    n: int = 256
    a: float = math.exp(-1.0)
    span: float = 8.0

    def __post_init__(self) -> None:
        if self.n < 16:
            raise ValueError("radial grid needs at least 16 points")
        if not 0.0 < self.a < 1.0:
            raise ValueError("grid radius a must lie in (0, 1)")
        if self.span <= 0.0:
            raise ValueError("grid span must be positive")

    @property
    def r(self) -> np.ndarray:
        return _grid_arrays(self.n, self.a, self.span)[0]

    @property
    def log_r(self) -> np.ndarray:
        return _grid_arrays(self.n, self.a, self.span)[1]

    @property
    def h(self) -> float:
        """Step in the log variable."""
        return self.span / (self.n - 1)


def _corner_1d(mode_index: int, exponent: float, a: float) -> float:
    """Path start in one coordinate: 0 for negative modes, a for positive,
    with the metric exponent breaking the tie at mode 0 (above 1 from zero,
    below 1 from a)."""
    if mode_index < 0:
        return 0.0
    if mode_index > 0:
        return a
    if exponent == 1.0:
        raise ExcludedExponent(f"mode 0 with exponent {exponent}: no path start exists")
    return 0.0 if exponent > 1.0 else a


def path_corner(m: int, n: int, k: float, l: float, a: float = math.exp(-1.0)) -> tuple[float, float]:
    """Integration corner for the u_{m,n} path: coordinate-wise sign rule on
    (m, k) and (n, l).  Total on integer modes whenever k, l differ from 1."""
    return _corner_1d(m, k, a), _corner_1d(n, l, a)


def hormander_region(p: int, q: int, k: float, l: float) -> bool:
    """Whether the classical twisted existence theorem covers (p, q)-forms
    for metric exponents (k, l).

    With the exponents sorted as gamma_1 <= gamma_2 the condition is
    gamma_1 + ... + gamma_q - gamma_{p+1} - ... - gamma_2 > 0; for (0,1)
    this is -max(k, l) > 0, for (0,2) it is empty, and for (2,2) it is
    k + l > 0.
    """
    if not (0 <= p <= 2 and 0 <= q <= 2):
        raise ValueError("form type indices must lie in 0..2")
    gamma = sorted((float(k), float(l)))
    return sum(gamma[:q]) - sum(gamma[p:]) > 0.0


def _finite(data: Mapping, key: str) -> float:
    value = float(data[key])
    if not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {data[key]!r}")
    return value


# ---------------------------------------------------------------------------
# experiment configs


@dataclass(frozen=True)
class ModeSpec:
    """One mode of a config: indices, 0-based component slot, and profile.

    ``params`` is (center, width, amplitude) for a "bump" profile and
    (powers, amplitude) for a "poly" one, each pair two numbers.
    """

    m: int
    n: int
    slot: int
    profile: str
    params: tuple


@dataclass(frozen=True)
class CaseSpec:
    """A validated config: bundle, grid, form degree and modes, not yet sampled."""

    bundle: WeightedLineBundle
    grid: RadialGrid
    degree: int
    modes: tuple[ModeSpec, ...]


def _mode_index(entry: Mapping, key: str, bound: float) -> int:
    """A mode index whose path weights r^(+-(|index|+1)) have exponents within bound."""
    value = entry[key]
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value!r}")
    index = _integer(key, value)
    if abs(index) + 1 > bound:
        raise ValueError(f"{key} must satisfy |{key}| + 1 <= {bound:.6g} on this grid, got {index}")
    return index


def _number_pair(params: Mapping, key: str, default: tuple) -> tuple:
    value = tuple(params.get(key, default))
    for entry in value:
        if not isinstance(entry, (int, float)):
            raise ValueError(f"{key} entries must be numbers, got {entry!r}")
        if not math.isfinite(entry):
            raise ValueError(f"{key} entries must be finite, got {entry!r}")
    first, second = value
    return first, second


def parse_case(data: Mapping) -> CaseSpec:
    """Validate a config in the JSON task layout, without sampling it.

    Expected keys: k, l, optional A (grid radius), optional degree
    (default 1), optional points (16 to ``MAX_POINTS``), and a list of
    modes, each with m, n, a profile tag ("bump" or "poly"), its params,
    and for degree-1 data a component tag 1 or 2.  Bump params: center and
    nonzero width in log-radius units plus amplitude; poly params: powers
    and amplitude; every number finite.  m, n, degree, points and component
    must be JSON integers, not floats, strings or booleans.  Mode indices
    and powers are bounded by ``MAX_LOG_POWER`` over the grid's log-depth.  Raises
    ValueError, KeyError or TypeError on any malformed entry, so sampling
    the result cannot fail.
    """
    k = _finite(data, "k")
    l = _finite(data, "l")
    degree = _integer("degree", data.get("degree", 1))
    kwargs = {}
    if "A" in data:
        kwargs["a"] = _finite(data, "A")
    if "points" in data:
        kwargs["n"] = _integer("points", data["points"])
        if kwargs["n"] > MAX_POINTS:
            raise ValueError(f"points must be at most {MAX_POINTS}, got {kwargs['n']}")
    grid = RadialGrid(**kwargs)
    # the largest exponent a radial power may have: |log r| on the grid
    # runs up to -log of the smallest radius, span - log a
    bound = MAX_LOG_POWER / (grid.span - math.log(grid.a))
    count = 2 if degree == 1 else 1
    modes = []
    for entry in data.get("modes", ()):
        m = _mode_index(entry, "m", bound)
        n = _mode_index(entry, "n", bound)
        params = entry.get("params", {})
        if not isinstance(params, Mapping):
            raise ValueError(f"params of mode ({m}, {n}) must be an object, got {params!r}")
        tag = entry.get("profile", "bump")
        if tag == "bump":
            shape = (_number_pair(params, "center", (math.log(grid.a) - 4.0,) * 2),
                     _number_pair(params, "width", (0.6, 0.6)))
            if 0 in shape[1]:
                raise ValueError(f"width entries must be nonzero, got {list(shape[1])}")
        elif tag == "poly":
            shape = (_number_pair(params, "powers", (0.0, 0.0)),)
            if max(abs(p) for p in shape[0]) > bound:
                raise ValueError(f"powers entries must satisfy |p| <= {bound:.6g} on this grid, "
                                 f"got {list(shape[0])}")
        else:
            raise ValueError(f"unknown profile tag {tag!r}")
        amplitude = _finite(params, "amplitude") if "amplitude" in params else 1.0
        slot = _integer("component", entry.get("component", 1)) - 1
        if not 0 <= slot < count:
            raise ValueError(f"component {slot + 1} not valid for degree {degree}")
        modes.append(ModeSpec(m, n, slot, tag, (*shape, amplitude)))
    if degree not in (0, 1, 2):
        raise ValueError("degree must be 0, 1, or 2")
    return CaseSpec(WeightedLineBundle(k, l), grid, degree, tuple(modes))
