"""Numerical Fourier-mode solver for the weighted dbar equation near the corner.

Forms on the punctured bidisc are truncated to finitely many angular modes
``exp(i(m th1 + n th2))`` with radial profiles sampled on a geometric grid
over ``(0, A]^2``.  Against a metric weight ``(-log r1)^k (-log r2)^l`` the
equation ``dbar u = phi`` splits mode by mode into radial transport
equations; each is solved by integrating along a path from a corner of the
square, the corner picked by the signs of ``(m, n)`` with the exponents
``(k, l)`` breaking ties at ``m = 0`` or ``n = 0``.  The exponent values
``k = 1`` and ``l = 1`` admit no such choice and are rejected.

Everything here is floating point: solutions come from cubic-spline
antiderivatives, residuals from high-order log-variable stencils, and norms
from trapezoid quadrature against the Poincare-type volume
``dr / (r (-log r)^2)`` per factor.  The spline is the not-a-knot cubic
through the grid points, computed with numpy alone: its slopes solve a
tridiagonal system whose elimination is factored once per grid, and each
antiderivative repeats, operation for operation, the arithmetic of scipy's
``CubicSpline(r, y).antiderivative()(r)``, so reports match it to the
last bit.  Integral finiteness is decided by
refinement-ratio tests, never symbolically; the exact symbolic verdicts
live in ``l2complex`` and ``integrability_oracle`` exists to cross-check
them from this side.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Mapping

import numpy as np

# The numpy-free half of the layer; re-exported so that ``dbar`` stays the
# one import for library callers.
from .dbarspec import (
    CaseSpec,
    DivergentNorm,
    ExcludedExponent,
    IncompatibleInput,
    RadialGrid,
    WeightedLineBundle,
    _corner_1d,
    hormander_region,
    parse_case,
    path_corner,
)
from .exactla import ExactMatrix, solve as _exact_solve

_TINY = 1e-30
# the relative change of the norm ratio per quadrature refinement that
# verify_bound accepts as stable
_STABILITY = 0.1
# the order of the log-variable derivative stencils
_STENCIL_ORDER = 8
# the shortest truncated span S of the tail test and its trapezoid points per unit of s
_TAIL_SPAN = 8.0
_TAIL_POINTS_PER_UNIT = 64


ModeKey = tuple[int, int]
ModeMap = dict[ModeKey, np.ndarray]


@dataclass(frozen=True)
class FourierForm:
    """Finite collection of angular modes with radial profiles on a grid.

    degree 0 — one component holding coefficients u_{m,n}(r1, r2);
    degree 1 — two components (f1, f2) of f1 dtbar1 + f2 dtbar2;
    degree 2 — one component, the coefficient of dtbar1 ^ dtbar2.

    Profiles are (n, n) arrays, axis 0 indexing r1 and axis 1 indexing r2.
    For norm and bound measurements the profiles should vanish near both
    grid edges; the solvers themselves accept anything sampled on the grid
    (a constant profile is a legitimate right-hand side).
    """

    degree: int
    grid: RadialGrid
    components: tuple[ModeMap, ...]

    def __post_init__(self) -> None:
        if self.degree not in (0, 1, 2):
            raise ValueError("degree must be 0, 1, or 2")
        expected = 2 if self.degree == 1 else 1
        if len(self.components) != expected:
            raise ValueError(
                f"degree {self.degree} data need {expected} component map(s), got {len(self.components)}"
            )
        shape = (self.grid.n, self.grid.n)
        for comp in self.components:
            for key, profile in comp.items():
                if not isinstance(profile, np.ndarray) or profile.shape != shape:
                    raise ValueError(f"profile for mode {key} must be an array of shape {shape}")

    @staticmethod
    def zero(degree: int, grid: RadialGrid) -> FourierForm:
        count = 2 if degree == 1 else 1
        return FourierForm(degree, grid, tuple({} for _ in range(count)))

    def max_abs(self) -> float:
        worst = 0.0
        for comp in self.components:
            for profile in comp.values():
                if profile.size:
                    worst = max(worst, float(np.max(np.abs(profile))))
        return worst

    def is_zero(self) -> bool:
        return self.max_abs() == 0.0


def sample_mode(grid: RadialGrid, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """Evaluate fn(r1, r2) over the product grid by broadcasting."""
    r = grid.r
    values = np.asarray(fn(r[:, None], r[None, :]))
    return np.broadcast_to(values, (grid.n, grid.n)).astype(np.result_type(values, np.float64))


def gaussian_profile(center: tuple[float, float], width: tuple[float, float],
                     amplitude: float = 1.0) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Product Gaussian bump in the log variables, centred at ``center`` (log r units).

    Decays fast enough that a few widths inside the grid it is zero to
    working precision, which is what the path integrals assume.
    """
    c1, c2 = center
    w1, w2 = width

    def fn(r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
        x1 = np.log(r1)
        x2 = np.log(r2)
        return amplitude * np.exp(-((x1 - c1) ** 2) / (2 * w1 ** 2)
                                  - ((x2 - c2) ** 2) / (2 * w2 ** 2))

    return fn


def monomial_profile(powers: tuple[float, float],
                     amplitude: float = 1.0) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Monomial profile amplitude * r1^p1 * r2^p2 (p = (0, 0) gives a constant)."""
    p1, p2 = powers

    def fn(r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
        return amplitude * r1 ** p1 * r2 ** p2

    return fn


# ---------------------------------------------------------------------------
# differentiation and path integration


@lru_cache(maxsize=64)
def _stencil_weights(offsets: tuple[int, ...]) -> tuple[float, ...]:
    """First-derivative weights for integer offsets (in units of the step).

    The moment system is solved in exact rational arithmetic — a float
    Vandermonde solve at these offsets loses five or six digits, which is
    visible in the residuals — and rounded once at the end.
    """
    count = len(offsets)
    moments = ExactMatrix.from_function(
        count, count, lambda p, j: offsets[j] ** p if p else 1
    )
    rhs = [0] * count
    rhs[1] = 1
    weights = _exact_solve(moments, rhs)
    assert weights is not None
    return tuple(float(w.re) for w in weights)


@lru_cache(maxsize=32)
def _diff_matrix(n: int, h: float) -> np.ndarray:
    """Dense first-derivative matrix in the log variable (uniform step h).

    Each row is an (_STENCIL_ORDER+1)-point stencil, centred where possible
    and shifted at the edges; the weights solve the moment system exactly,
    so the matrix differentiates polynomials of degree <= _STENCIL_ORDER
    without error.
    """
    points = _STENCIL_ORDER + 1
    if n < points:
        raise ValueError("grid too small for the differentiation stencil")
    half = _STENCIL_ORDER // 2
    out = np.zeros((n, n))
    for i in range(n):
        lo = min(max(i - half, 0), n - points)
        offsets = tuple(range(lo - i, lo - i + points))
        out[i, lo : lo + points] = np.asarray(_stencil_weights(offsets)) / h
    return out


def _radial_derivative(values: np.ndarray, grid: RadialGrid, axis: int) -> np.ndarray:
    """d(values)/dr_i along the given axis, via log-variable stencils."""
    d = _diff_matrix(grid.n, grid.h)
    if axis == 0:
        return (d @ values) / grid.r[:, None]
    return (values @ d.T) / grid.r[None, :]


def _transport(values: np.ndarray, grid: RadialGrid, axis: int, mode_index: int) -> np.ndarray:
    """The mode-wise dbar operator (1/2)(d/dr_i - mode_index/r_i) along an axis."""
    r = grid.r[:, None] if axis == 0 else grid.r[None, :]
    return 0.5 * (_radial_derivative(values, grid, axis) - mode_index * values / r)


@dataclass(frozen=True)
class _SplineSystem:
    """The grid-only half of a not-a-knot cubic spline through the grid points.

    The derivative system is LAPACK ``gtsv``'s tridiagonal elimination with
    partial pivoting: ``swaps`` and ``factors`` replay it on a right-hand
    side, ``diag``, ``upper`` and ``upper2`` are the U factor it leaves for
    the back-substitution.  ``ends`` holds the coefficients of the two
    not-a-knot rows, once for 1-D data and once for 2-D, because numpy
    squares a scalar step through ``pow`` and an array of steps by
    multiplication, and the two disagree in the last bit.  ``powers`` are
    the steps s, s^2, s^3, s^4, each by one more multiplication.
    """

    swaps: tuple[bool, ...]
    factors: tuple[float, ...]
    diag: tuple[float, ...]
    upper: tuple[float, ...]
    upper2: tuple[float, ...]
    ends: tuple[tuple[float, ...], tuple[float, ...]]
    powers: tuple[np.ndarray, ...]


@lru_cache(maxsize=16)
def _spline_system(grid: RadialGrid) -> _SplineSystem:
    r = grid.r
    dx = np.diff(r)
    h = dx.tolist()
    n = grid.n
    d0 = float(r[2] - r[0])
    d1 = float(r[-1] - r[-3])
    # the tridiagonal matrix in LAPACK's storage: row i reads
    # lower[i-1] s[i-1] + diag[i] s[i] + upper[i] s[i+1]
    diag = [h[1], *(2 * (dx[:-1] + dx[1:])).tolist(), h[-2]]
    upper = [d0, *h[:-1]]
    lower = [*h[1:], d1]
    swaps, factors = [], []
    for i in range(n - 1):
        swap = abs(diag[i]) < abs(lower[i])
        if not swap:
            factor = lower[i] / diag[i]
            diag[i + 1] = diag[i + 1] - factor * upper[i]
            lower[i] = 0.0
        else:
            factor = diag[i] / lower[i]
            diag[i], temp = lower[i], diag[i + 1]
            diag[i + 1] = upper[i] - factor * temp
            if i < n - 2:
                lower[i] = upper[i + 1]
                upper[i + 1] = -factor * lower[i]
            upper[i] = temp
        swaps.append(swap)
        factors.append(factor)
    lead0 = (h[0] + 2 * d0) * h[1]
    lead1 = (2 * d1 + h[-1]) * h[-2]
    scalar = (lead0, float(dx[0] ** 2), d0, lead1, float(dx[-1] ** 2), d1)
    array = (lead0, h[0] * h[0], d0, lead1, h[-1] * h[-1], d1)
    powers = [dx]
    for _ in range(3):
        powers.append(powers[-1] * dx)
    return _SplineSystem(tuple(swaps), tuple(factors), tuple(diag), tuple(upper),
                         tuple(lower[:-1]), (scalar, array), tuple(powers))


def _rows(a: np.ndarray) -> list:
    """A 1-D array's entries as Python floats, or a 2-D array's rows as views.

    Python floats are IEEE doubles with no fused multiply-add, so a loop
    over either kind performs the same roundings as numpy would.
    """
    return a.tolist() if a.ndim == 1 else list(a)


def _solve_spline_system(system: _SplineSystem, rhs: np.ndarray) -> np.ndarray:
    """Spline slopes s from the right-hand side, by gtsv's arithmetic.

    Every operation is the one LAPACK performs, in its order, on a scalar
    or a whole row at a time; a 2-D ``rhs`` is overwritten.
    """
    b = _rows(rhs)
    for i, (swap, factor) in enumerate(zip(system.swaps, system.factors)):
        if swap:
            b[i], b[i + 1] = b[i + 1], b[i] - factor * b[i + 1]
        else:
            b[i + 1] -= factor * b[i]
    diag, upper, upper2 = system.diag, system.upper, system.upper2
    b[-1] /= diag[-1]
    b[-2] -= upper[-1] * b[-1]
    b[-2] /= diag[-2]
    for i in range(len(b) - 3, -1, -1):
        b[i] -= upper[i] * b[i + 1]
        b[i] -= upper2[i] * b[i + 2]
        b[i] /= diag[i]
    return np.array(b)


def _spline_antiderivative(grid: RadialGrid, y: np.ndarray) -> np.ndarray:
    """The antiderivative of the not-a-knot cubic spline of real y, at the grid.

    Bit for bit what scipy 1.17 returns for
    ``CubicSpline(grid.r, y, axis=0).antiderivative()(grid.r)``: the
    derivative system, the Hermite coefficients, and the running constant
    that ``PPoly.antiderivative`` fixes interval by interval,
    (((C + a3 s) + a2 s^2) + a1 s^3) + a0 s^4 from C = 0, which is also
    the value at the next grid point.
    """
    system = _spline_system(grid)
    column = (slice(None),) + (None,) * (y.ndim - 1)
    dx, dx2, dx3, dx4 = (z[column] for z in system.powers)
    lead0, square0, d0, lead1, square1, d1 = system.ends[y.ndim > 1]
    # The formulas are scipy's, evaluated in place where a temporary would
    # be a fresh (n, m) array: on 2-D data the page faults of such
    # temporaries cost about as much as the arithmetic.
    slope = np.diff(y, axis=0)
    slope /= dx
    rhs = np.empty(y.shape)
    inner = rhs[1:-1]  # 3 (dx[1:] slope[:-1] + dx[:-1] slope[1:])
    np.multiply(dx[1:], slope[:-1], out=inner)
    inner += dx[:-1] * slope[1:]
    inner *= 3
    rhs[0] = (lead0 * slope[0] + square0 * slope[1]) / d0
    rhs[-1] = (square1 * slope[-2] + lead1 * slope[-1]) / d1
    s = _solve_spline_system(system, rhs)
    t = s[:-1] + s[1:]  # (s[:-1] + s[1:] - 2 slope) / dx
    t -= 2 * slope
    t /= dx
    a2 = s[:-1] / 2.0  # the antiderivative's coefficients times s^k
    a2 *= dx2
    a1 = slope  # ((slope - s[:-1]) / dx - t) / 3 dx^3
    a1 -= s[:-1]
    a1 /= dx
    a1 -= t
    a1 /= 3.0
    a1 *= dx3
    a0 = t  # t / dx / 4 dx^4
    a0 /= dx
    a0 /= 4.0
    a0 *= dx4
    terms = (y[:-1] * dx, a2, a1, a0)
    total = 0.0 if y.ndim == 1 else np.zeros(y.shape[1:])
    values = [total]
    for x3, x2, x1, x0 in zip(*map(_rows, terms)):
        total = total + x3
        total += x2
        total += x1
        total += x0
        values.append(total)
    return np.array(values)


def _antiderivative(grid: RadialGrid, integrand: np.ndarray, start: float) -> np.ndarray:
    """Cumulative spline integral of integrand along grid.r (axis 0) from start.

    A start of 0 integrates from the grid's inner edge, any other start
    from the grid top.  Complex data integrate their real and imaginary
    parts apart.
    """
    if not np.all(np.isfinite(integrand)):
        raise ValueError("`y` must contain only finite values.")
    if np.iscomplexobj(integrand):
        values = np.empty(integrand.shape, dtype=complex)
        values.real = _spline_antiderivative(grid, integrand.real)
        values.imag = _spline_antiderivative(grid, integrand.imag)
    else:
        values = _spline_antiderivative(grid, np.asarray(integrand, dtype=float))
    return values - values[-1] if start != 0.0 else values


def _path_integral(profile: np.ndarray, grid: RadialGrid, axis: int,
                   mode_index: int, start: float) -> np.ndarray:
    """Cumulative integral_start^{r_i} rho^(-mode_index) profile d rho along an axis.

    A start of 0 truncates at the grid's lower edge; the dropped segment
    carries no data for supported profiles and only shifts the answer by a
    homogeneous solution otherwise.  A start of a is the exact grid top.
    """
    r = grid.r
    work = profile if axis == 0 else profile.T
    integrand = work * r[:, None] ** float(-mode_index)
    values = _antiderivative(grid, integrand, start)
    return values if axis == 0 else values.T


# ---------------------------------------------------------------------------
# compatibility, solvers, residuals


def _relation_modes(f1: Mapping[ModeKey, np.ndarray], f2: Mapping[ModeKey, np.ndarray]) -> list[ModeKey]:
    keys = {(m - 1, n) for (m, n) in f1} | {(m, n - 1) for (m, n) in f2}
    return sorted(keys)


def _compatibility_residual(phi: FourierForm, stride: int = 1) -> float:
    grid = phi.grid
    if stride == 1:
        idx = np.arange(grid.n)
        sub = grid
    else:
        idx = np.arange(grid.n - 1, -1, -stride)[::-1]
        sub = RadialGrid(len(idx), grid.a, grid.h * stride * (len(idx) - 1))
    r = grid.r[idx]
    f1, f2 = phi.components
    floor = max(phi.max_abs(), _TINY)
    worst = 0.0
    for (m, n) in _relation_modes(f1, f2):
        g1 = f1.get((m + 1, n))
        g2 = f2.get((m, n + 1))
        lhs = np.zeros((len(idx), len(idx)))
        rhs = np.zeros((len(idx), len(idx)))
        if g1 is not None:
            p = g1[np.ix_(idx, idx)]
            lhs = _radial_derivative(p, sub, 1) - n * p / r[None, :]
        if g2 is not None:
            p = g2[np.ix_(idx, idx)]
            rhs = _radial_derivative(p, sub, 0) - m * p / r[:, None]
        # judged against the equation's own magnitude: the sides carry 1/r
        # factors that can tower over the raw profiles
        scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))), floor)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))) / scale)
    return worst


def check_integrability(phi: FourierForm, tolerance: float = 1e-6) -> bool:
    """Whether (0,1) data satisfy the mode-wise compatibility identity.

    For every relation index (m, n) this compares
    ``d f1_{m+1,n}/dr2 - (n/r2) f1_{m+1,n}`` against
    ``d f2_{m,n+1}/dr1 - (m/r1) f2_{m,n+1}``
    in relative sup norm; missing partners count as zero.  When the verdict
    flips between full and half resolution the grid cannot certify either
    answer, which is reported as a warning rather than an error.
    """
    if phi.degree != 1:
        raise ValueError("integrability concerns degree-(0,1) data")
    worst = _compatibility_residual(phi)
    verdict = worst < tolerance
    if phi.grid.n >= 64:
        coarse = _compatibility_residual(phi, stride=2)
        if (coarse < tolerance) != verdict:
            warnings.warn(
                "grid too coarse for a reliable integrability verdict",
                RuntimeWarning,
                stacklevel=2,
            )
    return verdict


def _edge_leg(profile: np.ndarray, grid: RadialGrid, m: int, n: int,
              c1: float, c2: float) -> np.ndarray:
    """The corner-edge contribution of the second path leg.

    2 c1^{-m} r1^m r2^n int_{c2}^{r2} rho^{-n} f2(c1, rho) d rho, with the
    c1 = 0 line read off at the grid's inner edge (the usual truncation).
    The c1^{-m} factor never blows up: the corner rule sends m > 0 to the
    outer edge, so the zero corner only meets nonnegative powers.
    """
    r = grid.r
    edge = 0 if c1 == 0.0 else grid.n - 1
    integrand = profile[edge, :] * r ** float(-n)
    values = _antiderivative(grid, integrand, c2)
    scale = 2.0 * r[edge] ** float(-m)
    return scale * np.outer(r ** float(m), r ** float(n) * values)


def solve_dbar_01(phi: FourierForm, bundle: WeightedLineBundle,
                  *, tolerance: float = 1e-6) -> FourierForm:
    """Solve dbar u = phi for (0,1) data phi, mode by mode along corner paths.

    Every output mode is the integral of the closed (by compatibility)
    1-form rho1^{-m} rho2^{-n} (f1 d rho1 + f2 d rho2) along the L-shaped
    path from the corner (c1, c2) picked by ``path_corner``: first along
    coordinate 2 at rho1 = c1, then along coordinate 1 at the live r2,

        u_{m,n} = 2 r1^m int_{c1}^{r1} rho^{-m} f1_{m+1,n}(rho, r2) d rho
                + 2 c1^{-m} r1^m r2^n int_{c2}^{r2} rho^{-n} f2_{m,n+1}(c1, rho) d rho.

    The edge leg drops for data vanishing at the corner edges (and exactly
    when f2 is absent); when f1 is absent the orientation flips so the
    whole path runs along coordinate 2.
    """
    bundle.require_admissible()
    if phi.degree != 1:
        raise ValueError("solve_dbar_01 expects degree-(0,1) data")
    grid = phi.grid
    if not check_integrability(phi, tolerance):
        raise IncompatibleInput("the (0,1) data fail the compatibility identity")
    f1, f2 = phi.components
    out: ModeMap = {}
    for (m, n) in _relation_modes(f1, f2):
        g1 = f1.get((m + 1, n))
        g2 = f2.get((m, n + 1))
        c1, c2 = path_corner(m, n, bundle.k, bundle.l, grid.a)
        have1 = g1 is not None and bool(np.any(g1))
        have2 = g2 is not None and bool(np.any(g2))
        if have1:
            u = 2.0 * grid.r[:, None] ** float(m) * _path_integral(g1, grid, 0, m, c1)
            if have2:
                u = u + _edge_leg(g2, grid, m, n, c1, c2)
        elif have2:
            u = 2.0 * grid.r[None, :] ** float(n) * _path_integral(g2, grid, 1, n, c2)
        else:
            continue
        out[(m, n)] = u
    return FourierForm(0, grid, (out,))


def solve_dbar_02(phi: FourierForm, bundle: WeightedLineBundle) -> FourierForm:
    """Solve dbar psi = phi for (0,2) data, returning psi = u1 dtbar1 + u2 dtbar2.

    Each input mode f_{m,n} feeds u1_{m,n-1} and u2_{m-1,n}; both radial
    antiderivatives start at the coordinate picked by the one-dimensional
    corner rule, and the signs are arranged so the two halves add up to the
    right-hand side exactly.
    """
    bundle.require_admissible()
    if phi.degree != 2:
        raise ValueError("solve_dbar_02 expects degree-(0,2) data")
    grid = phi.grid
    (f,) = phi.components
    u1: ModeMap = {}
    u2: ModeMap = {}
    for (mm, nn) in sorted(f):
        profile = f[(mm, nn)]
        if not np.any(profile):
            continue
        m, n = mm, nn - 1
        c2 = _corner_1d(n, bundle.l, grid.a)
        u1[(m, n)] = -grid.r[None, :] ** float(n) * _path_integral(profile, grid, 1, n, c2)
        m, n = mm - 1, nn
        c1 = _corner_1d(m, bundle.k, grid.a)
        u2[(m, n)] = grid.r[:, None] ** float(m) * _path_integral(profile, grid, 0, m, c1)
    return FourierForm(1, grid, (u1, u2))


def dbar_residual(u: FourierForm, phi: FourierForm) -> float:
    """Relative sup-norm residual of dbar u = phi over all relation modes.

    Works for u of degree 0 against (0,1) data and for u of degree 1
    against (0,2) data; modes present on either side enter the comparison,
    with absentees counting as zero.
    """
    if phi.degree != u.degree + 1:
        raise ValueError("residual needs phi of degree one more than u")
    if u.grid != phi.grid:
        raise ValueError("solution and data live on different grids")
    grid = u.grid
    scale = max(phi.max_abs(), u.max_abs(), _TINY)
    zero = np.zeros((grid.n, grid.n))
    worst = 0.0
    if u.degree == 0:
        (um,) = u.components
        f1, f2 = phi.components
        for (m, n) in sorted({(i + 1, j) for (i, j) in um} | set(f1)):
            lhs = _transport(um.get((m - 1, n), zero), grid, 0, m - 1)
            worst = max(worst, float(np.max(np.abs(lhs - f1.get((m, n), zero)))))
        for (m, n) in sorted({(i, j + 1) for (i, j) in um} | set(f2)):
            lhs = _transport(um.get((m, n - 1), zero), grid, 1, n - 1)
            worst = max(worst, float(np.max(np.abs(lhs - f2.get((m, n), zero)))))
    else:
        u1, u2 = u.components
        (f,) = phi.components
        keys = {(i + 1, j) for (i, j) in u2} | {(i, j + 1) for (i, j) in u1} | set(f)
        for (m, n) in sorted(keys):
            lhs = _transport(u2.get((m - 1, n), zero), grid, 0, m - 1) - _transport(
                u1.get((m, n - 1), zero), grid, 1, n - 1
            )
            worst = max(worst, float(np.max(np.abs(lhs - f.get((m, n), zero)))))
    return worst / scale


# ---------------------------------------------------------------------------
# weighted norms and the measured bound


def _trapezoid_weights(r: np.ndarray) -> np.ndarray:
    w = np.empty_like(r)
    w[0] = (r[1] - r[0]) / 2.0
    w[-1] = (r[-1] - r[-2]) / 2.0
    w[1:-1] = (r[2:] - r[:-2]) / 2.0
    return w


def _component_twists(degree: int, index: int) -> tuple[bool, bool]:
    if degree == 0:
        return False, False
    if degree == 1:
        return (True, False) if index == 0 else (False, True)
    return True, True


def weighted_norm(form: FourierForm, bundle: WeightedLineBundle, *, stride: int = 1) -> float:
    """Squared weighted L2 norm of the form against the bundle metric.

    Per mode and component the measure in each radial factor is
    ``r^{-1} (-log r)^{e-2} dr`` without a dtbar_i, and ``r (-log r)^{e} dr``
    with one, where e is k for the first factor and l for the second; this
    is the metric weight times the Poincare-type volume, with the dtbar
    factors carrying ``r^2 (-log r)^2`` of their own.  Constant angular
    factors are dropped throughout — they cancel from every ratio.  A
    stride subsamples the grid from the top for refinement comparisons.
    """
    grid = form.grid
    if stride == 1:
        idx = np.arange(grid.n)
    else:
        idx = np.arange(grid.n - 1, -1, -stride)[::-1]
    r = grid.r[idx]
    s = -grid.log_r[idx]
    w = _trapezoid_weights(r)
    total = 0.0
    for index, comp in enumerate(form.components):
        t1, t2 = _component_twists(form.degree, index)
        vec1 = w * r ** (1.0 if t1 else -1.0) * s ** (bundle.k - 2.0 + 2.0 * t1)
        vec2 = w * r ** (1.0 if t2 else -1.0) * s ** (bundle.l - 2.0 + 2.0 * t2)
        for key in sorted(comp):
            profile = np.abs(comp[key][np.ix_(idx, idx)]) ** 2
            total += float(np.einsum("i,j,ij->", vec1, vec2, profile).real)
    return total


def verify_bound(phi: FourierForm, u: FourierForm, bundle: WeightedLineBundle) -> float:
    """Measured constant C = ||u||^2_w / ||phi||^2_w with a refinement check.

    Both squared norms are evaluated at three nested quadrature levels
    (every fourth point, every second, all).  If the ratio keeps growing by
    more than the margin ``_STABILITY`` (10%) at both refinements the norm
    is treated as divergent; a one-off wobble above the margin is only
    warned about.
    Zero data admit no ratio and give the 0/0 sentinel nan.
    """
    bundle.require_admissible()
    if phi.degree != u.degree + 1:
        raise ValueError("bound comparison needs phi of degree one more than u")
    if phi.is_zero():
        return math.nan
    ratios = []
    for stride in (4, 2, 1):
        denominator = weighted_norm(phi, bundle, stride=stride)
        numerator = weighted_norm(u, bundle, stride=stride)
        if denominator <= 0.0:
            return math.nan
        ratios.append(numerator / denominator)
    first, second, third = ratios
    if third > (1.0 + _STABILITY) * second and second > (1.0 + _STABILITY) * first:
        raise DivergentNorm(
            f"norm ratio grows under refinement: {first:.6g} -> {second:.6g} -> {third:.6g}"
        )
    if abs(third - second) > _STABILITY * max(abs(second), _TINY):
        warnings.warn("bound ratio not yet stable under refinement", RuntimeWarning, stacklevel=2)
    return third


# ---------------------------------------------------------------------------
# refinement-ratio integrability oracle


@dataclass(frozen=True)
class OracleVerdict:
    """Quadrature verdicts for the two orderings of the corner region."""

    is_l2_d_eps: bool
    is_l2_d_eps_prime: bool

    @property
    def is_l2(self) -> bool:
        return self.is_l2_d_eps and self.is_l2_d_eps_prime

    def as_tuple(self) -> tuple[bool, bool, bool]:
        return self.is_l2_d_eps, self.is_l2_d_eps_prime, self.is_l2


@lru_cache(maxsize=256)  # a 1296-cell sweep asks for 38 distinct integrals
def _tail_converges(t_order: int, log_exponent: float, *, epsilon: float = 0.1) -> bool:
    """Refinement-ratio test for integral_0^(1/e) r^(2 t_order - 1) (-log r)^p dr.

    In the variable s = -log r this is the tail integral of e^{-2 t s} s^p
    from 1; truncating at spans S, 2S, 4S and comparing increments decides
    convergence: shrinking increments (ratio below 1 - epsilon) mean the
    tail closes up, anything else means it does not.
    """
    values = []
    for factor in (1, 2, 4):
        span = _TAIL_SPAN * factor
        count = int(span * _TAIL_POINTS_PER_UNIT) + 1
        s = np.linspace(1.0, 1.0 + span, count)
        integrand = np.exp(-2.0 * t_order * s) * s ** float(log_exponent)
        values.append(float(np.trapezoid(integrand, s)))
    first = values[1] - values[0]
    second = values[2] - values[1]
    tiny = 1e-12 * max(abs(values[-1]), 1.0)
    if abs(first) <= tiny and abs(second) <= tiny:
        return True
    return abs(second) < (1.0 - epsilon) * abs(first)


def integrability_oracle(component: Iterable[int], n1: int, n2: int, l1: int, l2: int,
                         *, epsilon: float = 0.1) -> OracleVerdict:
    """Numerical square-integrability verdict for a section of t-orders
    (n1, n2) and weight offsets (l1, l2) on the region tagged by component.

    The squared norm factors into two radial integrals: the first carries
    (-log r1)^{l1}, the second (-log r2)^{l2-l1}; membership of i in the
    component multiplies in (-log r_i)^2, and the volume contributes
    r_i^{-1} (-log r_i)^{-2} per factor.  Swapping the ordering exchanges
    the roles of the two weights, giving the primed verdict.  Each factor
    is settled by the refinement-ratio test, so this function is a
    quadrature-side check on the symbolic classifier, sharing none of its
    arithmetic.
    """
    comp = frozenset(component)
    if not comp <= {1, 2}:
        raise ValueError("component must be a subset of {1, 2}")
    if n1 < 0 or n2 < 0:
        raise ValueError("t-orders must be nonnegative")

    def factor(order: int, weight: int, twisted: bool) -> bool:
        exponent = weight + (2 if twisted else 0) - 2
        return _tail_converges(order, exponent, epsilon=epsilon)

    d_eps = factor(n1, l1, 1 in comp) and factor(n2, l2 - l1, 2 in comp)
    d_eps_prime = factor(n2, l2, 2 in comp) and factor(n1, l1 - l2, 1 in comp)
    return OracleVerdict(d_eps, d_eps_prime)


# ---------------------------------------------------------------------------
# corpus and JSON interface


@dataclass(frozen=True)
class DbarCase:
    """One solver input: a bundle, compatible (0,1) data, and bookkeeping."""

    label: str
    bundle: WeightedLineBundle
    phi: FourierForm
    mode: ModeKey
    corner: tuple[float, float]
    covered: bool
    reference: np.ndarray


_EXPONENT_GRID = (-2.0, -1.0, 0.0, 0.5, 2.0)
_MODE_CYCLE = ((-1, -1), (1, 1), (-1, 1), (1, -1), (0, 0))


def _gradient_pair(grid: RadialGrid, mode: ModeKey, center: tuple[float, float],
                   width: tuple[float, float], amplitude: float) -> tuple[ModeMap, ModeMap, np.ndarray]:
    """Exact (0,1) data dbar g for a single-mode Gaussian g, plus g itself.

    The radial derivative of the bump is analytic, so the pair satisfies
    the compatibility identity to machine precision.
    """
    m0, n0 = mode
    c1, c2 = center
    w1, w2 = width
    bump = sample_mode(grid, gaussian_profile(center, width, amplitude))
    r1 = grid.r[:, None]
    r2 = grid.r[None, :]
    x1 = grid.log_r[:, None]
    x2 = grid.log_r[None, :]
    f1 = 0.5 * bump * (-(x1 - c1) / w1 ** 2 - m0) / r1
    f2 = 0.5 * bump * (-(x2 - c2) / w2 ** 2 - n0) / r2
    return {(m0 + 1, n0): f1}, {(m0, n0 + 1): f2}, bump


def bound_corpus(grid: RadialGrid | None = None) -> list[DbarCase]:
    """Twenty-five solver inputs covering the exponent grid and all corners.

    One case per exponent pair (k, l) in {-2, -1, 0, 0.5, 2}^2, each a
    single-mode exact gradient whose mode index cycles through the four
    sign patterns and (0, 0); the reference array is the potential the data
    were derived from.  Regenerating on a finer grid gives true two-level
    refinement for the bound measurements.
    """
    grid = grid or RadialGrid()
    top = math.log(grid.a)
    cases = []
    index = 0
    for k in _EXPONENT_GRID:
        for l in _EXPONENT_GRID:
            mode = _MODE_CYCLE[index % len(_MODE_CYCLE)]
            center = (top - 4.0 + 0.3 * (index % 3 - 1), top - 4.0 - 0.3 * (index % 2))
            width = (0.55, 0.6)
            amplitude = 1.0 + 0.1 * (index % 4)
            f1, f2, bump = _gradient_pair(grid, mode, center, width, amplitude)
            bundle = WeightedLineBundle(k, l)
            phi = FourierForm(1, grid, (f1, f2))
            cases.append(
                DbarCase(
                    label=f"k={k} l={l} mode={mode}",
                    bundle=bundle,
                    phi=phi,
                    mode=mode,
                    corner=path_corner(mode[0], mode[1], k, l, grid.a),
                    covered=hormander_region(0, 1, k, l),
                    reference=bump,
                )
            )
            index += 1
    return cases


def sample_case(spec: CaseSpec) -> FourierForm:
    """Sample a parsed config's modes on its grid.

    Repeated (m, n, component) entries accumulate.
    """
    components: tuple[ModeMap, ...] = tuple({} for _ in range(2 if spec.degree == 1 else 1))
    for mode in spec.modes:
        make = gaussian_profile if mode.profile == "bump" else monomial_profile
        profile = sample_mode(spec.grid, make(*mode.params))
        comp = components[mode.slot]
        key = (mode.m, mode.n)
        comp[key] = comp[key] + profile if key in comp else profile
    return FourierForm(spec.degree, spec.grid, components)
