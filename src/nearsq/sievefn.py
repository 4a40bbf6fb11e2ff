"""Linear-sieve density functions and Mertens products.

The upper/lower density pair of the dimension-one sieve solves a coupled
delay system: both equal their boundary forms 2*e^gamma/u and 0 on (0, 2],
and for u > 2

    (u * upper(u))' = lower(u - 1),      (u * lower(u))' = upper(u - 1).

Closed forms are available for upper on (0, 5] and lower on (0, 6]; beyond
that the pair is continued by marching the delay system on a dense grid.
Both functions tend to 1 from their respective sides as u grows.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import PrimeTable
from .errors import (
    AccuracyError,
    CoverageError,
    InvalidArgumentError,
    RangeError,
)
from .quadrature import integrate

EULER_GAMMA = 0.57721566490153286061  # 20 significant digits
EXP_GAMMA = math.exp(EULER_GAMMA)


def log_ratio(t: float) -> float:
    """The kernel g(t) = log(t - 1) / t of every closed form; g(2) = 0."""
    return math.log(t - 1.0) / t


def upper_closed(u: float, tol: float = 1e-10) -> float:
    """Closed-form upper density on (0, 5]."""
    if not 0.0 < u <= 5.0 + 1e-9:
        raise RangeError(f"upper density closed form needs 0 < u <= 5, got {u}")
    u = min(u, 5.0)
    if u <= 3.0:
        return 2.0 * EXP_GAMMA / u
    inner = integrate(log_ratio, 2.0, u - 1.0, tol=tol)
    return 2.0 * EXP_GAMMA / u * (1.0 + inner.value)


def lower_closed(u: float, tol: float = 1e-10) -> float:
    """Closed-form lower density on (0, 6].

    On (2, 4] the delay system integrates in elementary terms to
    2*e^gamma*log(u-1)/u.  On (4, 6] it gives the double integral
    int_3^{u-1} (1/t) int_2^{t-1} g(s) ds dt, which Fubini turns into the
    single integral int_2^{u-2} g(s) log((u-1)/(s+1)) ds.
    """
    if not 0.0 < u <= 6.0 + 1e-9:
        raise RangeError(f"lower density closed form needs 0 < u <= 6, got {u}")
    u = min(u, 6.0)
    if u <= 2.0:
        return 0.0
    if u <= 4.0:
        return 2.0 * EXP_GAMMA * math.log(u - 1.0) / u
    inner = integrate(
        lambda s: log_ratio(s) * math.log((u - 1.0) / (s + 1.0)), 2.0, u - 2.0, tol=tol
    )
    return 2.0 * EXP_GAMMA / u * (math.log(u - 1.0) + inner.value)


@dataclass(frozen=True)
class SieveFunctionTable:
    """Dense samples of the density pair on [2, u_max], immutable once built."""

    u_max: float
    grid_step: float
    upper_values: np.ndarray
    lower_values: np.ndarray
    quadrature_tolerance: float

    @property
    def grid(self) -> np.ndarray:
        return 2.0 + np.arange(len(self.upper_values)) * self.grid_step

    def _interp(self, values: np.ndarray, u: float) -> float:
        # 4-point Lagrange cubic on the dense grid
        n = len(values)
        pos = (u - 2.0) / self.grid_step
        j0 = min(max(int(math.floor(pos)) - 1, 0), n - 4)
        xs = 2.0 + (j0 + np.arange(4)) * self.grid_step
        ys = values[j0 : j0 + 4]
        total = 0.0
        for i in range(4):
            term = float(ys[i])
            for j in range(4):
                if j != i:
                    term *= (u - xs[j]) / (xs[i] - xs[j])
            total += term
        return total

    def upper(self, u: float) -> float:
        if u <= 0.0 or u > self.u_max + 1e-12:
            raise RangeError(f"upper(u) needs 0 < u <= u_max={self.u_max}, got {u}")
        if u <= 5.0:
            return upper_closed(u, tol=self.quadrature_tolerance)
        return self._interp(self.upper_values, min(u, self.u_max))

    def lower(self, u: float) -> float:
        if u <= 0.0 or u > self.u_max + 1e-12:
            raise RangeError(f"lower(u) needs 0 < u <= u_max={self.u_max}, got {u}")
        if u <= 6.0:
            return lower_closed(u, tol=self.quadrature_tolerance)
        return self._interp(self.lower_values, min(u, self.u_max))

    def dump_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["u", "F", "f"])
            for u, up, lo in zip(self.grid, self.upper_values, self.lower_values):
                writer.writerow([f"{u:.6f}", f"{up:.12g}", f"{lo:.12g}"])


def _cumulative_simpson(points: np.ndarray, fn) -> np.ndarray:
    """Running integral of fn from points[0] along a uniform grid."""
    h = points[1] - points[0]
    left = fn(points[:-1])
    mid = fn(points[:-1] + 0.5 * h)
    right = fn(points[1:])
    segments = h / 6.0 * (left + 4.0 * mid + right)
    out = np.empty(len(points))
    out[0] = 0.0
    np.cumsum(segments, out=out[1:])
    return out


def build_sieve_table(
    u_max: float, step: float = 1e-3, tol: float = 1e-6
) -> SieveFunctionTable:
    """Tabulate the density pair on [2, u_max].

    Closed forms fill their validity ranges; beyond them u*upper and
    u*lower are continued by trapezoidal marching of the delayed right-hand
    sides over the already-built grid.  The marching error scales like
    step**2, which is checked against ``tol`` up front.
    """
    if u_max < 6.0:
        raise InvalidArgumentError("u_max must be at least 6")
    if not 0.0 < step <= 0.01:
        raise InvalidArgumentError("step must lie in (0, 0.01]")
    if tol <= 0.0:
        raise InvalidArgumentError("tolerance must be positive")
    # grid-aligned delays march at 4th order; otherwise trapezoid with
    # interpolated delays, which is only 2nd order
    grid_aligned = abs(round(1.0 / step) - 1.0 / step) < 1e-9
    est = (step**4 if grid_aligned else step**2 / 12.0) * (u_max - 2.0)
    if est > tol:
        raise AccuracyError(
            f"step {step} too coarse for tolerance {tol} (error estimate {est:.3g})"
        )

    n = round((u_max - 2.0) / step)
    u = 2.0 + np.arange(n + 1) * step
    u_max = float(u[-1])
    half = 0.5 * step

    def g(s):
        s = np.asarray(s, dtype=float)
        return np.where(s > 1.0, np.log(np.maximum(s - 1.0, 1e-300)) / s, 0.0)

    # running integral of log(s-1)/s from 2, sampled at half-step resolution on [2, 4]
    s_grid = 2.0 + np.arange(round(2.0 / half) + 1) * half
    inner_i1 = _cumulative_simpson(s_grid, g)

    def i1_at(x: np.ndarray) -> np.ndarray:
        pos = (np.asarray(x, dtype=float) - 2.0) / half
        idx = np.rint(pos).astype(int)
        if np.max(np.abs(pos - idx)) < 1e-6:
            return inner_i1[idx]
        return np.interp(x, s_grid, inner_i1)

    upper_vals = np.empty(n + 1)
    lower_vals = np.empty(n + 1)

    i3 = round(1.0 / step)
    i4 = round(2.0 / step)
    i5 = min(round(3.0 / step), n)
    i6 = min(round(4.0 / step), n)

    upper_vals[: i3 + 1] = 2.0 * EXP_GAMMA / u[: i3 + 1]
    upper_vals[i3 + 1 : i5 + 1] = (
        2.0 * EXP_GAMMA / u[i3 + 1 : i5 + 1] * (1.0 + i1_at(u[i3 + 1 : i5 + 1] - 1.0))
    )
    lower_vals[0] = 0.0
    lower_vals[1 : i4 + 1] = (
        2.0 * EXP_GAMMA * np.log(u[1 : i4 + 1] - 1.0) / u[1 : i4 + 1]
    )

    if i6 > i4:
        # running integral of i1(t - 1) / t from t = 3, step-aligned with the grid
        t_grid = 3.0 + np.arange(i6 - i4 + 1) * step

        def w(t):
            return i1_at(np.asarray(t) - 1.0) / np.asarray(t)

        inner_i2 = _cumulative_simpson(t_grid, w)
        lower_vals[i4 + 1 : i6 + 1] = (
            2.0
            * EXP_GAMMA
            / u[i4 + 1 : i6 + 1]
            * (np.log(u[i4 + 1 : i6 + 1] - 1.0) + inner_i2[1:])
        )

    # continuation by marching (u*upper)' = lower(u-1), (u*lower)' = upper(u-1):
    # each step adds the integral of the already-tabulated delayed function
    # over one grid cell, through a 4-point cubic stencil when the delay is
    # grid-aligned (4th order) and trapezoid with interpolation otherwise
    delay = 1.0 / step
    di = round(delay)
    aligned = abs(di - delay) < 1e-9

    def increment(values: np.ndarray, j: int) -> float:
        if aligned:
            i1 = j - di
            return (
                step
                * (
                    -values[i1 - 1]
                    + 13.0 * values[i1]
                    + 13.0 * values[i1 + 1]
                    - values[i1 + 2]
                )
                / 24.0
            )
        lo_v = []
        for jj in (j, j + 1):
            pos = jj - delay
            k = int(math.floor(pos))
            frac = pos - k
            lo_v.append(values[k] * (1.0 - frac) + values[k + 1] * frac)
        return 0.5 * step * (lo_v[0] + lo_v[1])

    y1 = u[i5] * upper_vals[i5]
    y2 = u[i6] * lower_vals[i6]
    for j in range(i5, n):
        y1 += increment(lower_vals, j)
        upper_vals[j + 1] = y1 / u[j + 1]
        if j + 1 > i6:
            y2 += increment(upper_vals, j)
            lower_vals[j + 1] = y2 / u[j + 1]

    table = SieveFunctionTable(
        u_max=u_max,
        grid_step=step,
        upper_values=upper_vals,
        lower_values=lower_vals,
        quadrature_tolerance=min(tol * 1e-3, 1e-10),
    )
    _validate_table(table)
    return table


def _validate_table(table: SieveFunctionTable) -> None:
    # beyond u ~ 10 the true decrements fall under double-precision noise,
    # so monotonicity and the positivity gap are enforced up to that floor
    noise = 1e-12
    up, lo = table.upper_values, table.lower_values
    if not np.all(np.diff(up) < noise):
        raise AccuracyError("upper density samples are not strictly decreasing")
    if not np.all(np.diff(lo) >= -noise):
        raise AccuracyError("lower density samples are not non-decreasing")
    if not np.all(up - lo > -1e-11):
        raise AccuracyError("upper-lower positivity gap failed on the grid")
    tail = table.grid >= 6.0 - 1e-12
    if np.any(np.abs(up[tail] - 1.0) > 0.05) or np.any(np.abs(lo[tail] - 1.0) > 0.05):
        raise AccuracyError("density samples drift from 1 beyond u = 6")


def _balanced_product(values: list[int]) -> int:
    if not values:
        return 1
    while len(values) > 1:
        values = [
            values[i] * values[i + 1] if i + 1 < len(values) else values[i]
            for i in range(0, len(values), 2)
        ]
    return values[0]


@dataclass(frozen=True)
class MertensProduct:
    """Exact product of (1 - 1/p) over primes below z, with its asymptotic companion."""

    z: float
    exact: Fraction
    value: float
    asymptotic: float  # e^{-gamma} / log z

    @property
    def ratio(self) -> float:
        return self.value / self.asymptotic


def mertens_product(z: float, table: PrimeTable) -> MertensProduct:
    """prod_{p < z} (1 - 1/p) as an exact rational, plus e^{-gamma}/log z."""
    if z < 2:
        raise InvalidArgumentError("mertens product needs z >= 2")
    if z > table.limit + 1:
        raise CoverageError(
            f"prime table limit {table.limit} does not reach all primes below {z}"
        )
    ps = [int(p) for p in table.primes[table.primes < z]]
    num = _balanced_product([p - 1 for p in ps])
    den = _balanced_product(list(ps))
    exact = Fraction(num, den)
    return MertensProduct(
        z=float(z),
        exact=exact,
        value=float(exact),
        asymptotic=math.exp(-EULER_GAMMA) / math.log(z),
    )
