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

from .arith import PrimeTable, prime_factor_steps
from .errors import (
    AccuracyError,
    BudgetError,
    CoverageError,
    InvalidArgumentError,
    RangeError,
)
from .quadrature import integrate

EULER_GAMMA = 0.57721566490153286061  # 20 significant digits
EXP_GAMMA = math.exp(EULER_GAMMA)
CLOSED_FORM_TOL = 1e-12  # error budget of each closed-form integral
SIEVE_GRID_BUDGET = 10**7  # grid points of a table: u_max = 10^4 at step 1e-3
MERTENS_Z_BUDGET = 10**6  # largest z of an exact Mertens product
_SLICE = 2**16  # grid points per slice of the march grid and of the table checks


def log_ratio(t):
    """The kernel g(t) = log(t - 1) / t of every closed form; g(2) = 0."""
    return np.log(t - 1.0) / t


def _closed_argument(u, top: float, name: str) -> np.ndarray:
    """u as a 1-d float array, checked to lie in (0, top] and clipped to top."""
    v = np.atleast_1d(np.asarray(u, dtype=float))
    inside = (v > 0.0) & (v <= top + 1e-9)  # NaN is outside
    if not np.all(inside):
        raise RangeError(
            f"{name} density closed form needs 0 < u <= {top:g}, got {v[~inside][0]}"
        )
    return np.minimum(v, top)


def upper_closed(u):
    """Closed-form upper density on (0, 5], at a scalar or an array of u."""
    v = _closed_argument(u, 5.0, "upper")
    out = 2.0 * EXP_GAMMA / v
    above = v > 3.0
    if np.any(above):
        out[above] *= 1.0 + integrate(log_ratio, 2.0, v[above] - 1.0, CLOSED_FORM_TOL).value
    return out if np.ndim(u) else float(out[0])


def lower_closed(u):
    """Closed-form lower density on (0, 6], at a scalar or an array of u.

    On (2, 4] the delay system integrates in elementary terms to
    2*e^gamma*log(u-1)/u.  On (4, 6] it gives the double integral
    int_3^{u-1} (1/t) int_2^{t-1} g(s) ds dt, which Fubini turns into the
    single integral int_2^{u-2} g(s) log((u-1)/(s+1)) ds.
    """
    v = _closed_argument(u, 6.0, "lower")
    out = np.zeros_like(v)
    mid = (v > 2.0) & (v <= 4.0)
    out[mid] = 2.0 * EXP_GAMMA * np.log(v[mid] - 1.0) / v[mid]
    above = v > 4.0
    if np.any(above):
        w = v[above]
        inner = integrate(
            lambda s: log_ratio(s) * np.log((w[:, None] - 1.0) / (s + 1.0)),
            2.0, w - 2.0, CLOSED_FORM_TOL,
        ).value
        out[above] = 2.0 * EXP_GAMMA / w * (np.log(w - 1.0) + inner)
    return out if np.ndim(u) else float(out[0])


@dataclass(frozen=True)
class SieveFunctionTable:
    """Dense samples of the density pair on [2, u_max], immutable once built."""

    u_max: float
    grid_step: float
    upper_values: np.ndarray
    lower_values: np.ndarray

    @property
    def grid(self) -> np.ndarray:
        return 2.0 + np.arange(len(self.upper_values)) * self.grid_step

    def _density(self, name: str, closed, top: float, values: np.ndarray, u: float) -> float:
        """The closed form on (0, top]; beyond it a 4-point Lagrange cubic on the dense grid."""
        if not 0.0 < u <= self.u_max + 1e-12:
            raise RangeError(f"{name}(u) needs 0 < u <= u_max={self.u_max}, got {u}")
        if u <= top:
            return closed(u)
        u = min(u, self.u_max)
        pos = (u - 2.0) / self.grid_step
        j0 = min(max(int(math.floor(pos)) - 1, 0), len(values) - 4)
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
        return self._density("upper", upper_closed, 5.0, self.upper_values, u)

    def lower(self, u: float) -> float:
        return self._density("lower", lower_closed, 6.0, self.lower_values, u)

    def dump_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["u", "F", "f"])
            for u, up, lo in zip(self.grid, self.upper_values, self.lower_values):
                writer.writerow([f"{u:.6f}", f"{up:.12g}", f"{lo:.12g}"])


def build_sieve_table(
    u_max: float, step: float = 1e-3, tol: float = 1e-6
) -> SieveFunctionTable:
    """Tabulate the density pair on [2, u_max] at a step that divides 1.

    Closed forms fill their validity ranges; beyond them u*upper and u*lower
    are continued by adding, per grid cell, the integral of the delayed
    function through a 4-point cubic stencil on the already-built grid.  The
    delay is exactly 1/step cells, so a block of 1/step - 1 consecutive
    points reads only earlier blocks and is marched as one array pass.  The
    marching error scales like step**4, which is checked against ``tol`` up
    front, and the grid is limited to ``SIEVE_GRID_BUDGET`` points.
    """
    if not 6.0 <= u_max < math.inf:
        raise InvalidArgumentError(f"u_max must be finite and at least 6, got {u_max}")
    if not 0.0 < step <= 0.01:
        raise InvalidArgumentError("step must lie in (0, 0.01]")
    if not 0.0 < tol < math.inf:
        raise InvalidArgumentError(f"tolerance must be positive and finite, got {tol}")
    di = round(1.0 / step)  # the unit delay in grid cells
    if abs(1.0 / step - di) >= 1e-9:
        raise InvalidArgumentError(f"step must divide 1, got {step}")
    est = step**4 * (u_max - 2.0)
    if est > tol:
        raise AccuracyError(
            f"step {step} too coarse for tolerance {tol} (error estimate {est:.3g})"
        )
    n = round((u_max - 2.0) / step)
    if n + 1 > SIEVE_GRID_BUDGET:
        raise BudgetError(f"{n + 1} grid points exceed the budget of {SIEVE_GRID_BUDGET}")

    def grid(a: int, b: int) -> np.ndarray:
        return 2.0 + np.arange(a, b) * step  # grid points a..b-1

    # grid points u = 5 and u = 6, where the closed forms end
    i5, i6 = 3 * di, 4 * di
    upper_vals = np.empty(n + 1)
    lower_vals = np.empty(n + 1)
    u = grid(0, i6 + 1)
    upper_vals[: i5 + 1] = upper_closed(u[: i5 + 1])
    lower_vals[: i6 + 1] = lower_closed(u)

    def march(
        values: np.ndarray, delayed: np.ndarray, y: float, a: int, b: int, ub: np.ndarray
    ) -> float:
        # points a..b-1, at grid values ub, of (u*values)' = delayed(u-1) from
        # y = u*values at a-1; the cell into point J reads delayed[J-di-2 : J-di+2]
        w = delayed[a - di - 2 : b - di + 1]
        inc = step * (-w[:-3] + 13.0 * w[1:-2] + 13.0 * w[2:-1] - w[3:]) / 24.0
        ys = np.add.accumulate(np.concatenate(([y], inc)))
        values[a:b] = ys[1:] / ub
        return ys[-1]

    y1 = u[i5] * upper_vals[i5]
    y2 = u[i6] * lower_vals[i6]
    # a block of di - 1 points reads delayed values only up to its start - 1;
    # the grid is taken a chunk of whole blocks at a time, so no full-length
    # grid sits beside the two value arrays
    chunk = (di - 1) * max(1, _SLICE // (di - 1))
    for c in range(i5 + 1, n + 1, chunk):
        u = grid(c, min(c + chunk, n + 1))
        for a in range(c, c + len(u), di - 1):
            b = min(a + di - 1, n + 1)
            y1 = march(upper_vals, lower_vals, y1, a, b, u[a - c : b - c])
            if b > i6 + 1:
                a6 = max(a, i6 + 1)
                y2 = march(lower_vals, upper_vals, y2, a6, b, u[a6 - c : b - c])

    table = SieveFunctionTable(
        u_max=2.0 + n * step,
        grid_step=step,
        upper_values=upper_vals,
        lower_values=lower_vals,
    )
    _validate_table(table)
    return table


def _validate_table(table: SieveFunctionTable) -> None:
    # beyond u ~ 10 the true decrements fall under double-precision noise,
    # so monotonicity and the positivity gap are enforced up to that floor
    noise = 1e-12
    up, lo = table.upper_values, table.lower_values
    # checked in slices (overlapping by one point for the steps), so no
    # full-length temporary sits beside the two value arrays
    starts = range(0, len(up), _SLICE)
    if not all(np.all(np.diff(up[s : s + _SLICE + 1]) < noise) for s in starts):
        raise AccuracyError("upper density samples are not strictly decreasing")
    if not all(np.all(np.diff(lo[s : s + _SLICE + 1]) >= -noise) for s in starts):
        raise AccuracyError("lower density samples are not non-decreasing")
    gap = (up[s : s + _SLICE] - lo[s : s + _SLICE] for s in starts)
    if not all(np.all(g > -1e-11) for g in gap):
        raise AccuracyError("upper-lower positivity gap failed on the grid")
    # u = 6 is grid point 4/step, since the step divides 1; x - 1 rounds
    # monotonically in x, so the extremes decide |x - 1| > 0.05 for the tail
    i6 = round(4.0 / table.grid_step)
    for tail in (up[i6:], lo[i6:]):
        if tail.max() - 1.0 > 0.05 or 1.0 - tail.min() > 0.05:
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
    """Exact product of (1 - 1/p) over primes below z, with its asymptotic companion.

    ``numerator`` and ``denominator`` are coprime, so they are the product in
    lowest terms; ``value`` is their correctly rounded quotient.
    """

    z: float
    numerator: int
    denominator: int
    value: float
    asymptotic: float  # e^{-gamma} / log z

    @property
    def exact(self) -> Fraction:
        """The product as a Fraction; its constructor takes the gcd mertens_product avoids."""
        return Fraction(self.numerator, self.denominator)

    @property
    def ratio(self) -> float:
        return self.value / self.asymptotic


def mertens_product(z: float, table: PrimeTable) -> MertensProduct:
    """prod_{p < z} (1 - 1/p) in lowest terms, plus e^{-gamma}/log z.

    The denominator prod p is squarefree, so the fraction reduces prime by
    prime: with e_q the exponent of q in prod (p - 1), the numerator is
    prod q^(e_q - 1) over the q with e_q >= 1 and the denominator is the
    product of the primes q < z with e_q = 0.  No gcd is taken.
    """
    if not z >= 2:  # NaN fails too
        raise InvalidArgumentError(f"mertens product needs z >= 2, got {z}")
    if z > MERTENS_Z_BUDGET:
        raise BudgetError(f"mertens product z = {z} exceeds the budget of {MERTENS_Z_BUDGET}")
    if z > table.limit + 1:
        raise CoverageError(
            f"prime table limit {table.limit} does not reach all primes below {z}"
        )
    ps = np.arange(2, math.ceil(z), dtype=np.int32)
    ps = ps[table.spf[2 : math.ceil(z)] == ps]  # the primes below z; rebinding frees the arange
    e = np.zeros(len(ps), dtype=np.int64)  # e[i]: exponent of ps[i] in prod (p - 1)
    for _, q, _ in prime_factor_steps(ps - 1, table):
        np.add.at(e, np.searchsorted(ps, q), 1)  # every q divides some p - 1 < z
    in_num = e > 1
    num = _balanced_product([q**k for q, k in zip(ps[in_num].tolist(), (e[in_num] - 1).tolist())])
    den = _balanced_product(ps[e == 0].tolist())
    return MertensProduct(
        z=float(z),
        numerator=num,
        denominator=den,
        value=num / den,
        asymptotic=math.exp(-EULER_GAMMA) / math.log(z),
    )
