"""Explicit thresholds and constants of the almost-prime near-square bounds.

Covers the minimal almost-prime order k for given size exponents, the level
of distribution exponent alpha, the admissible closeness-exponent interval
for each k, the reconstructed lower-bound constant of the plain sieve route,
and the weighted-sieve constant C(delta, k) for k in {4, 5} in its printed
form and in the form re-derived from its double integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import as_fraction
from .errors import InvalidArgumentError, RegimeError
from .quadrature import integrate
from .sievefn import EULER_GAMMA, log_ratio, lower_closed

DISCREPANCY_TOL = 1e-6
_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class RegimeParams:
    """Size and closeness exponents: |A| ~ N^eta, |B| ~ N^beta, window N^-delta.

    ``eps`` is the explicit slack standing in for every "arbitrarily small"
    margin; it defaults to 0 for pure formula evaluation and should be set
    to a small positive value for regime checks.
    """

    eta: Fraction
    beta: Fraction
    delta: Fraction = Fraction(0)
    eps: Fraction = Fraction(0)

    def __post_init__(self):
        for name in ("eta", "beta", "delta", "eps"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))
        if not 0 < self.eta <= 1 or not 0 < self.beta <= 1:
            raise InvalidArgumentError("size exponents must lie in (0, 1]")
        if not 0 <= self.delta < _HALF:
            raise InvalidArgumentError("closeness exponent delta must lie in [0, 1/2)")
        if self.eps < 0:
            raise InvalidArgumentError("slack eps must be nonnegative")

    @property
    def size_exponent(self) -> Fraction:
        return self.eta + self.beta

    def hypothesis_satisfied(self) -> bool:
        """Size hypothesis eta + beta >= 4(1 + delta)/3 + eps."""
        return self.size_exponent >= Fraction(4, 3) * (1 + self.delta) + self.eps


def _order_denominator(params: RegimeParams) -> Fraction:
    return params.size_exponent / 2 - Fraction(2, 3) - Fraction(2, 3) * params.delta


def k_min(params: RegimeParams) -> int:
    """Minimal almost-prime order floor(2 / ((eta+beta)/2 - 2/3 - 2*delta/3))."""
    d = _order_denominator(params)
    if d <= 0:
        raise RegimeError(
            "size hypothesis fails: (eta+beta)/2 - 2/3 - 2*delta/3 must be positive"
        )
    return math.floor(Fraction(2) / d)


def alpha_level(params: RegimeParams) -> Fraction:
    """Level-of-distribution exponent ((eta+beta)/2 - 2/3 - 2*delta/3)/(eta+beta-delta) - eps."""
    d = _order_denominator(params)
    scale = params.size_exponent - params.delta
    if scale <= 0:
        raise RegimeError("eta + beta - delta must be positive")
    alpha = d / scale - params.eps
    if alpha <= 0:
        raise RegimeError("level exponent is nonpositive in this regime")
    return alpha


@dataclass(frozen=True)
class DeltaRange:
    """Half-open admissible interval for the closeness exponent, clipped to (0, 1/2)."""

    lo: Fraction
    hi: Fraction
    lo_inclusive: bool

    @property
    def is_empty(self) -> bool:
        return self.hi <= self.lo  # half-open on the right


def delta_range(k: int, eta, beta) -> DeltaRange:
    """Admissible delta interval [3(eta+beta)/4 - 1 - 3/k, same - 3/(k+1)) for order k."""
    if k < 1:
        raise InvalidArgumentError("order k must be at least 1")
    eta, beta = as_fraction(eta), as_fraction(beta)
    base = Fraction(3, 4) * (eta + beta) - 1
    raw_lo = base - Fraction(3, k)
    raw_hi = base - Fraction(3, k + 1)
    return DeltaRange(
        lo=max(raw_lo, Fraction(0)),
        hi=min(raw_hi, _HALF),
        lo_inclusive=raw_lo > 0,
    )


@dataclass(frozen=True)
class ConstantReport:
    """Lower-bound constant 2(k+1) e^{-gamma} f(alpha (k+1)(eta+beta-delta)).

    The closed expression is reconstructed from the sieve lower bound and the
    normalization X = 2 Delta |A||B|; it is not stated directly anywhere.
    """

    k: int
    alpha: float
    sieve_argument: float
    constant_value: float


def sieve_lower_constant(params: RegimeParams) -> ConstantReport:
    """Leading constant of the plain-sieve lower bound for the almost-prime count."""
    k = k_min(params)
    alpha = alpha_level(params)
    argument = alpha * (k + 1) * (params.size_exponent - params.delta)
    if argument <= 2:
        raise RegimeError(
            f"sieve argument {float(argument):.6g} is not above 2; lower density vanishes"
        )
    arg_f = float(argument)
    constant = 2.0 * (k + 1) * math.exp(-EULER_GAMMA) * lower_closed(arg_f)
    return ConstantReport(
        k=k,
        alpha=float(alpha),
        sieve_argument=arg_f,
        constant_value=constant,
    )


@dataclass(frozen=True)
class WeightedConstantReport:
    """Weighted-sieve constant C(delta, k), printed form and re-derived form.

    Both forms are one formula with two log arguments (see
    ``weighted_sieve_constant``).  ``value`` uses the printed argument;
    ``value_unsimplified`` uses the argument obtained from the double
    integrals behind the printed formula by Fubini.  When the two disagree
    beyond DISCREPANCY_TOL the re-derived value is authoritative.
    ``quad_error`` sums the Gauss-Legendre error estimates of the three
    single integrals.
    """

    delta: float
    k: int
    value: float
    value_unsimplified: float
    discrepancy: float
    quad_error: float

    @property
    def flagged(self) -> bool:
        return abs(self.discrepancy) > DISCREPANCY_TOL


def weighted_sieve_constant(delta: float, k: int, tol: float = 1e-9) -> WeightedConstantReport:
    """C(delta, k) for k in {4, 5} and 0 < delta < 1/10, both printed and re-derived.

    With c = 5 - 10 delta, top = c - 1 and g(s) = log(s - 1)/s, both forms
    evaluate

        6/(1 - 2 delta) * (log top + J(top/(s+1)) - log(ratio)/2 - J(arg)/2),

    where J(h) = int_2^{top-1} g(s) log h(s) ds and ratio = top (15/k) /
    (c - 15/k).  The printed form takes arg(s) = top c/(s+1) - 1.  The
    re-derived form takes arg(s) = top (top - s)/(s+1): it is the Fubini
    collapse of the lower term's double integral and of the mid-range prime
    upper term 30 int_{t_lo}^{top} (1 + G(t - 1)) / (t (c - t)) dt, with
    G(x) = int_2^{max(x, 2)} g; it needs t_lo = c - 15/k < 3, which holds
    for k in {4, 5}.

    The three J are one quadrature, with one row per log argument; an
    ``AccuracyError`` names the largest of the three error estimates.
    """
    if k not in (4, 5):
        raise InvalidArgumentError(f"order k must be one of [4, 5], got {k}")
    if not 0.0 < delta < 0.1:
        raise RegimeError("closeness exponent delta must lie in (0, 1/10)")
    c = 5.0 - 10.0 * delta
    top = 4.0 - 10.0 * delta
    s_hi = 3.0 - 10.0 * delta
    pref = 6.0 / (1.0 - 2.0 * delta)
    ratio = top / (c - 15.0 / k) * (15.0 / k)
    # one row per log argument h of J(h): shared, printed, re-derived
    q = integrate(lambda s: log_ratio(s) * np.log(np.stack((
        top / (s + 1.0), top * c / (s + 1.0) - 1.0, top * (top - s) / (s + 1.0)))),
        2.0, s_hi, tol)
    (j1, j2, j3), (e1, e2, e3) = q.value.tolist(), q.error_estimate.tolist()
    shared = math.log(top) + j1 - 0.5 * math.log(ratio)
    value = pref * (shared - 0.5 * j2)
    value_unsimplified = pref * (shared - 0.5 * j3)
    return WeightedConstantReport(
        delta=float(delta),
        k=k,
        value=value,
        value_unsimplified=value_unsimplified,
        discrepancy=value_unsimplified - value,
        quad_error=e1 + e2 + e3,
    )
