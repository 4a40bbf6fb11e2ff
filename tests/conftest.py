import math
from dataclasses import dataclass

import numpy as np
import pytest

from nearsq.arith import as_fraction, build_prime_table
from nearsq.sievefn import EXP_GAMMA, build_sieve_table, lower_closed, upper_closed

_GL64_NODES, _GL64_WEIGHTS = np.polynomial.legendre.leggauss(64)


@dataclass(frozen=True)
class FactorSignature:
    """Exact multiplicative profile of a natural number."""

    n: int
    Omega: int  # prime factors counted with multiplicity
    nu: int  # distinct prime factors
    mu: int  # Moebius value in {-1, 0, 1}
    tau: int  # divisor count


def trial_prime_factors(n):
    """Independent oracle: the prime factors of n with multiplicity, by
    plain trial division by every integer."""
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            n //= d
            out.append(d)
        d += 1
    if n > 1:
        out.append(n)
    return out


def factor_signature(n):
    """Omega, nu, mu and tau of n >= 1 by trial division, the oracle for
    ``prime_factor_steps``."""
    factors = trial_prime_factors(n)
    exponents = [factors.count(p) for p in sorted(set(factors))]
    nu = len(exponents)
    mu = 0 if any(e > 1 for e in exponents) else (-1) ** nu
    return FactorSignature(n=n, Omega=len(factors), nu=nu, mu=mu,
                           tau=math.prod(e + 1 for e in exponents))


@pytest.fixture(scope="session")
def table_100k():
    return build_prime_table(100_000)


@pytest.fixture(scope="session")
def table_22k():
    # covers factorization of rounded values for experiments up to N = 10^4
    return build_prime_table(22_000)


@pytest.fixture(scope="session")
def sieve_table_10():
    return build_sieve_table(10.0, step=1e-3, tol=1e-6)


def pointwise_march(u_max, step):
    """The density pair on [2, u_max] marched one grid point at a time, the
    oracle for the block march of ``build_sieve_table``: the closed forms up
    to u = 5 and u = 6, then per cell the 4-point cubic stencil of the delayed
    function, added to the running u*upper and u*lower."""
    n = round((u_max - 2.0) / step)
    di = round(1.0 / step)
    u = 2.0 + np.arange(n + 1) * step
    i5, i6 = 3 * di, 4 * di
    upper = np.empty(n + 1)
    lower = np.empty(n + 1)
    upper[: i5 + 1] = upper_closed(u[: i5 + 1])
    lower[: i6 + 1] = lower_closed(u[: i6 + 1])

    def increment(values, j):
        i1 = j - di
        return step * (-values[i1 - 1] + 13.0 * values[i1] + 13.0 * values[i1 + 1]
                       - values[i1 + 2]) / 24.0

    y1 = u[i5] * upper[i5]
    y2 = u[i6] * lower[i6]
    for j in range(i5, n):
        y1 += increment(lower, j)
        upper[j + 1] = y1 / u[j + 1]
        if j + 1 > i6:
            y2 += increment(upper, j)
            lower[j + 1] = y2 / u[j + 1]
    return upper, lower


def midpoint_rule(fn, a, b, n=10**6):
    """Plain midpoint rule, the independent quadrature oracle."""
    h = (b - a) / n
    xs = a + (np.arange(n) + 0.5) * h
    return float(np.sum(fn(xs)) * h)


def gauss_legendre(fn, a, b):
    """Test-local 64-node Gauss-Legendre rule, independent of nearsq.quadrature.

    ``fn`` takes an array of nodes; ``a`` and ``b`` may be arrays, with one
    row of nodes per interval."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    nodes = 0.5 * (a + b)[..., None] + half[..., None] * _GL64_NODES
    return half * (fn(nodes) @ _GL64_WEIGHTS)


def _inner_g(x):
    # int_2^x log(s-1)/s ds, one inner rule at every entry of x
    return gauss_legendre(lambda s: np.log(s - 1.0) / s, 2.0, x)


def nested_lower(u):
    """Lower density on (4, 6] through the nested double integral, the oracle
    for the single integral that ``lower_closed`` evaluates."""
    outer = gauss_legendre(lambda t: _inner_g(t - 1.0) / t, 3.0, u - 1.0)
    return 2.0 * EXP_GAMMA / u * (math.log(u - 1.0) + outer)


def nested_weighted_constant(delta, k):
    """Re-derived C(delta, k) through its double integrals: the lower term
    pref (log top + int_3^top G(t-1)/t dt) minus half the mid-range prime
    upper term 30 int_{t_lo}^top (1 + G(t-1)) / (t (c - t)) dt."""
    c = 5.0 - 10.0 * delta
    top = 4.0 - 10.0 * delta
    pref = 6.0 / (1.0 - 2.0 * delta)
    t_lo = c - 15.0 / k

    lower = pref * (math.log(top) + gauss_legendre(lambda t: _inner_g(t - 1.0) / t, 3.0, top))
    u1 = gauss_legendre(lambda t: 1.0 / (t * (c - t)), t_lo, top)
    u2 = gauss_legendre(lambda t: _inner_g(t - 1.0) / (t * (c - t)), max(3.0, t_lo), top)
    return lower - 0.5 * 30.0 * (u1 + u2)


def recount_float(A, B, delta):
    """Naive floating-point recount, the cross-check for well-separated instances."""
    df = float(as_fraction(delta))
    total = 0
    for a in A.elements:
        t = np.sqrt((int(a) * B.elements).astype(np.float64))
        if df <= 0.5:
            total += int(np.count_nonzero(np.abs(t - np.rint(t)) < df))
        else:
            frac = t - np.floor(t)
            total += int(np.count_nonzero(frac < df))
            total += int(np.count_nonzero(1.0 - frac < df))
    return total


def rounded_values(nsc):
    """(l, multiplicity) for every rounded root l that a count hit, ascending."""
    idx = np.flatnonzero(nsc.multiplicities != 0)
    return [(int(i) + nsc.l_offset, int(nsc.multiplicities[i])) for i in idx]


def exact_window_count(A, B, delta):
    """Independent exact oracle for the near-square pair count.

    Pure python, Fraction-free: decides |sqrt(ab) - l| < num/den by squaring
    with cleared denominators, scanning every integer candidate near sqrt(ab).
    """
    fr = as_fraction(delta)
    num, den = fr.numerator, fr.denominator
    total = 0
    mult: dict[int, int] = {}
    for a in A.elements:
        for b in B.elements:
            m = int(a) * int(b)
            c = den * den * m
            r = math.isqrt(c)
            for l in range(max((r - num) // den, 0), (r + num) // den + 2):
                dn = den * l - num
                up = den * l + num
                if (dn < 0 or dn * dn < c) and c < up * up:
                    total += 1
                    mult[l] = mult.get(l, 0) + 1
    return total, mult
