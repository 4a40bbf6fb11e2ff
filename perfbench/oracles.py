"""Independent reference values the benchmark checks nearsq's outputs against.

Nothing here calls nearsq: each reference is computed another way (a
blocked float count with integer decisions at the window edge, a
different sieve, vectorized factorization, per-root exact windows, the
single integrals that Fubini gives for the nested ones, fixed
Gauss-Legendre rules) so that an optimization which changes an answer shows
up as a failed operation.  All of it runs outside the timed spans.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction

import numpy as np

EULER_GAMMA = 0.5772156649015328606
TWO_EXP_GAMMA = 2.0 * math.exp(EULER_GAMMA)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
# float distances this close to the window edge are decided in integers: over
# 40 ulps of sqrt(ab) <= 2*10^6, whose float root is off by at most half an ulp
_NEAR = 1e-8
_BLOCK = 1 << 19  # pairs square-rooted at once


def float_recount(a_elems: np.ndarray, b_elems: np.ndarray, delta: float) -> int:
    """Uncertified count of (a, b, l) with |sqrt(ab) - l| < delta, all in floats.

    Only exact when no pair sits within rounding error of the window edge;
    the benchmark uses it as the speed floor for certified counting.
    """
    total = 0
    for a in a_elems:
        t = np.sqrt((int(a) * b_elems).astype(np.float64))
        if delta <= 0.5:
            total += int(np.count_nonzero(np.abs(t - np.rint(t)) < delta))
        else:
            frac = t - np.floor(t)
            total += int(np.count_nonzero(frac < delta))
            total += int(np.count_nonzero(1.0 - frac < delta))
    return total


def reference_multiplicities(a_elems: np.ndarray, b_elems: np.ndarray, delta: Fraction) -> tuple[np.ndarray, np.ndarray]:
    """(l, multiplicity) of every l with a pair (a, b) such that |sqrt(ab) - l| < delta.

    Blocks of rows are square-rooted in floats; for 0 < delta < 1 the only
    candidates are floor(t) and floor(t) + 1.  A candidate whose float
    distance lies within ``_NEAR`` of delta is decided in exact integers,
    the rest by the float comparison.
    """
    num, den = delta.numerator, delta.denominator
    df = float(delta)
    a = a_elems.astype(np.int64)
    b = b_elems.astype(np.int64)
    lo = math.isqrt(int(a.min()) * int(b.min()))  # no l below floor(sqrt(min ab))
    size = math.isqrt(int(a.max()) * int(b.max())) + 2 - lo
    counts = np.zeros(size, dtype=np.int64)
    rows = max(1, _BLOCK // len(b))
    for i in range(0, len(a), rows):
        prod = np.outer(a[i : i + rows], b)
        t = np.sqrt(prod.astype(np.float64))
        fl = np.floor(t)
        for cand in (fl, fl + 1.0):
            dist = np.abs(t - cand)
            unsure = np.abs(dist - df) < _NEAR
            counts += np.bincount(cand[(dist < df) & ~unsure].astype(np.int64) - lo, minlength=size)
            for m, l in zip(prod[unsure].tolist(), cand[unsure].astype(np.int64).tolist()):
                if (den * l - num) ** 2 < den * den * m < (den * l + num) ** 2:
                    counts[l - lo] += 1
    values = np.nonzero(counts)[0]
    return values + lo, counts[values]


def exact_window_count(a_elems, b_sorted: list[int], num: int, den: int, l: int) -> int:
    """Pairs (a, b) with (den*l - num)^2 < den^2*a*b < (den*l + num)^2, in integers.

    For each a the admissible b form one interval, so the count at a single
    rounded root l is a bisection per a.  This is the multiplicity that
    ``count_near_squares`` reports at l.
    """
    up2 = (den * l + num) ** 2
    dn = den * l - num
    dn2 = dn * dn if dn >= 0 else None
    d2 = den * den
    total = 0
    for a in a_elems:
        q = d2 * int(a)
        hi = (up2 - 1) // q
        lo = dn2 // q + 1 if dn2 is not None else 0
        if hi >= lo:
            total += bisect_right(b_sorted, hi) - bisect_left(b_sorted, lo)
    return total


def smallest_prime_factors(limit: int) -> np.ndarray:
    """spf[n] for 2 <= n <= limit (spf[0] = 0, spf[1] = 1).

    Primes up to sqrt(limit) mark their multiples in descending order, so
    the last, smallest, prime to write each entry wins.
    """
    root = math.isqrt(limit)
    is_prime = np.ones(root + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    spf = np.arange(limit + 1, dtype=np.int32)
    for p in np.nonzero(is_prime)[0][::-1]:
        spf[p * p :: p] = p
    return spf


def _least_power_at_least(n: int, e: int) -> int:
    """Smallest integer p with p**e >= n."""
    p = max(int(round(n ** (1.0 / e))), 1)
    while p**e < n:
        p += 1
    while p > 1 and (p - 1) ** e >= n:
        p -= 1
    return p


def rounded_root_refs(
    values: np.ndarray,
    mults: np.ndarray,
    N: int,
    z: float,
    k_almost: int,
    k_weighted: int,
    spf: np.ndarray,
    d_max: int,
) -> dict:
    """Sifted count, almost-prime counts, weighted sum and divisor counts of a multiset.

    ``values``/``mults`` are the distinct rounded roots and their
    multiplicities.  Factorization runs for all values at once, one prime
    per pass, instead of value by value.
    """
    values = values.astype(np.int64)
    mults = mults.astype(np.int64)
    first = spf[values].astype(np.int64)
    p15 = _least_power_at_least(N, 15)  # p**15 >= N  <=>  p >= p15
    qk = _least_power_at_least(N, k_weighted) - 1  # p**k < N  <=>  p <= qk
    rest = values.copy()
    omega = np.zeros(len(values), dtype=np.int64)
    mid = np.zeros(len(values), dtype=np.int64)
    prev = np.zeros(len(values), dtype=np.int64)
    idx = np.nonzero(rest > 1)[0]
    while len(idx):
        p = spf[rest[idx]].astype(np.int64)
        omega[idx] += 1
        mid[idx] += (p != prev[idx]) & (p >= p15) & (p <= qk)
        prev[idx] = p
        rest[idx] //= p
        idx = idx[rest[idx] > 1]

    one = values == 1
    almost = omega <= k_almost
    coprime = ~one & (first >= p15)
    doubled = 2 * int(mults[one].sum()) + int((mults[coprime] * (2 - mid[coprime])).sum())
    return {
        "sifted": int(mults[one | (first >= z)].sum()),
        "almost_multiset": int(mults[almost].sum()),
        "almost_distinct": int(np.count_nonzero(almost)),
        "weighted": Fraction(doubled, 2),
        "divisor_counts": {d: int(mults[values % d == 0].sum()) for d in range(1, d_max + 1)},
    }


def _gauss_legendre(fn, a: float, b: float) -> float:
    half = 0.5 * (b - a)
    return float(half * np.dot(_GL_WEIGHTS, fn(0.5 * (a + b) + half * _GL_NODES)))


def _g(s):
    return np.log(s - 1.0) / s


def upper_ref(u: float) -> float:
    """F(u) on (0, 5]: 2e^gamma/u, times (1 + int_2^{u-1} log(s-1)/s ds) above 3."""
    if u <= 3.0:
        return TWO_EXP_GAMMA / u
    return TWO_EXP_GAMMA / u * (1.0 + _gauss_legendre(_g, 2.0, u - 1.0))


def lower_ref(u: float) -> float:
    """f(u) on (0, 6], with the nested integral on (4, 6] collapsed by Fubini.

    int_3^{u-1} (1/t) int_2^{t-1} g(s) ds dt = int_2^{u-2} g(s) log((u-1)/(s+1)) ds.
    """
    if u <= 2.0:
        return 0.0
    if u <= 4.0:
        return TWO_EXP_GAMMA * math.log(u - 1.0) / u
    inner = _gauss_legendre(lambda s: _g(s) * np.log((u - 1.0) / (s + 1.0)), 2.0, u - 2.0)
    return TWO_EXP_GAMMA / u * (math.log(u - 1.0) + inner)


def weighted_constant_ref(delta: float, k: int) -> tuple[float, float]:
    """C(delta, k) for k in {4, 5}: (printed single-integral form, unsimplified form).

    The unsimplified form's nested integrals reduce by Fubini to single
    integrals over s in [2, 3 - 10 delta]; with Phi(t) = log(t/(c-t))/c the
    antiderivative of 1/(t(c-t)), its upper term is
    30 (Phi(top) - Phi(t_lo) + int g(s) (Phi(top) - Phi(s+1)) ds),
    using t_lo = c - 15/k < 3 on the whole admissible range.
    """
    c = 5.0 - 10.0 * delta
    top = 4.0 - 10.0 * delta
    s_hi = top - 1.0
    pref = 6.0 / (1.0 - 2.0 * delta)
    ratio = top / (c - 15.0 / k) * (15.0 / k)
    j1 = _gauss_legendre(lambda s: _g(s) * np.log(top / (s + 1.0)), 2.0, s_hi)
    j2 = _gauss_legendre(lambda s: _g(s) * np.log(top * c / (s + 1.0) - 1.0), 2.0, s_hi)
    printed = pref * (math.log(top) + j1 - 0.5 * math.log(ratio) - 0.5 * j2)

    def phi(t):
        return np.log(t / (c - t)) / c

    t_lo = c - 15.0 / k
    u2 = _gauss_legendre(lambda s: _g(s) * (phi(top) - phi(s + 1.0)), 2.0, s_hi)
    upper = 30.0 * (float(phi(top) - phi(t_lo)) + u2)
    unsimplified = pref * (math.log(top) + j1) - 0.5 * upper
    return printed, unsimplified


def mertens_ref(z: float) -> float:
    """prod_{p < z} (1 - 1/p) through a sum of logarithms."""
    spf = smallest_prime_factors(int(z))
    n = np.arange(len(spf))
    primes = n[(n >= 2) & (spf == n) & (n < z)]
    return math.exp(math.fsum(np.log1p(-1.0 / primes)))
