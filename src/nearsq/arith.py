"""Exact integer arithmetic: prime tables, prime factor steps, rationals.

Everything here is exact.  Counting decisions are never made in floating
point; ``near_square_roots`` is the integer predicate that the enumeration
modules fall back to near decision boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CoverageError, InvalidArgumentError

SPF_LIMIT_DEFAULT = 10**7
_SEGMENT = 1 << 20
_TRIAL_CELLS = 1 << 16  # values x primes tested per trial-division block


def as_fraction(x) -> Fraction:
    """Exact rational from int, Fraction, decimal string, or float.

    Floats are converted through their exact binary value, so a float
    standing in for an irrational number is snapped to a rational with
    relative error below 2**-52.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise InvalidArgumentError(f"cannot interpret {x!r} as a rational number") from None
    if isinstance(x, float):
        if not math.isfinite(x):
            raise InvalidArgumentError("cannot convert non-finite float to a rational")
        return Fraction(*x.as_integer_ratio())
    raise InvalidArgumentError(f"cannot interpret {x!r} as a rational number")


@dataclass(frozen=True)
class PrimeTable:
    """All primes up to ``limit``, plus a smallest-prime-factor array when it fits.

    The table is immutable after construction and safe to share across
    workers.  ``spf[n]`` is the smallest prime factor of n for 2 <= n <=
    limit; it is only materialized when the limit fits the memory budget.
    """

    limit: int
    primes: np.ndarray
    spf: np.ndarray | None

    def __len__(self) -> int:
        return len(self.primes)

    def smallest_prime_factors(self, values) -> np.ndarray:
        """Smallest prime factor of every entry (each >= 2) of ``values``.

        A lookup in ``spf`` when it reaches the largest entry; otherwise
        trial division by the table primes up to its square root, in blocks
        of primes so that small arrays do not pay one pass per prime.
        """
        values = np.asarray(values, dtype=np.int64)
        if values.size == 0:
            return values.copy()
        if int(values.min()) < 2:
            raise InvalidArgumentError("smallest prime factors need entries >= 2")
        top = int(values.max())
        if self.spf is not None and top <= self.limit:
            return self.spf[values]
        if self.limit * self.limit < top:
            raise CoverageError(f"prime table limit {self.limit} cannot factor {top}")
        primes = self.primes[: np.searchsorted(self.primes, math.isqrt(top), side="right")]
        out = values.copy()  # entries without a prime factor up to their root are prime
        pending = np.arange(values.size)
        block = max(1, _TRIAL_CELLS // values.size)
        for lo in range(0, len(primes), block):
            ps = primes[lo : lo + block]
            rest = values[pending]
            hits = rest[:, None] % ps == 0
            found = hits.any(axis=1)
            out[pending[found]] = ps[hits[found].argmax(axis=1)]
            pending = pending[~found & (rest > ps[-1] * ps[-1])]
            if pending.size == 0:
                break
        return out


def _dense_table(limit: int) -> PrimeTable:
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            sl = spf[p * p :: p]
            sl[sl == 0] = p
    idx = np.arange(limit + 1, dtype=np.int64)
    unmarked = (spf == 0) & (idx >= 2)
    spf[unmarked] = idx[unmarked]
    primes = idx[2:][spf[2:] == idx[2:]]
    return PrimeTable(limit=limit, primes=primes, spf=spf)


def _segmented_primes(limit: int) -> np.ndarray:
    base = _dense_table(math.isqrt(limit))
    chunks = [base.primes]
    lo = int(base.limit) + 1
    while lo <= limit:
        hi = min(lo + _SEGMENT, limit + 1)
        seg = np.ones(hi - lo, dtype=bool)
        for p in base.primes:
            p = int(p)
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start >= hi:
                continue
            seg[start - lo :: p] = False
        chunks.append(np.nonzero(seg)[0].astype(np.int64) + lo)
        lo = hi
    return np.concatenate(chunks)


def build_prime_table(limit: int, spf_budget: int = SPF_LIMIT_DEFAULT) -> PrimeTable:
    """Generate all primes up to ``limit``.

    Below ``spf_budget`` a smallest-prime-factor array is kept for O(log n)
    factorization; above it the primes are produced segment by segment and
    factorization falls back to trial division by table primes.
    """
    if limit < 2:
        raise InvalidArgumentError("prime table limit must be at least 2")
    if limit <= spf_budget:
        return _dense_table(limit)
    return PrimeTable(limit=limit, primes=_segmented_primes(limit), spf=None)


def prime_factor_steps(values, table: PrimeTable):
    """Peel the prime factors off every entry of ``values``, smallest first.

    Each step yields ``(index, p)``: the positions of the entries that are
    still above 1 and the smallest prime factor of what is left of each, so
    a prime p dividing an entry e times shows up in e consecutive steps.
    Omega is the number of steps an entry takes part in, its smallest prime
    is its first step, and a step whose p equals the entry's previous one is
    a repeated factor.
    """
    rest = np.asarray(values, dtype=np.int64)
    index = np.nonzero(rest > 1)[0]
    rest = rest[index]
    while index.size:
        p = table.smallest_prime_factors(rest)
        yield index, p
        rest = rest // p
        left = rest > 1
        index, rest = index[left], rest[left]


def near_square_roots(m: int, num: int, den: int) -> list[int]:
    """Integers l with |sqrt(m) - l| < num/den, decided in exact integer arithmetic.

    Both inequalities are strict, so an m whose square root sits exactly at
    distance num/den from an integer is excluded.
    """
    if m < 0:
        raise InvalidArgumentError("m must be nonnegative")
    if num <= 0 or den <= 0:
        raise InvalidArgumentError("window num/den must be positive")
    c = den * den * m
    r = math.isqrt(c)
    lo = max((r - num) // den + 1, 0)
    hi = (r + num) // den
    out = []
    for l in range(lo, hi + 1):
        up = den * l + num
        if c >= up * up:
            continue
        dn = den * l - num
        if dn < 0 or dn * dn < c:
            out.append(l)
    return out
