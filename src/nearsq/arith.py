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

from .errors import BudgetError, CoverageError, InvalidArgumentError

# a table of 2N + 2 for the largest N that count_near_squares accepts (4N^2 <= 2^53)
PRIME_TABLE_BUDGET = 10**8


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
    """The smallest prime factor of every n <= ``limit``.

    The table is immutable after construction and safe to share across
    workers.  Only the entries 2..limit of ``spf`` (int32) hold factors:
    ``spf[n]`` is the smallest prime factor of n, and n is prime exactly
    when ``spf[n] == n``.
    """

    limit: int
    spf: np.ndarray

    def cover(self, top: int) -> None:
        """Raise ``CoverageError`` unless the table reaches ``top``."""
        if top > self.limit:
            raise CoverageError(f"prime table limit {self.limit} cannot factor {top}")


def build_prime_table(limit: int) -> PrimeTable:
    """Sieve the smallest prime factor of every n <= ``limit``.

    Every entry starts as itself, and the even ones from 4 on as 2; each odd
    prime p up to sqrt(limit) lowers its odd multiples from p*p on to at most
    p, so the entries that keep their own value are the primes.  Limits above
    ``PRIME_TABLE_BUDGET`` raise before anything is allocated.
    """
    if limit < 2:
        raise InvalidArgumentError("prime table limit must be at least 2")
    if limit > PRIME_TABLE_BUDGET:
        raise BudgetError(f"prime table limit {limit} exceeds the budget of {PRIME_TABLE_BUDGET}")
    spf = np.arange(limit + 1, dtype=np.int32)
    spf[4::2] = 2
    for p in range(3, math.isqrt(limit) + 1, 2):
        if spf[p] == p:
            sl = spf[p * p :: 2 * p]
            np.minimum(sl, p, out=sl)
    return PrimeTable(limit=limit, spf=spf)


def prime_factor_steps(values, table: PrimeTable, below: int | None = None):
    """Peel the prime factors off every entry of ``values``, smallest first.

    Each step yields ``(index, p, repeat)``: the positions of the entries
    still above 1, the smallest prime factor p of what is left of each, and
    whether p repeats the entry's previous prime.  With ``below``, an entry
    leaves after its first p >= ``below``, since every later p is larger.
    ``mertens_product`` reads every p, ``almost_prime_count`` how many steps
    an entry lasts, and ``weighted_sum`` the distinct p under ``below``.
    """
    rest = np.asarray(values, dtype=np.int64)
    table.cover(int(rest.max(initial=0)))  # rest only shrinks: every step fits the table's dtype
    index = np.flatnonzero(rest > 1)
    rest, prev = rest[index].astype(table.spf.dtype), np.zeros(len(index), table.spf.dtype)
    while index.size:
        p = table.spf[rest]
        yield index, p, p == prev
        rest //= p
        # one integer take per array is about twice as fast as three boolean masks
        left = np.flatnonzero((rest > 1) if below is None else (rest > 1) & (p < below))
        index, rest, prev = index[left], rest[left], p[left]


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
