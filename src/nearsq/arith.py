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


def build_prime_table(limit: int) -> PrimeTable:
    """Sieve the smallest prime factor of every n <= ``limit``.

    Every entry starts as itself; each prime p up to sqrt(limit) lowers the
    multiples from p*p on to p where p is smaller, so the entries that keep
    their own value are the primes.  Limits above ``PRIME_TABLE_BUDGET``
    raise before anything is allocated.
    """
    if limit < 2:
        raise InvalidArgumentError("prime table limit must be at least 2")
    if limit > PRIME_TABLE_BUDGET:
        raise BudgetError(f"prime table limit {limit} exceeds the budget of {PRIME_TABLE_BUDGET}")
    spf = np.arange(limit + 1, dtype=np.int32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            sl = spf[p * p :: p]
            np.minimum(sl, p, out=sl)
    return PrimeTable(limit=limit, spf=spf)


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
    top = int(rest.max()) if rest.size else 0
    if top > table.limit:  # rest only shrinks, so this covers every step
        raise CoverageError(f"prime table limit {table.limit} cannot factor {top}")
    while index.size:
        p = table.spf[rest]
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
