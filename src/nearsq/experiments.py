"""Brute-force counting experiments on subsets of (N, 2N].

The central object is the multiset of integers l sitting within a window
delta of the square root of a product a*b, enumerated exactly: a certified
floating-point filter decides the overwhelming majority of pairs, and any
pair whose distance falls within the filter's provable error margin of the
window edge is resolved in exact integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import PrimeTable, as_fraction, near_square_roots, prime_factor_steps
from .errors import BudgetError, InvalidArgumentError

PAIR_BUDGET_DEFAULT = 10**9
_PROVENANCES = ("full", "bernoulli", "explicit", "adversarial-spread")


@dataclass(frozen=True)
class IntervalSubset:
    """Finite subset of (N, 2N] with its generation provenance."""

    base_N: int
    elements: np.ndarray
    provenance: str
    seed: int | None = None
    density: float | None = None

    def __post_init__(self):
        els = np.asarray(self.elements, dtype=np.int64)
        object.__setattr__(self, "elements", els)
        if self.base_N < 2:
            raise InvalidArgumentError("base_N must be at least 2")
        if self.provenance not in _PROVENANCES:
            raise InvalidArgumentError(f"unknown provenance {self.provenance!r}")
        if len(els) == 0:
            return
        if els[0] <= self.base_N or els[-1] > 2 * self.base_N:
            raise InvalidArgumentError("elements must lie in (N, 2N]")
        if not np.all(np.diff(els) > 0):
            raise InvalidArgumentError("elements must be sorted and distinct")

    def __len__(self) -> int:
        return len(self.elements)


def generate_subset(
    base_N: int,
    kind: str = "full",
    *,
    density: float | None = None,
    seed: int = 0,
    elements=None,
) -> IntervalSubset:
    """Deterministically generate a subset of (N, 2N] of the requested kind.

    ``bernoulli`` keeps each element independently with probability
    ``density`` using a PCG64 stream seeded by ``seed``.  The adversarial
    spread keeps exactly the n whose square root stays at least 1/4 away
    from every integer, the classical obstruction set for single subsets.
    """
    if base_N < 2:
        raise InvalidArgumentError("base_N must be at least 2")
    window = np.arange(base_N + 1, 2 * base_N + 1, dtype=np.int64)
    if kind == "full":
        return IntervalSubset(base_N, window, "full")
    if kind == "bernoulli":
        if density is None or not 0.0 < density <= 1.0:
            raise InvalidArgumentError("bernoulli density must lie in (0, 1]")
        rng = np.random.default_rng(seed)
        mask = rng.random(len(window)) < density
        return IntervalSubset(base_N, window[mask], "bernoulli", seed=seed, density=density)
    if kind == "adversarial-spread":
        roots = np.sqrt(window.astype(np.float64))
        l = np.rint(roots).astype(np.int64)
        keep = (16 * window <= (4 * l - 1) ** 2) | (16 * window >= (4 * l + 1) ** 2)
        return IntervalSubset(base_N, window[keep], "adversarial-spread")
    if kind == "explicit":
        if elements is None:
            raise InvalidArgumentError("explicit subsets need an element list")
        els = np.unique(np.asarray(sorted(elements), dtype=np.int64))
        return IntervalSubset(base_N, els, "explicit")
    raise InvalidArgumentError(f"unknown subset kind {kind!r}")


@dataclass
class NearSquareCount:
    """Exact near-square pair count and the multiset of rounded roots.

    ``multiplicities[l - l_offset]`` is the number of (a, b, l) incidences
    with |sqrt(a*b) - l| < delta; for delta <= 1/2 each pair contributes at
    most one l, so H_count is the number of qualifying pairs.
    ``boundary_margin`` is the smallest float distance from sqrt(a*b) to the
    nearest window edge l +- delta of any integer l, which gates comparisons
    against naive floating-point recounts.  ``exact_fallbacks`` counts the
    pairs within the float error margin of an edge, decided in integers.
    """

    delta: Fraction
    base_N: int
    A_size: int
    B_size: int
    H_count: int
    multiplicities: np.ndarray
    l_offset: int
    distinct_count: int
    boundary_margin: float
    exact_fallbacks: int

    @property
    def delta_float(self) -> float:
        return float(self.delta)

    @property
    def pair_total(self) -> int:
        return self.A_size * self.B_size

    def rounded_values(self) -> list[tuple[int, int]]:
        idx = np.nonzero(self.multiplicities)[0]
        return [(int(i) + self.l_offset, int(self.multiplicities[i])) for i in idx]


def _empty_count(delta: Fraction, base_N: int, a_size: int, b_size: int) -> NearSquareCount:
    size = base_N + 4
    return NearSquareCount(
        delta=delta,
        base_N=base_N,
        A_size=a_size,
        B_size=b_size,
        H_count=0,
        multiplicities=np.zeros(size, dtype=np.int64),
        l_offset=base_N - 1,
        distinct_count=0,
        boundary_margin=math.inf,
        exact_fallbacks=0,
    )


def count_near_squares(
    A: IntervalSubset,
    B: IntervalSubset,
    delta,
    max_pairs: int = PAIR_BUDGET_DEFAULT,
) -> NearSquareCount:
    """Exact count of pairs (a, b) with sqrt(a*b) within delta of an integer.

    ``delta`` is snapped to an exact rational (floats through their binary
    value, relative error < 2**-52) and every counting decision is an exact
    integer comparison: the float path only decides pairs whose margin
    provably exceeds the square-root rounding error, the rest fall back to
    integer arithmetic.  Values 1/2 < delta < 1 are supported; a pair may
    then contribute two rounded values, and H_count counts incidences.
    """
    if A.base_N != B.base_N:
        raise InvalidArgumentError("both subsets must share the same base N")
    delta = as_fraction(delta)
    if not 0 < delta < 1:
        raise InvalidArgumentError("window delta must lie in (0, 1)")
    n_pairs = len(A) * len(B)
    if n_pairs > max_pairs:
        raise BudgetError(f"{n_pairs} pairs exceed the budget of {max_pairs}")

    N = A.base_N
    if 4 * N * N > 2**53:
        raise BudgetError("products exceed the exact float-filter range")
    out = _empty_count(delta, N, len(A), len(B))
    if n_pairs == 0:
        return out

    df = float(delta)
    num, den = delta.numerator, delta.denominator
    margin = 2.0 * np.spacing(2.0 * (N + 1)) + 1e-15
    counts = out.multiplicities
    off = out.l_offset
    b_arr = B.elements
    min_margin = math.inf
    fallbacks = 0
    # Only the nearest root l and its far neighbour l + sign(s) can lie in the
    # window.  For delta <= 1/2 the far one never matters: d <= 1/2 gives
    # (1 - d) - delta >= |d - delta|, so its gap can neither be negative, nor
    # fall within the margin when the near gap does not, nor be the smaller.
    two_sided = df > 0.5

    for a in A.elements:
        t = np.sqrt((int(a) * b_arr).astype(np.float64))
        l = np.rint(t)
        s = t - l
        d = np.abs(s)
        near = d - df
        dist = np.abs(near)
        unsure = dist <= margin
        row_min = float(dist.min())
        # Correctly rounded sqrt is exact on perfect squares.  Otherwise s can
        # take the wrong sign only when d is below the float error, and then
        # the far gap (1 - d) - delta lies within the margin whenever it could
        # be negative: such pairs are unsure, and the wrong far root is never
        # counted.
        if two_sided:
            far = (1.0 - d) - df
            dist = np.abs(far)
            unsure |= dist <= margin
            row_min = min(row_min, float(dist.min()))
            hit = (far < -margin) & ~unsure
            np.add.at(counts, (l[hit] + np.sign(s[hit])).astype(np.int64) - off, 1)
        np.add.at(counts, l[(near < -margin) & ~unsure].astype(np.int64) - off, 1)
        min_margin = min(min_margin, row_min)
        if np.any(unsure):
            for b in b_arr[unsure]:
                fallbacks += 1
                for l in near_square_roots(int(a) * int(b), num, den):
                    counts[l - off] += 1

    out.H_count = int(counts.sum())
    out.distinct_count = int(np.count_nonzero(counts))
    out.boundary_margin = min_margin
    out.exact_fallbacks = fallbacks
    return out


@dataclass(frozen=True)
class SieveDecomposition:
    """Divisibility counts |A_d| = X/d + r(d) with the remainders forced exactly."""

    X: Fraction
    counts: dict[int, int]
    remainders: dict[int, Fraction]

    def scaled_remainder_max(self, d_max: int | None = None) -> float | None:
        """max |d r(d) / X| over d <= d_max; None when X = 0 (an empty set)."""
        if self.X == 0:
            return None
        ds = [d for d in self.counts if d_max is None or d <= d_max]
        return max(float(abs(d * self.remainders[d] / self.X)) for d in ds)


def sieve_decomposition(
    nsc: NearSquareCount, A_size: int, B_size: int, d_max: int
) -> SieveDecomposition:
    """Bucket the rounded-value multiset by divisibility for every d <= d_max."""
    if d_max < 1:
        raise InvalidArgumentError("d_max must be at least 1")
    X = 2 * nsc.delta * A_size * B_size
    counts: dict[int, int] = {}
    remainders: dict[int, Fraction] = {}
    mult = nsc.multiplicities
    off = nsc.l_offset
    top = off + len(mult) - 1
    for d in range(1, d_max + 1):
        first = ((off + d - 1) // d) * d
        if first > top:
            counts[d] = 0
        else:
            counts[d] = int(mult[first - off :: d].sum())
        remainders[d] = counts[d] - X / d
    return SieveDecomposition(X=X, counts=counts, remainders=remainders)


def _distinct_values(nsc: NearSquareCount) -> tuple[np.ndarray, np.ndarray]:
    idx = np.nonzero(nsc.multiplicities)[0]
    return idx + nsc.l_offset, nsc.multiplicities[idx]


def sifting_function(nsc: NearSquareCount, z: float, table: PrimeTable) -> int:
    """Number of multiset entries with no prime factor below z (all of them for z < 2)."""
    if not (math.isfinite(z) and z > 0):
        raise InvalidArgumentError("sifting level z must be positive and finite")
    values, mults = _distinct_values(nsc)
    survive = np.ones(len(values), dtype=bool)  # l = 1 has no prime factor
    for index, p in prime_factor_steps(values, table):
        survive[index] = p >= z
        break  # the first step holds the smallest prime factors
    return int(mults[survive].sum())


@dataclass(frozen=True)
class AlmostPrimeCounts:
    """Entries whose rounded value has at most k prime factors (with multiplicity)."""

    k: int
    multiset_count: int
    distinct_count: int


def almost_prime_count(nsc: NearSquareCount, k: int, table: PrimeTable) -> AlmostPrimeCounts:
    """Count multiset entries (and distinct rounded values) with Omega(l) <= k."""
    if k < 0:
        raise InvalidArgumentError("almost-prime order k must be nonnegative")
    values, mults = _distinct_values(nsc)
    omega = np.zeros(len(values), dtype=np.int64)
    for index, _ in prime_factor_steps(values, table):
        omega[index] += 1
    keep = omega <= k
    return AlmostPrimeCounts(
        k=k, multiset_count=int(mults[keep].sum()), distinct_count=int(np.count_nonzero(keep))
    )


def _least_root(N: int, e: int) -> int:
    """Smallest integer p >= 1 with p**e >= N, so p**e >= N exactly when p >= it."""
    p = max(1, round(N ** (1.0 / e)))
    while p**e < N:
        p += 1
    while p > 1 and (p - 1) ** e >= N:
        p -= 1
    return p


def weighted_sum(
    nsc: NearSquareCount,
    k: int,
    table: PrimeTable,
    squarefree_only: bool = False,
) -> Fraction:
    """Weighted count over entries coprime to all primes below N^(1/15).

    Each qualifying entry contributes 1 minus half the number of its
    distinct prime factors p with N^(1/15) <= p < N^(1/k); the prime-range
    comparisons are done exactly through p**15 >= N and p**k < N, as
    integer thresholds on p.  The result is an exact half-integer rational.
    """
    if not 4 <= k <= 14:
        raise InvalidArgumentError("weighted sum order k must lie in 4..14")
    N = nsc.base_N
    lo, hi = _least_root(N, 15), _least_root(N, k)  # mid-range: lo <= p < hi
    values, mults = _distinct_values(nsc)
    keep = np.ones(len(values), dtype=bool)  # l = 1 weighs 1
    mid = np.zeros(len(values), dtype=np.int64)
    prev = np.zeros(len(values), dtype=np.int64)
    for step, (index, p) in enumerate(prime_factor_steps(values, table)):
        if step == 0:
            keep[index] = p >= lo  # shares no factor with the small-prime product
        repeat = p == prev[index]
        if squarefree_only:
            keep[index[repeat]] = False
        mid[index] += ~repeat & (p >= lo) & (p < hi)
        prev[index] = p
    return Fraction(int((mults[keep] * (2 - mid[keep])).sum()), 2)


def normalized_residual(
    A: IntervalSubset,
    B: IntervalSubset,
    delta,
    nsc: NearSquareCount | None = None,
    max_pairs: int = PAIR_BUDGET_DEFAULT,
) -> float | None:
    """(H - 2*delta*|A|*|B|) / (N * (|A||B|)^(1/4) * log(N)^(3/2)).

    The numerator is exact; the asymptotic main-term statement asserts this
    ratio stays bounded once |A||B| clears N^(4/3).  It is undefined, and
    None is returned, when A or B is empty.
    """
    if len(A) == 0 or len(B) == 0:
        return None
    if nsc is None:
        nsc = count_near_squares(A, B, delta, max_pairs=max_pairs)
    X = 2 * nsc.delta * len(A) * len(B)
    numer = float(Fraction(nsc.H_count) - X)
    N = A.base_N
    denom = N * (len(A) * len(B)) ** 0.25 * math.log(N) ** 1.5
    return numer / denom


def main_term_dominant(A: IntervalSubset, B: IntervalSubset) -> bool:
    """Whether |A||B| clears the N^(4/3) threshold where the main term dominates."""
    N = A.base_N
    return len(A) * len(B) >= N ** (4.0 / 3.0)
