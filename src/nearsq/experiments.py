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
D_MAX_BUDGET = 10**5  # largest d_max of sieve_decomposition: one exact remainder per d
TILE = 128  # side of the square tiles of the pair pass when A = B
CELLS = TILE * TILE  # products decided per tile of the pair pass


@dataclass(frozen=True)
class IntervalSubset:
    """Finite subset of (N, 2N]."""

    base_N: int
    elements: np.ndarray

    def __post_init__(self):
        els = np.asarray(self.elements, dtype=np.int64)
        object.__setattr__(self, "elements", els)
        if self.base_N < 2:
            raise InvalidArgumentError("base_N must be at least 2")
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
        return IntervalSubset(base_N, window)
    if kind == "bernoulli":
        if density is None or not 0.0 < density <= 1.0:
            raise InvalidArgumentError("bernoulli density must lie in (0, 1]")
        if seed < 0:
            raise InvalidArgumentError("seed must be nonnegative")
        rng = np.random.default_rng(seed)
        mask = rng.random(len(window)) < density
        return IntervalSubset(base_N, window[mask])
    if kind == "adversarial-spread":
        roots = np.sqrt(window.astype(np.float64))
        l = np.rint(roots).astype(np.int64)
        keep = (16 * window <= (4 * l - 1) ** 2) | (16 * window >= (4 * l + 1) ** 2)
        return IntervalSubset(base_N, window[keep])
    if kind == "explicit":
        if elements is None:
            raise InvalidArgumentError("explicit subsets need an element list")
        els = np.unique(np.asarray(sorted(elements), dtype=np.int64))
        return IntervalSubset(base_N, els)
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


class _PairPass:
    """Certified window decisions on tiles of products ``a*b``.

    Every decision and every margin depends on the product alone, so a tile
    is decided as one flat array, each hit adding the tile's weight.  The
    work buffers are allocated once, for the largest tile, and each tile is
    computed into them with ufunc ``out=``: fresh O(tile) temporaries per
    tile made the pass 1.5-2x slower in a fresh process, where glibc trims
    and re-faults its heap on every tile, and an O(N) ``bincount`` per tile
    raised peak memory on sparse sets by 9%.  Hits are gathered with
    ``np.compress`` into a buffer and scattered with ``np.add.at``; the index
    list that ``np.compress`` builds internally is the one per-tile
    temporary.
    """

    def __init__(self, delta: Fraction, N: int, counts: np.ndarray, off: int, cells: int):
        self.df = float(delta)
        self.num, self.den = delta.numerator, delta.denominator
        self.margin = 2.0 * np.spacing(2.0 * (N + 1)) + 1e-15
        self.counts, self.off = counts, off
        # Only the nearest root l and its far neighbour l + sign(s) can lie in
        # the window.  For delta <= 1/2 the far one never matters: d <= 1/2
        # gives (1 - d) - delta >= |d - delta|, so its gap can neither be
        # negative, nor fall within the margin when the near gap does not, nor
        # be the smaller.
        self.two_sided = self.df > 0.5
        self.min_margin = math.inf
        self.fallbacks = 0
        self.prod = np.empty(cells)
        self.t, self.l, self.d, self.near, self.gathered = (np.empty(cells) for _ in range(5))
        self.sure_near, self.sure_far, self.hit = (np.empty(cells, dtype=bool) for _ in range(3))
        self.index = np.empty(cells, dtype=np.int64)

    def _scatter(self, roots: np.ndarray, hit: np.ndarray, w: int) -> None:
        """Add ``w`` at each root (a float array of integers) where ``hit`` holds."""
        k = np.count_nonzero(hit)
        np.compress(hit, roots, out=self.gathered[:k])
        np.subtract(self.gathered[:k], self.off, out=self.index[:k], casting="unsafe")
        np.add.at(self.counts, self.index[:k], w)

    def decide(self, c: int, w: int) -> None:
        """Add weight ``w`` at every root in the window of each of ``prod[:c]``."""
        prod, t, l, d, near, gap = (x[:c] for x in (self.prod, self.t, self.l, self.d,
                                                    self.near, self.gathered))
        sure_near, sure_far, hit = self.sure_near[:c], self.sure_far[:c], self.hit[:c]
        df, margin = self.df, self.margin
        # gap shares its buffer with the gathered roots: it is read only
        # before each scatter
        np.sqrt(prod, out=t)
        np.rint(t, out=l)
        np.subtract(t, l, out=t)  # s
        np.abs(t, out=d)
        np.subtract(d, df, out=near)
        np.abs(near, out=gap)
        lo = float(gap.min())
        # A pair is unsure when either gap lies within the margin.  A gap
        # below -margin is not within it, so the near hits need only the far
        # gap to be sure and the far hits only the near gap.
        if self.two_sided:
            # Correctly rounded sqrt is exact on perfect squares.  Otherwise s
            # can take the wrong sign only when d is below the float error,
            # and then the far gap (1 - d) - delta lies within the margin
            # whenever it could be negative: such pairs are unsure, and the
            # wrong far root is never counted.
            np.greater(gap, margin, out=sure_near)
            np.subtract(1.0, d, out=d)
            np.subtract(d, df, out=d)  # the far gap
            np.abs(d, out=gap)
            lo = min(lo, float(gap.min()))
            np.greater(gap, margin, out=sure_far)
            np.less(d, -margin, out=hit)
            np.logical_and(hit, sure_near, out=hit)
            np.sign(t, out=t)
            np.add(l, t, out=t)  # the far roots l + sign(s)
            self._scatter(t, hit, w)
            np.less(near, -margin, out=hit)
            np.logical_and(hit, sure_far, out=hit)
        else:
            np.less(near, -margin, out=hit)
        self._scatter(l, hit, w)
        self.min_margin = min(self.min_margin, lo)
        if lo <= margin:
            np.abs(near, out=gap)
            np.less_equal(gap, margin, out=hit)
            if self.two_sided:
                np.logical_or(hit, ~sure_far, out=hit)
            for m in prod[hit]:
                self.fallbacks += w
                for root in near_square_roots(int(m), self.num, self.den):
                    self.counts[root - self.off] += w


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

    The pairs are decided in tiles of the product matrix, each of at most
    ``CELLS`` products.  For distinct sets a tile is ``CELLS // cols`` rows of
    A against ``cols = min(|B|, CELLS)`` consecutive elements of B, so a row
    longer than ``CELLS`` is cut.  When A and B hold the same elements, a
    pair and its mirror have the same product, hence the same decisions,
    roots and margin: the tiles are then ``TILE x TILE`` squares on and above
    the diagonal.  A square above it stands in for its mirror too and takes
    weight 2; a square on it holds each of its pairs and their mirrors, and
    takes weight 1.  The work buffers are allocated once per call, not per
    tile (see ``_PairPass``).
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
    # every root of a product in (N^2, 4N^2], and its far neighbour, lies in
    # N - 1 .. 2N + 2
    counts, off = np.zeros(N + 4, dtype=np.int64), N - 1
    # below 2**53 every product of two elements is exact in float64
    a_f = A.elements.astype(np.float64)
    b_f = B.elements.astype(np.float64)
    symmetric = np.array_equal(A.elements, B.elements)
    if symmetric:
        rows = cols = TILE
    else:
        cols = max(1, min(len(b_f), CELLS))  # an empty B runs no tiles, not CELLS // 0
        rows = CELLS // cols
    pp = _PairPass(delta, N, counts, off, min(len(a_f), rows) * min(len(b_f), cols))
    for i0 in range(0, len(a_f), rows):
        a_rows = a_f[i0 : i0 + rows]
        for j0 in range(i0 if symmetric else 0, len(b_f), cols):
            b_cols = b_f[j0 : j0 + cols]
            c = len(a_rows) * len(b_cols)
            np.multiply.outer(a_rows, b_cols, out=pp.prod[:c].reshape(len(a_rows), len(b_cols)))
            pp.decide(c, 2 if symmetric and j0 > i0 else 1)
    return NearSquareCount(
        delta=delta,
        base_N=N,
        A_size=len(A),
        B_size=len(B),
        H_count=int(counts.sum()),
        multiplicities=counts,
        l_offset=off,
        distinct_count=int(np.count_nonzero(counts)),
        boundary_margin=pp.min_margin,
        exact_fallbacks=pp.fallbacks,
    )


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


def check_d_max(d_max: int) -> None:
    """Reject a divisor range that is empty or over ``D_MAX_BUDGET``."""
    if d_max < 1:
        raise InvalidArgumentError("d_max must be at least 1")
    if d_max > D_MAX_BUDGET:
        raise BudgetError(f"d_max = {d_max} exceeds the budget of {D_MAX_BUDGET}")


def sieve_decomposition(
    nsc: NearSquareCount, A_size: int, B_size: int, d_max: int
) -> SieveDecomposition:
    """Bucket the rounded-value multiset by divisibility for every d <= d_max."""
    check_d_max(d_max)
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
    A: IntervalSubset, B: IntervalSubset, delta, nsc: NearSquareCount
) -> float | None:
    """(H - 2*delta*|A|*|B|) / (N * (|A||B|)^(1/4) * log(N)^(3/2)).

    H and delta are read off ``nsc``, the count of A x B at ``delta``.  The
    numerator is exact; the asymptotic main-term statement asserts this
    ratio stays bounded once |A||B| clears N^(4/3).  It is undefined, and
    None is returned, when A or B is empty.
    """
    if len(A) == 0 or len(B) == 0:
        return None
    X = 2 * nsc.delta * len(A) * len(B)
    numer = float(Fraction(nsc.H_count) - X)
    N = A.base_N
    denom = N * (len(A) * len(B)) ** 0.25 * math.log(N) ** 1.5
    return numer / denom


def main_term_dominant(A: IntervalSubset, B: IntervalSubset) -> bool:
    """Whether |A||B| clears the N^(4/3) threshold where the main term dominates."""
    N = A.base_N
    return len(A) * len(B) >= N ** (4.0 / 3.0)
