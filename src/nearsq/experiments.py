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
from itertools import count, islice

import numpy as np

from .arith import (PRIME_TABLE_BUDGET, PrimeTable, as_fraction, near_square_roots,
                    prime_factor_steps)
from .errors import BudgetError, InvalidArgumentError

PAIR_BUDGET_DEFAULT = 10**9
D_MAX_BUDGET = 10**5  # largest d_max of sieve_decomposition: one exact remainder per d
CELLS = 2**14  # products decided per tile of the pair pass
WINDOW_ROWS = 64  # rows of A per tile of the window pass, which holds at most CELLS windows
SCREEN = 1024  # screened endpoints per window pass, over 4: tau = SCREEN / windows
DRAW_CHUNK = 2**20  # uniforms drawn at a time for a Bernoulli subset


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
    if kind != "explicit" and base_N > PRIME_TABLE_BUDGET:  # its window or draw is 8N bytes
        raise BudgetError(f"base_N = {base_N} exceeds the budget of {PRIME_TABLE_BUDGET}")
    if kind == "bernoulli":
        if density is None or not 0.0 < density <= 1.0:
            raise InvalidArgumentError("bernoulli density must lie in (0, 1]")
        if seed < 0:
            raise InvalidArgumentError("seed must be nonnegative")
        rng = np.random.default_rng(seed)
        # chunks of one PCG64 stream draw the same floats as one long draw
        kept = [j0 + np.flatnonzero(rng.random(min(DRAW_CHUNK, base_N - j0)) < density)
                for j0 in range(0, base_N, DRAW_CHUNK)]
        return IntervalSubset(base_N, base_N + 1 + np.concatenate(kept))
    if kind == "explicit":
        if elements is None:
            raise InvalidArgumentError("explicit subsets need an element list")
        els = np.unique(np.asarray(sorted(elements), dtype=np.int64))
        return IntervalSubset(base_N, els)
    if kind not in ("full", "adversarial-spread"):
        raise InvalidArgumentError(f"unknown subset kind {kind!r}")
    window = np.arange(base_N + 1, 2 * base_N + 1, dtype=np.int64)
    if kind == "full":
        return IntervalSubset(base_N, window)
    roots = np.sqrt(window.astype(np.float64))
    l = np.rint(roots).astype(np.int64)
    keep = (16 * window <= (4 * l - 1) ** 2) | (16 * window >= (4 * l + 1) ** 2)
    return IntervalSubset(base_N, window[keep])


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
    is decided as one flat array, each hit adding 1 at its root.  The
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

    def _scatter(self, roots: np.ndarray, hit: np.ndarray) -> None:
        """Add 1 at each root (a float array of integers) where ``hit`` holds."""
        k = np.count_nonzero(hit)
        np.compress(hit, roots, out=self.gathered[:k])
        np.subtract(self.gathered[:k], self.off, out=self.index[:k], casting="unsafe")
        np.add.at(self.counts, self.index[:k], 1)

    def decide(self, prod: np.ndarray) -> None:
        """Add 1 at every root in the window of each product of ``prod`` (at most ``cells``)."""
        c = len(prod)
        t, l, d, near, gap = (x[:c] for x in (self.t, self.l, self.d, self.near, self.gathered))
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
            self._scatter(t, hit)
            np.less(near, -margin, out=hit)
            np.logical_and(hit, sure_far, out=hit)
        else:
            np.less(near, -margin, out=hit)
        self._scatter(l, hit)
        self.min_margin = min(self.min_margin, lo)
        if lo <= margin:
            np.abs(near, out=gap)
            np.less_equal(gap, margin, out=hit)
            if self.two_sided:
                np.logical_or(hit, ~sure_far, out=hit)
            for m in prod[hit]:
                self.fallbacks += 1
                for root in near_square_roots(int(m), self.num, self.den):
                    self.counts[root - self.off] += 1


def _window_count(A: np.ndarray, B: np.ndarray, delta: Fraction, N: int, off: int,
                  pairs: int) -> tuple[np.ndarray, float, int] | None:
    """The count of A x B by windows, with the pair pass's margin and fallbacks.

    None, before anything is allocated, when its row blocks walk at least
    ``pairs`` windows (the pairs of the pair pass), and None when the screen
    cannot certify.

    For a row a and a root l the b with |sqrt(ab) - l| < delta are the b
    strictly inside x = (l - delta)^2 / a and y = (l + delta)^2 / a, whose
    number is C(ceil(y) - 1) - C(floor(x)) for the prefix count
    C(t) = #{b in B : b <= t}.  A tile is a few rows against a cut of their l
    range, one column per l, so its counts are one ``sum(axis=0)`` added into
    ``counts``.  When A = B only b > a is counted: both indices of a row are
    clipped up to a, the counts are doubled, and the diagonal adds 1 at l = a.

    **Margin.**  The endpoints are computed as x^ = fl(fl(fl(l - df)^2) *
    fl(1/a)), and y^ alike with l + df, where df = fl(delta).  Here
    a >= N + 1 and l <= 2N + 2, so every endpoint lies below 4(N + 4), and
    eps * v < S = spacing(4(N + 4)) for such v, with eps = 2^-53.
    |df - delta| <= eps * delta and the subtraction add at most eps (l + 1)
    to u = l - delta; squaring turns that into at most 2 u eps (l + 1) / a
    < 2 eps * 4(N + 4) < 2S of x, and the square, the reciprocal and the
    product each add a relative eps, 3S(1 + eps) more: |x^ - x| < 6S, and
    the same for y.  The pass reads g = (x^ - 1/2) - rint(x^ - 1/2), which
    is frac(x^) - 1/2 exactly.  When |g| < 1/2 - ``margin``, with
    ``margin`` = 8S (2S covers the rounding of that threshold), x^ lies
    more than 6S from every integer, so x lies strictly between the same two
    integers and floor(x) = rint(x^ - 1/2); for y, ceil(y) - 1 =
    rint(y^ - 1/2).  The other endpoints are floored in integers:
    floor(x) = P // Q and ceil(y) - 1 = (P' - 1) // Q with
    P = (den l - num)^2, P' = (den l + num)^2 and Q = den^2 a.

    **The pair pass's margin and fallbacks.**  ``boundary_margin`` and
    ``exact_fallbacks`` are per-pair quantities of ``_PairPass``.  A pair
    whose root lies within g < 1 of an edge e = l -+ df has
    |b - e^2 / a| < g (2 sqrt(b / a) + g / a) < 4g.  So each tile keeps the
    row and the floor of its endpoints within ``tau`` (at least ``margin``)
    of an integer, and once per count the b of B next to them (b >= a when
    A = B) make the candidate pairs.  Every other pair lies at least
    (tau - margin) / 4 from every edge, and its float gap, which is within
    the pair margin of its exact gap, at least
    ``cert`` = (tau - margin) / 4 - 2 * pair margin.  The pair pass decides
    the candidates' products into a count of their own, twice for a b > a
    when A = B, as the mirror (b, a) has the same product.  When their
    smallest gap lies below ``cert`` and the pair margin does too, that gap
    is the pair pass's minimum, and every pair within the pair margin is a
    candidate: the minimum and the fallbacks are the pair pass's, bit for
    bit.  Otherwise the screen is not certified.

    **Tau** is SCREEN / windows, at most 1/8, and at least 4 / (q^2 N) when
    p/q = ``delta.limit_denominator(isqrt(N))`` lies within 1 / (q^2 N) of
    delta: at p/q no gap |q^2 ab - (ql -+ p)^2| / (q^2 (sqrt(ab) + l -+ p/q))
    lies below about 1 / (4 q^2 N), and the screen finds the smallest gap only
    for tau above about 4 times that.  Tau can cost time, never a result.
    """
    if len(A) == 0 or len(B) == 0:
        return None
    symmetric = np.array_equal(A, B)
    rows = WINDOW_ROWS
    cols = max(1, CELLS // rows)
    blocks = []
    for i0 in range(0, len(A), rows):
        a_first, a_last = int(A[i0]), int(A[min(i0 + rows, len(A)) - 1])
        # every root within 1 of sqrt(ab) for some b of the rows' range
        blocks.append((i0, math.isqrt(a_first * (a_first if symmetric else int(B[0]))) - 1,
                       math.isqrt(a_last * int(B[-1])) + 2))
    windows = sum(len(A[i0 : i0 + rows]) * (l_hi + 1 - l_lo) for i0, l_lo, l_hi in blocks)
    if windows >= pairs:
        return None
    num, den = delta.numerator, delta.denominator
    margin = 8.0 * np.spacing(4.0 * (N + 4))
    near = delta.limit_denominator(math.isqrt(N))  # p/q, for the floor of tau
    q2N = near.denominator**2 * N
    floor = 4 / q2N if abs(delta - near) * q2N < 1 else 0.0
    tau = max(min(max(SCREEN / windows, floor), 0.125), margin)
    thr = 0.5 - tau  # |f - 1/2| >= thr: f within tau of 0 or 1
    counts = np.zeros(N + 4, dtype=np.int64)
    roots = np.arange(off, off + len(counts), dtype=np.float64)
    df = float(delta)
    lo_edge, hi_edge = (roots - df) ** 2, (roots + df) ** 2
    # C(t) for t in [0, 2N]; np.take(mode="clip") reads C(2N) = |B| above 2N
    C = np.zeros(2 * N + 1, dtype=np.int32)
    C[B] = 1
    np.cumsum(C, out=C)
    cells = min(len(A), rows) * cols
    bufs = [np.empty(cells, dtype=t) for t in (float, float, float, np.intp, np.intp)]
    # a screened endpoint's floor f, below 4(N + 4), is kept as a * stride + f
    stride = 4 * (N + 4) + 1
    screened = []
    inv_a = 1.0 / A
    for i0, l_lo, l_hi in blocks:
        a_rows, inv_rows = A[i0 : i0 + rows], inv_a[i0 : i0 + rows]
        for l0 in range(l_lo, l_hi + 1, cols):
            # the windows of a_rows at roots l0 .. l0 + n_cols - 1
            n_cols = min(cols, l_hi + 1 - l0)
            shape, c, e0 = (len(a_rows), n_cols), len(a_rows) * n_cols, l0 - off
            x, y, r, ix, iy = (v[:c] for v in bufs)
            np.multiply.outer(inv_rows, lo_edge[e0 : e0 + n_cols], out=x.reshape(shape))
            np.multiply.outer(inv_rows, hi_edge[e0 : e0 + n_cols], out=y.reshape(shape))
            for v, iv, sign in ((x, ix, -1), (y, iy, 1)):
                # g = (v - 1/2) - rint(v - 1/2) is frac(v) - 1/2, exactly; where
                # |g| < 1/2 - margin, rint(v - 1/2) is floor(v)
                np.subtract(v, 0.5, out=v)
                np.rint(v, out=r)
                np.subtract(v, r, out=v)
                np.abs(v, out=v)
                np.copyto(iv, r, casting="unsafe")
                ks = np.flatnonzero(v >= thr)
                for k in ks[v[ks] >= 0.5 - margin].tolist():
                    # floor(x) = P // Q; for y, ceil(y) - 1 = (P' - 1) // Q
                    P = (den * (l0 + k % n_cols) + sign * num) ** 2
                    iv[k] = (P - (sign > 0)) // (den * den * int(a_rows[k // n_cols]))
                screened.append(a_rows[ks // n_cols] * stride + iv[ks])
            # count only b > a when A = B; at roots l > a both endpoints exceed a
            # already, as (l - delta)^2 > a^2
            below = min(n_cols, int(a_rows[-1]) + 1 - l0) if symmetric else 0
            if below > 0:
                for iv in (ix, iy):
                    clip = iv.reshape(shape)[:, :below]
                    np.maximum(clip, a_rows[:, None], out=clip)
            # the prefix counts take the bytes of r, which is read no more
            cx, cy = r.view(np.int32)[:c], r.view(np.int32)[c:]
            np.take(C, ix, mode="clip", out=cx)
            np.take(C, iy, mode="clip", out=cy)
            np.subtract(cy, cx, out=cy)
            hits = cy.reshape(shape).sum(axis=0)
            counts[e0 : e0 + n_cols] += 2 * hits if symmetric else hits
    if symmetric:
        counts[A - off] += 1  # the diagonal: sqrt(a * a) = a
    # the candidate pairs: b = f and f + 1 for each screened floor f, in B (C(b) > C(b - 1),
    # and b <= 0 and b > 2N clip to equal counts), and b >= a when A = B
    keys = np.concatenate(screened)  # every tile appends, and a count has a tile
    keys = np.sort(np.concatenate((keys, keys + 1)))
    keys = keys[np.diff(keys, prepend=-1) != 0]  # np.unique imports numpy.ma
    a_c, b_c = np.divmod(keys, stride)
    keep = np.take(C, b_c, mode="clip") > np.take(C, b_c - 1, mode="clip")
    if symmetric:
        keep &= b_c >= a_c
    if not keep.any():
        return None
    a_c, b_c = a_c[keep], b_c[keep]
    prods = (a_c * b_c).astype(np.float64)
    if symmetric:
        prods = np.concatenate((prods, prods[b_c != a_c]))  # the mirrors (b, a) of b > a
    chunk = max(1, CELLS // 4)
    screen = _PairPass(delta, N, np.zeros_like(counts), off, min(len(prods), chunk))
    for j in range(0, len(prods), chunk):
        screen.decide(prods[j : j + chunk])
    cert = (tau - margin) / 4 - 2 * screen.margin
    if screen.min_margin < cert and screen.margin < cert:
        return counts, screen.min_margin, screen.fallbacks
    return None


def _pair_count(a_f: np.ndarray, b_f: np.ndarray, delta: Fraction, N: int,
                off: int) -> tuple[np.ndarray, float, int]:
    """The count of A x B pair by pair, its minimum margin and fallbacks; a tile is
    ``CELLS // cols`` rows of A against ``cols = min(|B|, CELLS)`` elements of B."""
    cols = max(1, min(len(b_f), CELLS))  # an empty B runs no tiles, not CELLS // 0
    rows = CELLS // cols
    counts = np.zeros(N + 4, dtype=np.int64)
    pp = _PairPass(delta, N, counts, off, min(len(a_f), rows) * min(len(b_f), cols))
    for i0 in range(0, len(a_f), rows):
        a_rows = a_f[i0 : i0 + rows]
        for j0 in range(0, len(b_f), cols):
            b_cols = b_f[j0 : j0 + cols]
            c = len(a_rows) * len(b_cols)
            np.multiply.outer(a_rows, b_cols, out=pp.prod[:c].reshape(len(a_rows), len(b_cols)))
            pp.decide(pp.prod[:c])
    return counts, pp.min_margin, pp.fallbacks


def check_base_N(N: int) -> None:
    """Reject an N whose sets of (N, 2N] can never be counted, before any is drawn:
    below 2, or with products over 2**53, past the exact float filter."""
    if N < 2:
        raise InvalidArgumentError("base_N must be at least 2")
    if 4 * N * N > 2**53:
        raise BudgetError("products exceed the exact float-filter range")


def check_delta(delta: Fraction) -> None:
    """Reject a window outside (0, 1)."""
    if not 0 < delta < 1:
        raise InvalidArgumentError("window delta must lie in (0, 1)")


def check_pair_budget(pairs: int, max_pairs: int) -> None:
    """Reject more than ``max_pairs`` pairs (N^2 for full sets, known before the draw)."""
    if pairs > max_pairs:
        raise BudgetError(f"{pairs} pairs exceed the budget of {max_pairs}")


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
    then contribute two rounded values, and H_count counts incidences.  Its
    refusals are ``check_*`` helpers, which callers can run before a draw.

    Two passes count, with the same results to the last bit:

    - The window pass (``_window_count``, whose docstring proves its margin)
      counts, for each a of A and each root l, the b of B inside the window
      of l at once from a prefix count of B.  It walks blocks of
      ``WINDOW_ROWS`` rows, in one plain loop, against every root within 1
      of sqrt(ab) for some b of the block: about 0.23 N windows per row when
      A = B and 0.51 N otherwise, whatever |B| is.  At every delta it runs
      when these windows, summed before anything is allocated, are fewer
      than the |A||B| pairs of the pair pass, and only it uses A = B.  When
      its screen cannot certify the pair pass's margin and fallbacks, the
      pair pass counts again.
    - The pair pass (``_PairPass``, ``_pair_count``) decides every ordered
      pair, in tiles of at most ``CELLS`` products.
    """
    if A.base_N != B.base_N:
        raise InvalidArgumentError("both subsets must share the same base N")
    delta = as_fraction(delta)
    check_delta(delta)
    n_pairs = len(A) * len(B)
    check_pair_budget(n_pairs, max_pairs)

    N = A.base_N
    check_base_N(N)
    # every root of a product in (N^2, 4N^2], and its far neighbour, lies in N - 1 .. 2N + 2
    off = N - 1
    got = _window_count(A.elements, B.elements, delta, N, off, n_pairs)
    if got is None:
        # below 2**53 every product of two elements is exact in float64
        got = _pair_count(A.elements.astype(np.float64), B.elements.astype(np.float64),
                          delta, N, off)
    counts, margin, fallbacks = got
    return NearSquareCount(
        delta=delta,
        base_N=N,
        A_size=len(A),
        B_size=len(B),
        H_count=int(counts.sum()),
        multiplicities=counts,
        l_offset=off,
        distinct_count=int(np.count_nonzero(counts)),
        boundary_margin=margin,
        exact_fallbacks=fallbacks,
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
    if (A_size, B_size) != (nsc.A_size, nsc.B_size):
        raise InvalidArgumentError("the count was not made on sets of these sizes")
    check_d_max(d_max)
    X = 2 * nsc.delta * A_size * B_size
    counts: dict[int, int] = {}
    remainders: dict[int, Fraction] = {}
    mult = nsc.multiplicities
    off = nsc.l_offset
    for d in range(1, d_max + 1):
        first = ((off + d - 1) // d) * d  # past the end the slice is empty and sums to 0
        counts[d] = int(mult[first - off :: d].sum())
        remainders[d] = counts[d] - X / d
    return SieveDecomposition(X=X, counts=counts, remainders=remainders)


def _distinct_values(nsc: NearSquareCount, table: PrimeTable) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rounded values, ascending, and their multiplicities; raises past the table."""
    idx = np.flatnonzero(nsc.multiplicities != 0)  # about 4x faster than on the int64 array
    table.cover(int(idx[-1]) + nsc.l_offset if idx.size else 0)
    return idx + nsc.l_offset, nsc.multiplicities[idx]


def sifting_function(nsc: NearSquareCount, z: float, table: PrimeTable) -> int:
    """Number of multiset entries with no prime factor below z (all of them for z < 2):
    l = 1 and the entries whose smallest prime factor, one table lookup, is at least z."""
    if not (math.isfinite(z) and z > 0):
        raise InvalidArgumentError("sifting level z must be positive and finite")
    values, mults = _distinct_values(nsc, table)
    return int(mults[(table.spf[values] >= z) | (values < 2)].sum())


@dataclass(frozen=True)
class AlmostPrimeCounts:
    """Entries whose rounded value has at most k prime factors (with multiplicity)."""

    k: int
    multiset_count: int
    distinct_count: int


def almost_prime_count(nsc: NearSquareCount, k: int, table: PrimeTable) -> AlmostPrimeCounts:
    """Count multiset entries (and distinct rounded values) with Omega(l) <= k.

    A step peels one prime factor, so the entries still walked after k steps
    are exactly those with Omega(l) > k.  The walk stops there, or at once
    when it runs out of entries, however large k is.
    """
    if k < 0:
        raise InvalidArgumentError("almost-prime order k must be nonnegative")
    values, mults = _distinct_values(nsc, table)
    keep = np.ones(len(values), dtype=bool)
    for index, _, _ in islice(prime_factor_steps(values, table), k, k + 1):
        keep[index] = False
    return AlmostPrimeCounts(
        k=k, multiset_count=int(mults[keep].sum()), distinct_count=int(np.count_nonzero(keep))
    )


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

    Only entries whose smallest prime factor clears N^(1/15) are walked, and
    each leaves at its first p >= N^(1/k), as no smaller prime follows it;
    with ``squarefree_only`` the walk goes on to find any repeated prime.
    """
    if not 4 <= k <= 14:
        raise InvalidArgumentError("weighted sum order k must lie in 4..14")
    N = nsc.base_N
    lo, hi = (next(p for p in count(1) if p**e >= N) for e in (15, k))  # mid-range: lo <= p < hi
    values, mults = _distinct_values(nsc, table)
    coprime = np.flatnonzero((table.spf[values] >= lo) | (values < 2))  # l = 1 weighs 1
    values, mults = values[coprime], mults[coprime]  # copies, so dropping an entry zeroes its mult
    mid = np.zeros(len(values), dtype=np.int64)
    for index, p, repeat in prime_factor_steps(values, table, None if squarefree_only else hi):
        if squarefree_only:
            mults[index[repeat]] = 0
        mid[index] += ~repeat & (p < hi)  # every p walked here is at least lo
    return Fraction(int((mults * (2 - mid)).sum()), 2)


def normalized_residual(
    A: IntervalSubset, B: IntervalSubset, delta, nsc: NearSquareCount
) -> float | None:
    """(H - 2*delta*|A|*|B|) / (N * (|A||B|)^(1/4) * log(N)^(3/2)).

    H is read off ``nsc``, which must be the count of A x B at ``delta``: a
    count of other sizes, another base N or another window raises
    ``InvalidArgumentError``.  The numerator is exact; the asymptotic
    main-term statement asserts this ratio stays bounded once |A||B| clears
    N^(4/3).  It is undefined, and None is returned, when A or B is empty.
    """
    if (as_fraction(delta), A.base_N, len(A), len(B)) != (
        nsc.delta, nsc.base_N, nsc.A_size, nsc.B_size
    ):
        raise InvalidArgumentError("the count was not made on these sets at this window")
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
