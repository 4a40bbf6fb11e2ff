import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearsq import experiments
from nearsq.arith import as_fraction, build_prime_table
from nearsq.errors import BudgetError, CoverageError, InvalidArgumentError
from nearsq.experiments import (
    almost_prime_count,
    count_near_squares,
    generate_subset,
    main_term_dominant,
    normalized_residual,
    sieve_decomposition,
    sifting_function,
    weighted_sum,
)

from conftest import exact_window_count, recount_float, rounded_values, trial_prime_factors


def random_instance(prng, n_max=220):
    N = prng.choice([60, 137, n_max])
    take_a = prng.randint(5, max(6, N // 2))
    take_b = prng.randint(5, max(6, N // 2))
    a_els = sorted(prng.sample(range(N + 1, 2 * N + 1), take_a))
    b_els = sorted(prng.sample(range(N + 1, 2 * N + 1), take_b))
    A = generate_subset(N, "explicit", elements=a_els)
    B = generate_subset(N, "explicit", elements=b_els)
    return A, B


def weighted_oracle(values, N, k, squarefree_only=False):
    """Direct weighted sum over a multiset given as (l, multiplicity) pairs."""
    expect = Fraction(0)
    for l, m in values:
        factors = trial_prime_factors(l)
        primes = sorted(set(factors))
        if any(p**15 < N for p in primes[:1]):
            continue
        if squarefree_only and len(primes) < len(factors):
            continue
        mid = sum(1 for p in primes if p**15 >= N and p**k < N)
        expect += m * (Fraction(1) - Fraction(mid, 2))
    return expect


TINY = Fraction(1, 2**50)
# windows next to 1/2, where the far neighbour starts to count, next to 1,
# and below the float margin (about 3e-14 at N = 50), where squares fall back
MARGIN_WINDOWS = (Fraction(1, 2) - TINY, Fraction(1, 2) + TINY, Fraction(2, 3), 1 - TINY,
                  Fraction(1, 10**14))


def assert_count_is_sum(whole, parts):
    """``whole`` counts the union of the pair sets that ``parts`` count."""
    mult = sum(p.multiplicities for p in parts)
    assert np.array_equal(whole.multiplicities, mult)
    assert whole.l_offset == parts[0].l_offset
    assert whole.H_count == sum(p.H_count for p in parts)
    assert whole.distinct_count == np.count_nonzero(mult)
    assert whole.exact_fallbacks == sum(p.exact_fallbacks for p in parts)
    assert whole.boundary_margin == min(p.boundary_margin for p in parts)


def split_count(A, x, delta):
    """count(A, A) through the pass for distinct sets: the columns A without x, then x."""
    rest = generate_subset(A.base_N, "explicit", elements=[b for b in A.elements if b != x])
    one = generate_subset(A.base_N, "explicit", elements=[x])
    return [count_near_squares(A, rest, delta), count_near_squares(A, one, delta)]


def roots_count(N, roots):
    """A count whose multiset of rounded roots is ``roots`` (each in [N - 1, 2N + 2])."""
    nsc = count_near_squares(
        generate_subset(N, "explicit", elements=[]), generate_subset(N, "explicit", elements=[]),
        Fraction(1, 2),
    )
    np.add.at(nsc.multiplicities, np.asarray(roots, dtype=np.int64) - nsc.l_offset, 1)
    return nsc


class TestGenerateSubset:
    def test_full(self):
        s = generate_subset(100, "full")
        assert len(s) == 100
        assert s.elements[0] == 101 and s.elements[-1] == 200

    def test_bernoulli_deterministic(self):
        a = generate_subset(5000, "bernoulli", density=0.5, seed=7)
        b = generate_subset(5000, "bernoulli", density=0.5, seed=7)
        assert np.array_equal(a.elements, b.elements)
        assert not np.array_equal(
            a.elements, generate_subset(5000, "bernoulli", density=0.5, seed=8).elements
        )

    def test_bernoulli_chunks_give_the_one_shot_draw(self, monkeypatch):
        # chunks of 7 draws, a last chunk of 1, 6 or 7, against one draw of N
        monkeypatch.setattr(experiments, "DRAW_CHUNK", 7)
        for N in (2, 50, 1000, 1001, 1006):
            chunked = generate_subset(N, "bernoulli", density=0.4, seed=N)
            one_shot = np.random.default_rng(N).random(N) < 0.4
            assert np.array_equal(chunked.elements, N + 1 + np.flatnonzero(one_shot))

    def test_bernoulli_rejects_negative_seed(self):
        with pytest.raises(InvalidArgumentError):
            generate_subset(100, "bernoulli", density=0.5, seed=-1)

    def test_bernoulli_concentration(self):
        # binomial 5-sigma band over 100 seeds
        N, p = 10**5, 0.3
        band = 5 * math.sqrt(p * (1 - p) * N)
        for seed in range(100):
            s = generate_subset(N, "bernoulli", density=p, seed=seed)
            assert abs(len(s) - p * N) <= band

    def test_adversarial_spread_keeps_roots_off_integers(self):
        s = generate_subset(2000, "adversarial-spread")
        for n in s.elements[:200]:
            r = math.isqrt(int(n))
            l = r if int(n) - r * r <= (r + 1) ** 2 - int(n) else r + 1
            assert abs(math.sqrt(int(n)) - l) >= 0.25 - 1e-12
        assert len(s) >= 0.4 * 2000

    def test_explicit_builds_no_window(self):
        # 500 elements at N = 10^6: the (N, 2N] arange alone would take 8 MB
        N = 10**6
        elements = np.random.default_rng(5).choice(np.arange(N + 1, 2 * N + 1), 500, replace=False)
        generate_subset(N, "explicit", elements=[N + 1])  # np.unique imports numpy.ma once
        tracemalloc.start()
        try:
            s = generate_subset(N, "explicit", elements=elements.tolist())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(s.elements, np.sort(elements))
        assert peak < 100_000  # bytes: the elements a few times over, not 8 MB

    def test_explicit_validation(self):
        with pytest.raises(InvalidArgumentError):
            generate_subset(100, "explicit", elements=[99])
        with pytest.raises(InvalidArgumentError):
            generate_subset(100, "explicit", elements=[250])
        with pytest.raises(InvalidArgumentError):
            generate_subset(100, "bogus")


class TestCountNearSquares:
    def test_against_independent_oracle(self):
        prng = random.Random(7)
        windows = [Fraction(1, 2), Fraction(1, 7), 0.3, Fraction(1, 3), 0.77,
                   Fraction(1, 10**9)]
        for _ in range(5):
            A, B = random_instance(prng)
            for delta in windows:
                nsc = count_near_squares(A, B, delta)
                H, mult = exact_window_count(A, B, delta)
                assert nsc.H_count == H
                assert dict(rounded_values(nsc)) == mult

    def test_perfect_square_product(self):
        A = generate_subset(195, "explicit", elements=[196])
        nsc = count_near_squares(A, A, Fraction(1, 100))
        assert nsc.H_count == 1
        assert rounded_values(nsc) == [(196, 1)]

    def test_half_window_counts_everything(self):
        # the root of an integer product is never exactly half-integral
        A = generate_subset(120, "full")
        nsc = count_near_squares(A, A, Fraction(1, 2))
        assert nsc.H_count == 120 * 120

    def test_vanishing_window_keeps_square_products_only(self):
        A = generate_subset(50, "full")
        expected = sum(
            1
            for a in A.elements
            for b in A.elements
            if math.isqrt(int(a) * int(b)) ** 2 == int(a) * int(b)
        )
        # the float margin is about 3e-14 here: a window below it sends every
        # square product to the integer fallback
        for delta, fallbacks in ((Fraction(1, 10**12), 0), (Fraction(1, 10**14), expected)):
            nsc = count_near_squares(A, A, delta)
            assert nsc.H_count == expected
            assert nsc.exact_fallbacks == fallbacks

    def test_symmetry(self):
        prng = random.Random(3)
        A, B = random_instance(prng)
        assert (
            count_near_squares(A, B, Fraction(1, 5)).H_count
            == count_near_squares(B, A, Fraction(1, 5)).H_count
        )

    @given(st.integers(0, 10**4))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_window(self, seed):
        prng = random.Random(seed)
        A, B = random_instance(prng, n_max=90)
        h1 = count_near_squares(A, B, Fraction(1, 10)).H_count
        h2 = count_near_squares(A, B, Fraction(1, 4)).H_count
        h3 = count_near_squares(A, B, Fraction(1, 2)).H_count
        assert h1 <= h2 <= h3

    def test_monotone_in_sets(self):
        prng = random.Random(11)
        A, B = random_instance(prng)
        smaller = generate_subset(
            A.base_N, "explicit", elements=A.elements[::2].tolist()
        )
        assert (
            count_near_squares(smaller, B, Fraction(1, 6)).H_count
            <= count_near_squares(A, B, Fraction(1, 6)).H_count
        )

    def test_budget_error(self):
        A = generate_subset(2000, "full")
        with pytest.raises(BudgetError):
            count_near_squares(A, A, Fraction(1, 2), max_pairs=10**6)

    def test_base_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            count_near_squares(
                generate_subset(100, "full"), generate_subset(101, "full"), 0.5
            )

    @given(st.integers(0, 10**4))
    @settings(max_examples=25, deadline=None)
    def test_windows_at_the_float_margin(self, seed):
        # windows next to 1/2, where the far neighbour starts to count, next
        # to 1, and a few orders above the float margin
        prng = random.Random(seed)
        A, B = random_instance(prng, n_max=150)
        tiny = Fraction(1, 2**50)
        for delta in (Fraction(1, 2) - tiny, Fraction(1, 2), Fraction(1, 2) + tiny,
                      Fraction(2, 3), 1 - tiny, Fraction(1, 10**12)):
            nsc = count_near_squares(A, B, delta)
            H, mult = exact_window_count(A, B, delta)
            assert nsc.H_count == H
            assert dict(rounded_values(nsc)) == mult

    @given(st.integers(0, 10**4))
    @settings(max_examples=20, deadline=None)
    def test_equal_and_distinct_sets_at_the_float_margin(self, seed):
        prng = random.Random(seed)
        A, B = random_instance(prng, n_max=150)
        for delta in MARGIN_WINDOWS:
            for X, Y in ((A, A), (A, B)):
                nsc = count_near_squares(X, Y, delta)
                H, mult = exact_window_count(X, Y, delta)
                assert nsc.H_count == H
                assert dict(rounded_values(nsc)) == mult

    @given(st.integers(0, 10**4), st.sampled_from(MARGIN_WINDOWS + (Fraction(1, 7),)))
    @settings(max_examples=30, deadline=None)
    def test_equal_sets_count_is_additive(self, seed, delta):
        # the count of A x A, which the window pass may take as A = B (b >= a,
        # doubled), against the counts of distinct sets, field by field
        prng = random.Random(seed)
        A, _ = random_instance(prng, n_max=220)
        x = prng.choice(A.elements.tolist())
        assert_count_is_sum(count_near_squares(A, A, delta), split_count(A, x, delta))

    def test_full_set_blocks_straddle_rows(self):
        # three full row blocks of the window pass and a short one, at the
        # default block size
        N = 200
        assert (N // experiments.WINDOW_ROWS, N % experiments.WINDOW_ROWS) == (3, 8)
        A = generate_subset(N, "full")
        for delta in (float(N) ** -0.05, Fraction(1, 20)) + MARGIN_WINDOWS:
            nsc = count_near_squares(A, A, delta)
            H, mult = exact_window_count(A, A, delta)
            assert nsc.H_count == H
            assert dict(rounded_values(nsc)) == mult
            assert_count_is_sum(nsc, split_count(A, int(A.elements[-1]), delta))

    @pytest.mark.parametrize("tile", [1, 2, 3, 5])
    def test_small_tiles_against_oracle(self, monkeypatch, tile):
        # pair pass tiles far smaller than the sets, so that counts cross many
        # tile edges and short last tiles, on A = A too: the window pass,
        # which would take most of these counts, is kept out
        monkeypatch.setattr(experiments, "_window_count", lambda *args: None)
        monkeypatch.setattr(experiments, "CELLS", tile * tile)
        prng = random.Random(tile)
        for N in (20, 37, 60):
            A, B = (
                generate_subset(N, "explicit", elements=prng.sample(range(N + 1, 2 * N + 1), size))
                for size in (prng.randint(N // 3, N), prng.randint(N // 3, N))
            )
            for X, Y in ((A, A), (A, B), (B, A)):
                for delta in (Fraction(1, 7), Fraction(2, 3), Fraction(1, 10**14)):
                    nsc = count_near_squares(X, Y, delta)
                    H, mult = exact_window_count(X, Y, delta)
                    assert nsc.H_count == H
                    assert dict(rounded_values(nsc)) == mult

    def test_short_rows_share_a_tile(self, monkeypatch):
        # |B| = 3: a tile holds CELLS // 3 rows of A, not 3 x 3 products
        calls = []
        decide = experiments._PairPass.decide

        def counted(pp, prod):
            calls.append(len(prod))
            decide(pp, prod)

        monkeypatch.setattr(experiments._PairPass, "decide", counted)
        N = 10**5
        A = generate_subset(N, "full")
        B = generate_subset(N, "explicit", elements=[N + 1, 150_000, 2 * N])
        count_near_squares(A, B, Fraction(1, 7))
        assert sum(calls) == len(A) * len(B)
        assert len(calls) <= -(-len(A) // (experiments.CELLS // len(B))) == 19

    def test_long_rows_are_cut(self):
        # |B| = 10^5: the work buffers hold one tile of CELLS products, not a
        # row of |B|; the mirrored count, with rows of 3, is the same
        N = 10**5
        A = generate_subset(N, "explicit", elements=[N + 1, 150_000, 2 * N])
        B = generate_subset(N, "full")
        tracemalloc.start()
        try:
            nsc = count_near_squares(A, B, Fraction(1, 7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        floats = 8 * (len(A) + len(B))
        assert peak < nsc.multiplicities.nbytes + floats + (3 << 19)
        assert_count_is_sum(nsc, [count_near_squares(B, A, Fraction(1, 7))])

    def test_perfect_squares_decided_in_float_beyond_half(self):
        # a correctly rounded sqrt is exact on perfect squares, so they need
        # no integer fallback when delta > 1/2
        A = generate_subset(200, "full")
        nsc = count_near_squares(A, A, Fraction(2, 3))
        H, mult = exact_window_count(A, A, Fraction(2, 3))
        assert nsc.exact_fallbacks == 0
        assert nsc.H_count == H
        assert dict(rounded_values(nsc)) == mult

    def test_boundary_margin_is_distance_to_nearest_edge(self):
        prng = random.Random(5)
        for _ in range(3):
            A, B = random_instance(prng, n_max=137)
            for delta in (Fraction(1, 7), 0.3, Fraction(1, 2), Fraction(2, 3), 0.77):
                df = float(delta)
                expect = math.inf
                for a in A.elements:
                    for b in B.elements:
                        t = math.sqrt(int(a) * int(b))
                        f = math.floor(t)
                        for l in range(f - 1, f + 3):
                            expect = min(expect, abs(t - (l - df)), abs(t - (l + df)))
                got = count_near_squares(A, B, delta).boundary_margin
                assert abs(got - expect) <= 1e-12

    def test_recount_matches_when_margin_clears(self):
        A = generate_subset(2000, "bernoulli", density=0.8, seed=11)
        B = generate_subset(2000, "bernoulli", density=0.8, seed=12)
        for delta in (Fraction(1, 10), Fraction(1, 2), Fraction(1, 25)):
            nsc = count_near_squares(A, B, delta)
            if nsc.boundary_margin > 1e-6:
                assert recount_float(A, B, delta) == nsc.H_count


def pair_pass_calls(monkeypatch):
    """A list that gains an entry at each call of the pair pass."""
    calls = []
    pair_count = experiments._pair_count
    monkeypatch.setattr(experiments, "_pair_count", lambda *args: calls.append(1) or pair_count(*args))
    return calls


def count_both_ways(monkeypatch, A, B, delta, window_tiles=None):
    """The count of A x B by the pair pass and by the window pass, and whether
    the window pass fell back on the pair pass (its screen did not certify).

    ``_window_count`` is wrapped: to return None, which leaves the count to
    the pair pass, and to take every window count as fewer than the pairs."""
    window_count = experiments._window_count
    monkeypatch.setattr(experiments, "_window_count", lambda *args: None)
    pairs = count_near_squares(A, B, delta)
    monkeypatch.setattr(experiments, "_window_count",
                        lambda *args: window_count(*args[:-1], math.inf))
    if window_tiles:
        monkeypatch.setattr(experiments, "WINDOW_ROWS", window_tiles[0])
        monkeypatch.setattr(experiments, "CELLS", window_tiles[1])
    calls = pair_pass_calls(monkeypatch)
    windows = count_near_squares(A, B, delta)
    monkeypatch.undo()
    return pairs, windows, bool(calls)


def assert_same_count(x, y):
    assert np.array_equal(x.multiplicities, y.multiplicities)
    assert (x.H_count, x.l_offset, x.distinct_count, repr(x.boundary_margin), x.exact_fallbacks) == (
        y.H_count, y.l_offset, y.distinct_count, repr(y.boundary_margin), y.exact_fallbacks)


# the margin windows, and two one-sided windows of small denominator
WINDOWS = MARGIN_WINDOWS + (Fraction(1, 2), Fraction(1, 20))


class TestWindowPass:
    """The window pass against the pair pass, field by field."""

    @pytest.mark.parametrize("N", [50, 200, 1000])
    def test_equal_to_the_pair_pass(self, monkeypatch, N):
        # full A = A, Bernoulli(0.9) A != B, Bernoulli(0.3) A = A and
        # Bernoulli(0.05) against full; the windows at 1 - 2^-50 send every
        # square product to the exact fallback
        full = generate_subset(N, "full")
        shapes = [(full, full),
                  (generate_subset(N, "bernoulli", density=0.9, seed=1),
                   generate_subset(N, "bernoulli", density=0.9, seed=2)),
                  (generate_subset(N, "bernoulli", density=0.3, seed=3),) * 2,
                  (generate_subset(N, "bernoulli", density=0.05, seed=4), full)]
        certified = fallbacks = 0
        for A, B in shapes:
            for delta in (float(N) ** -0.05,) + WINDOWS:
                pairs, windows, fell_back = count_both_ways(monkeypatch, A, B, delta)
                assert_same_count(pairs, windows)
                certified += not fell_back
                fallbacks += windows.exact_fallbacks
        assert certified >= 12 and fallbacks > 0

    @pytest.mark.parametrize("tiles", [(1, 2), (3, 7), (5, 64)])
    def test_small_window_tiles(self, monkeypatch, tiles):
        # tiles of a few rows and a few roots, so that the l ranges are cut
        prng = random.Random(tiles[1])
        for _ in range(2):
            A, B = random_instance(prng, n_max=60)
            for X, Y in ((A, A), (A, B), (B, A)):
                for delta in WINDOWS:
                    assert_same_count(*count_both_ways(monkeypatch, X, Y, delta, tiles)[:2])

    def test_empty_and_single_rows(self, monkeypatch):
        N = 100
        one = generate_subset(N, "explicit", elements=[150])
        empty = generate_subset(N, "explicit", elements=[])
        full = generate_subset(N, "full")
        for A, B in ((full, empty), (empty, full), (one, full), (full, one), (one, one)):
            for delta in WINDOWS:
                assert_same_count(*count_both_ways(monkeypatch, A, B, delta)[:2])

    def test_uncertified_screen_falls_back(self, monkeypatch):
        # one pair (a, a): its gaps are delta and 1 - delta, no window edge
        # lies near an integer, and the screen has no candidate
        one = generate_subset(100, "explicit", elements=[150])
        pairs, windows, fell_back = count_both_ways(monkeypatch, one, one, Fraction(2, 3))
        assert fell_back
        assert_same_count(pairs, windows)
        assert repr(windows.boundary_margin) == repr(1 - 2 / 3)

    def test_dense_instances_take_the_window_pass(self, monkeypatch):
        # one rule at every delta: dense sets take the window pass, on both
        # sides of 1/2, and certify
        calls = pair_pass_calls(monkeypatch)
        N = 2000
        full = generate_subset(N, "full")
        dense = [generate_subset(N, "bernoulli", density=0.9, seed=s) for s in (1, 2)]
        sparse = generate_subset(N, "bernoulli", density=0.3, seed=1)
        for delta in (float(N) ** -0.05, Fraction(2, 3), Fraction(1, 2), Fraction(1, 20)):
            count_near_squares(full, full, delta)
            count_near_squares(*dense, delta)
            count_near_squares(full, dense[1], delta)
        assert not calls

        # sets whose windows are not fewer than their pairs stay on the pair
        # pass, at every delta
        for delta in (Fraction(2, 3), Fraction(1, 2), Fraction(1, 20)):
            count_near_squares(sparse, sparse, delta)
            count_near_squares(full, sparse, delta)
        assert len(calls) == 6

        # and the rule sends them there before the window pass allocates: at
        # N = 10^6 its prefix counts and root edges (24 MB) dwarf the pair
        # pass's tiles (1 MB), so the peak stays below the multiplicities
        # plus the prefix counts
        N = 10**6
        sparse = [generate_subset(N, "bernoulli", density=0.001, seed=s) for s in (1, 2)]
        for A, B in (sparse, sparse[:1] * 2):
            tracemalloc.start()
            try:
                count_near_squares(A, B, Fraction(1, 20))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * (N + 4) + 4 * (2 * N + 1)
        assert len(calls) == 8

    @pytest.mark.parametrize("side", [1, -1], ids=["above", "below"])
    def test_windows_next_to_one_half_certify(self, monkeypatch, side):
        # full A = A at 1/2 +- 2^-50: p/q = 1/2 floors tau at 1/N, so the
        # screen reaches the pairs with ab = l(l + 1), whose gaps are about
        # 1/(8 l).  At N = 18,059 SCREEN / windows alone does not: without
        # the floor, 1/2 + 2^-50 fell back on the pair pass here.
        A = generate_subset(18_059, "full")
        delta = Fraction(1, 2) + side * TINY
        calls = pair_pass_calls(monkeypatch)
        windows = count_near_squares(A, A, delta)
        assert not calls
        monkeypatch.setattr(experiments, "_window_count", lambda *args: None)
        assert_same_count(count_near_squares(A, A, delta), windows)


@pytest.mark.parametrize("N, a_els, b_els, delta", [
    (50, [54, 89], [64, 94, 99], Fraction(2, 3)),
    (30, [35, 59], [32, 35, 43, 47, 48, 54, 55, 60], Fraction(1, 20)),
    (30, [32, 36, 37, 42, 50, 54], [43, 59], Fraction(2, 3)),
])
def test_rows_far_apart_keep_their_own_candidates(monkeypatch, N, a_els, b_els, delta):
    # rows spread over (N, 2N] share one block, whose roots reach 2N, so their
    # window ends reach about 4N: a screened floor kept with the wrong row
    # gives a pair outside A x B, and here one whose gap is below the minimum
    A = generate_subset(N, "explicit", elements=a_els)
    B = generate_subset(N, "explicit", elements=b_els)
    assert_same_count(*count_both_ways(monkeypatch, A, B, delta)[:2])

class TestSieveDecomposition:
    def test_unit_modulus_is_definitional(self):
        A = generate_subset(300, "bernoulli", density=0.6, seed=2)
        nsc = count_near_squares(A, A, Fraction(1, 8))
        dec = sieve_decomposition(nsc, len(A), len(A), 10)
        assert dec.counts[1] == nsc.H_count
        assert dec.remainders[1] == nsc.H_count - dec.X

    def test_identity_exact_for_every_modulus(self):
        A = generate_subset(500, "bernoulli", density=0.7, seed=9)
        B = generate_subset(500, "bernoulli", density=0.4, seed=10)
        nsc = count_near_squares(A, B, Fraction(1, 13))
        dec = sieve_decomposition(nsc, len(A), len(B), 100)
        for d in range(1, 101):
            assert Fraction(dec.counts[d]) == dec.X / d + dec.remainders[d]

    def test_empty_multiset(self):
        A = generate_subset(100, "explicit", elements=[101])
        B = generate_subset(100, "explicit", elements=[102])
        nsc = count_near_squares(A, B, Fraction(1, 10**9))
        dec = sieve_decomposition(nsc, 1, 1, 5)
        assert all(c == 0 for c in dec.counts.values())
        for d in range(1, 6):
            assert dec.remainders[d] == -dec.X / d

    def test_rejects_sizes_of_other_sets(self):
        A = generate_subset(100, "full")
        B = generate_subset(100, "explicit", elements=[101, 150])
        nsc = count_near_squares(A, B, Fraction(1, 20))
        assert sieve_decomposition(nsc, 100, 2, 5).counts[1] == nsc.H_count
        for sizes in ((2, 100), (100, 100), (99, 2), (100, 3)):
            with pytest.raises(InvalidArgumentError):
                sieve_decomposition(nsc, *sizes, 5)

    def test_divisibility_counts_against_direct_scan(self):
        A = generate_subset(400, "full")
        nsc = count_near_squares(A, A, Fraction(1, 9))
        dec = sieve_decomposition(nsc, len(A), len(A), 12)
        values = dict(rounded_values(nsc))
        for d in (2, 3, 7, 12):
            assert dec.counts[d] == sum(m for l, m in values.items() if l % d == 0)


class TestSifting:
    def test_level_two_keeps_all(self, table_22k):
        A = generate_subset(800, "bernoulli", density=0.5, seed=4)
        nsc = count_near_squares(A, A, Fraction(1, 11))
        assert sifting_function(nsc, 2.0, table_22k) == nsc.H_count

    def test_level_below_two_sifts_nothing(self, table_22k):
        A = generate_subset(300, "bernoulli", density=0.5, seed=2)
        nsc = count_near_squares(A, A, Fraction(1, 11))
        for z in (1e-9, 0.5, 1.0, 1.46, 1.999):
            assert sifting_function(nsc, z, table_22k) == nsc.H_count
        for z in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(InvalidArgumentError):
                sifting_function(nsc, z, table_22k)

    def test_small_factor_excluded(self, table_22k):
        # multiset {15}: smallest prime factor 3 < 4, sifted out at z = 4
        A = generate_subset(14, "explicit", elements=[15])
        nsc = count_near_squares(A, A, Fraction(1, 3))  # sqrt(225) = 15
        assert rounded_values(nsc) == [(15, 1)]
        assert sifting_function(nsc, 4.0, build_prime_table(20)) == 0
        assert sifting_function(nsc, 3.0, build_prime_table(20)) == 1

    def test_sifted_below_almost_prime_count(self, table_22k):
        for seed in (1, 2, 3):
            A = generate_subset(900, "bernoulli", density=0.8, seed=seed)
            B = generate_subset(900, "bernoulli", density=0.6, seed=seed + 50)
            nsc = count_near_squares(A, B, Fraction(1, 12))
            N = 900
            for k in (4, 5, 6):
                z = (3.0 * N) ** (1.0 / (k + 1))
                s = sifting_function(nsc, z, table_22k)
                ap = almost_prime_count(nsc, k, table_22k)
                assert s <= ap.multiset_count <= nsc.H_count


class TestAlmostPrimeCount:
    def test_single_prime_entry(self, table_22k):
        A = generate_subset(10000, "explicit", elements=[10007])
        nsc = count_near_squares(A, A, Fraction(1, 2))
        ap = almost_prime_count(nsc, 1, table_22k)
        assert (ap.multiset_count, ap.distinct_count) == (1, 1)

    def test_sixty_four(self, table_22k):
        # 8 * 8 = 64 = 2^6
        A = generate_subset(60, "explicit", elements=[64])
        nsc = count_near_squares(A, A, Fraction(1, 2))
        assert rounded_values(nsc) == [(64, 1)]
        assert almost_prime_count(nsc, 5, table_22k).multiset_count == 0
        assert almost_prime_count(nsc, 6, table_22k).multiset_count == 1

    def test_against_naive_recount(self, table_22k):
        A = generate_subset(2000, "bernoulli", density=0.5, seed=21)
        B = generate_subset(2000, "bernoulli", density=0.5, seed=22)
        nsc = count_near_squares(A, B, Fraction(1, 100))
        ap = almost_prime_count(nsc, 6, table_22k)
        # naive oracle: float enumeration plus per-value trial division
        total = 0
        for a in A.elements:
            t = np.sqrt((int(a) * B.elements).astype(float))
            near = np.abs(t - np.rint(t)) < 0.01
            for l in np.rint(t[near]).astype(int):
                if len(trial_prime_factors(int(l))) <= 6:
                    total += 1
        assert ap.multiset_count == total


class TestWeightedSum:
    def test_prime_entry_weight_one(self, table_22k):
        A = generate_subset(10000, "explicit", elements=[10007])
        nsc = count_near_squares(A, A, Fraction(1, 2))
        assert weighted_sum(nsc, 4, table_22k) == 1

    def test_two_mid_range_factors_weight_zero(self, table_22k):
        # N = 10^4, k = 4: mid-range primes satisfy p^15 >= N and p^4 < N,
        # i.e. p in {2, 3, 5, 7}; the entry 10014 = 2 * 3 * 1669 carries
        # exactly two of them, so its weight is 1 - 2/2 = 0
        A = generate_subset(10000, "explicit", elements=[10014])
        nsc = count_near_squares(A, A, Fraction(1, 2))
        assert rounded_values(nsc) == [(10014, 1)]
        assert weighted_sum(nsc, 4, table_22k) == 0

    def test_value_against_direct_enumeration(self, table_22k):
        A = generate_subset(1500, "bernoulli", density=0.7, seed=31)
        B = generate_subset(1500, "bernoulli", density=0.7, seed=32)
        nsc = count_near_squares(A, B, Fraction(1, 16))
        N = 1500
        for k in (4, 5):
            got = weighted_sum(nsc, k, table_22k)
            assert got == weighted_oracle(rounded_values(nsc), N, k)

    def test_squarefree_chain(self, table_22k):
        A = generate_subset(1200, "bernoulli", density=0.9, seed=41)
        B = generate_subset(1200, "bernoulli", density=0.9, seed=42)
        nsc = count_near_squares(A, B, Fraction(1, 10))
        for k in (4, 5):
            w_sq = weighted_sum(nsc, k, table_22k, squarefree_only=True)
            ap = almost_prime_count(nsc, k, table_22k)
            assert Fraction(ap.multiset_count) >= w_sq

    def test_order_validation(self, table_22k):
        A = generate_subset(100, "full")
        nsc = count_near_squares(A, A, Fraction(1, 4))
        with pytest.raises(InvalidArgumentError):
            weighted_sum(nsc, 3, table_22k)


class TestFactorPass:
    """The one spf lookup behind prime_factor_steps against trial division."""

    @given(
        st.integers(2, 20_000),
        st.lists(st.floats(0.0, 1.0), max_size=60),
        st.integers(4, 14),
        st.floats(2.0, 200.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_spf_and_trial_division_agree_with_oracles(self, N, spots, k, z):
        roots = [N + int(x * (N + 2)) for x in spots]  # in [N, 2N + 2], the table's top edge
        nsc = roots_count(N, roots)
        table = build_prime_table(2 * N + 2)
        values = rounded_values(nsc)
        factors = {l: trial_prime_factors(l) for l, _ in values}
        sifted = sum(m for l, m in values if factors[l][0] >= z)
        almost = [(l, m) for l, m in values if len(factors[l]) <= k]
        assert sifting_function(nsc, z, table) == sifted
        ap = almost_prime_count(nsc, k, table)
        assert ap.multiset_count == sum(m for _, m in almost)
        assert ap.distinct_count == len(almost)
        for squarefree_only in (False, True):
            assert weighted_sum(nsc, k, table, squarefree_only) == weighted_oracle(
                values, N, k, squarefree_only
            )

    @pytest.mark.parametrize("N", [40_000, 150_000])
    def test_lower_threshold_above_two_agrees_with_oracles(self, N):
        # above 2^15 the weighted sum skips every even root (lo = 3); at
        # N = 40,000 and k = 14 its prime range lo <= p < hi is empty
        rng = np.random.default_rng(N)
        roots = rng.integers(N, 2 * N + 3, size=400).tolist()
        # prime squares above hi for every k, a 3^2 below it, and the top edge
        roots += [-(-N // p**2) * p**2 for p in (127, 211)] + [9 * (N // 9 + 1), 2 * N + 1]
        nsc = roots_count(N, roots)
        table = build_prime_table(2 * N + 2)
        values = rounded_values(nsc)
        for k in range(4, 15):
            for squarefree_only in (False, True):
                assert weighted_sum(nsc, k, table, squarefree_only) == weighted_oracle(
                    values, N, k, squarefree_only
                )
        assert 2**15 < 40_000 <= 3**14  # lo = hi = 3 there
        omega = {l: len(trial_prime_factors(l)) for l, _ in values}
        for k in (0, 1, 2, 6, 20):
            ap = almost_prime_count(nsc, k, table)
            assert ap.multiset_count == sum(m for l, m in values if omega[l] <= k)
            assert ap.distinct_count == sum(1 for l, _ in values if omega[l] <= k)

    def test_almost_prime_walk_stops_when_empty(self, monkeypatch):
        # k = 10^9 takes no more steps than the largest Omega
        N = 40_000
        nsc = roots_count(N, [N, 2**16, 3**10, 2 * N + 1])
        table = build_prime_table(2 * N + 2)
        steps = []
        walk = experiments.prime_factor_steps

        def counted(*args):
            for step in walk(*args):
                steps.append(step)
                yield step

        monkeypatch.setattr(experiments, "prime_factor_steps", counted)
        ap = almost_prime_count(nsc, 10**9, table)
        assert (ap.multiset_count, ap.distinct_count) == (4, 4)
        assert len(steps) == 16  # Omega(2^16)
        assert almost_prime_count(nsc, 0, table).multiset_count == 0

    def test_coverage_error_beyond_limit_squared(self):
        nsc = roots_count(100, [101])  # 101 > 10**2
        table = build_prime_table(10)
        with pytest.raises(CoverageError):
            sifting_function(nsc, 3.0, table)
        with pytest.raises(CoverageError):
            almost_prime_count(nsc, 6, table)
        with pytest.raises(CoverageError):
            weighted_sum(nsc, 4, table)


class TestResidual:
    def test_zero_when_count_matches_main_term(self):
        A = generate_subset(120, "full")
        nsc = count_near_squares(A, A, Fraction(1, 2))
        # H = |A||B| and X = 2 * (1/2) * |A||B| coincide exactly
        assert normalized_residual(A, A, Fraction(1, 2), nsc=nsc) == 0.0

    def test_bounded_on_modest_instance(self):
        A = generate_subset(1000, "full")
        nsc = count_near_squares(A, A, Fraction(1, 20))
        r = normalized_residual(A, A, Fraction(1, 20), nsc=nsc)
        assert abs(r) <= 1.0

    def test_undefined_for_empty_set(self):
        A = generate_subset(100, "full")
        empty = generate_subset(100, "explicit", elements=[])
        for X, Y in ((A, empty), (empty, A)):
            nsc = count_near_squares(X, Y, Fraction(1, 20))
            assert normalized_residual(X, Y, Fraction(1, 20), nsc=nsc) is None

    def test_rejects_a_count_of_other_sets_or_window(self):
        A = generate_subset(100, "full")
        B = generate_subset(100, "explicit", elements=[101, 150])
        nsc = count_near_squares(A, B, Fraction(1, 20))
        assert normalized_residual(A, B, "1/20", nsc=nsc) is not None
        # the float 0.05 snaps to its binary value, which is not 1/20
        for args in ((A, B, 0.05), (A, B, Fraction(1, 10)), (B, A, Fraction(1, 20)),
                     (A, A, Fraction(1, 20)),
                     (generate_subset(101, "full"), B, Fraction(1, 20))):
            with pytest.raises(InvalidArgumentError):
                normalized_residual(*args, nsc=nsc)

    def test_main_term_regime_flag(self):
        A = generate_subset(1000, "full")
        assert main_term_dominant(A, A)
        thin = generate_subset(1000, "explicit", elements=[1001, 1500, 2000])
        assert not main_term_dominant(thin, thin)
