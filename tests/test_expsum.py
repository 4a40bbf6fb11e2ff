import math
import os
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearsq import expsum
from nearsq.errors import BudgetError, InvalidArgumentError
from nearsq.experiments import CELLS, generate_subset
from nearsq.expsum import (
    bilinear_sum_check,
    build_sawtooth_approximation,
    pair_count,
    quadruple_count,
)


def sawtooth(t):
    return t - np.floor(t) - 0.5


def per_term_bilinear(H0, A, B, d, weights):
    """measured_value of bilinear_sum_check with one np.mod, one complex
    np.exp and one np.sum per (h, a): the reference for the row tiles."""
    sums = []
    for h in range(H0 + 1, 2 * H0 + 1):
        res, ims = [], []
        for a in A.elements:
            z = np.exp(2j * math.pi * np.mod(h * np.sqrt(float(a) * B.elements) / d, 1.0))
            res.append(float(np.sum(z.real)))
            ims.append(float(np.sum(z.imag)))
        sums.append(complex(math.fsum(res), math.fsum(ims)))
    if weights == "unit":
        return abs(complex(math.fsum(s.real for s in sums), math.fsum(s.imag for s in sums)))
    return math.fsum(abs(s) for s in sums)


SHAPES = ["ragged", "long-rows", "single-a", "same-sets"]


def tile_shape(shape):
    """The subsets A and B of one row-tile shape of bilinear_sum_check."""
    if shape == "ragged":  # |B| = 3000: tiles of 5 rows and a last one of 2
        B = generate_subset(3000, "full")
        A = generate_subset(3000, "explicit", elements=B.elements[::431])
        assert len(A) % (CELLS // len(B)) == 2
    elif shape == "long-rows":  # |B| > CELLS: every tile is one row
        B = generate_subset(CELLS + 600, "full")
        A = generate_subset(CELLS + 600, "explicit", elements=B.elements[[0, 777, -1]])
    elif shape == "single-a":
        B = generate_subset(5000, "bernoulli", density=0.6, seed=4)
        A = generate_subset(5000, "explicit", elements=[7777])
    else:  # |A| = |B| = 173: a tile of 94 rows and a last one of 79
        A = B = generate_subset(4000, "bernoulli", density=0.05, seed=8)
    return A, B


def direct_quadruples(M, N, theta, alpha_exp, beta_exp):
    """Quadruples counted pair by pair with the window test of quadruple_count."""
    m = np.arange(M, 2 * M, dtype=np.float64)
    n = np.arange(N, 2 * N, dtype=np.float64)
    xs = ((m[None, :] / m[:, None]) ** alpha_exp).ravel()
    ys = ((n[None, :] / n[:, None]) ** beta_exp).ravel()
    lo, hi = xs[:, None] - theta, xs[:, None] + theta
    return int(np.count_nonzero((lo < ys) & (ys < hi)))


class TestSawtoothApproximation:
    def test_rejects_small_cutoff(self):
        with pytest.raises(InvalidArgumentError):
            build_sawtooth_approximation(1)

    def test_pointwise_contract_at_half(self):
        ap = build_sawtooth_approximation(2)
        t = 0.5
        assert abs(sawtooth(t) - ap.main_term(t)) <= ap.error_kernel(t) + 1e-12

    @pytest.mark.parametrize("H", [2, 10, 100])
    def test_envelope_on_random_points(self, H):
        ap = build_sawtooth_approximation(H)
        rng = np.random.default_rng(20240517)
        t = rng.random(10_000)
        err = np.abs(sawtooth(t) - ap.main_term(t))
        kern = ap.error_kernel(t)
        assert np.all(err <= kern + 1e-12)
        assert np.min(kern) >= -1e-12

    @pytest.mark.parametrize("H", [2, 10, 100])
    def test_coefficient_decay(self, H):
        ap = build_sawtooth_approximation(H)
        h = np.arange(1, H + 1)
        # main coefficients of size 1/h: measured constant below 1/(2 pi)
        assert np.all(np.abs(ap.u_coeffs) <= ap.c1 / h + 1e-15)
        assert ap.c1 <= 1 / (2 * math.pi) + 1e-9
        # envelope coefficients of size 1/H: measured constant below 1/2
        assert np.all(ap.v_coeffs <= ap.c2 / H + 1e-15)
        assert ap.c2 <= 0.5

    def test_conjugate_symmetry_makes_main_real(self):
        ap = build_sawtooth_approximation(16)
        rng = np.random.default_rng(3)
        for t in rng.random(20):
            full = sum(
                ap.u_coeffs[h - 1] * np.exp(2j * math.pi * h * t)
                + np.conj(ap.u_coeffs[h - 1]) * np.exp(-2j * math.pi * h * t)
                for h in range(1, 17)
            )
            assert abs(full.imag) < 1e-12
            assert full.real == pytest.approx(ap.main_term(t), abs=1e-12)

    def test_error_kernel_mean_scales_inverse_h(self):
        # kernel mean equals v(0) = 1/(2H+2); the H = 10 -> 100 ratio sits
        # squarely inside the expected inverse-H window
        rng = np.random.default_rng(999)
        t = rng.random(10_000)
        saw = sawtooth(t)
        mean_err = {}
        for H in (10, 100):
            ap = build_sawtooth_approximation(H)
            mean_err[H] = float(np.mean(np.abs(saw - ap.main_term(t))))
        ratio = mean_err[10] / mean_err[100]
        assert 5.0 <= ratio <= 20.0

    def test_kernel_peak_is_one_half_at_integers(self):
        # any envelope dominating the unit jump of the sawtooth peaks at 1/2
        # near integers; the 1/H smallness holds for coefficients and mean
        for H in (2, 10, 100):
            ap = build_sawtooth_approximation(H)
            assert ap.error_kernel(0.0) == pytest.approx(0.5, abs=1e-12)
            assert abs(float(np.mean(ap.error_kernel(np.linspace(0, 1, 1000, endpoint=False))))) <= 2.0 / H


class TestQuadrupleCount:
    def test_single_cell(self):
        rec = quadruple_count(1, 1, 0.5, 0.5, 0.5)
        assert rec.measured_value == 1.0

    def test_saturation(self):
        # window wider than the whole ratio range counts every quadruple
        rec = quadruple_count(3, 5, 2 ** 0.5 + 2 ** 0.5, 0.5, 0.5)
        assert rec.measured_value == (3 * 5) ** 2

    def test_exact_match_regime_regression(self):
        rec = quadruple_count(8, 8, 1e-6, 0.5, 0.5)
        assert rec.measured_value == 128.0

    @given(st.integers(1, 12), st.integers(1, 12))
    @settings(max_examples=30, deadline=None)
    def test_symmetry_under_argument_swap(self, m, n):
        a = quadruple_count(m, n, 0.01, 0.5, 0.25)
        b = quadruple_count(n, m, 0.01, 0.25, 0.5)
        assert a.measured_value == b.measured_value

    def test_budget_error(self):
        with pytest.raises(BudgetError):
            quadruple_count(200, 200, 0.1, 0.5, 0.5)

    @pytest.mark.parametrize("cells", [1, 7, 40])
    @pytest.mark.parametrize("M,N,theta,alpha,beta", [
        (13, 3, 1e-3, 0.37, 1.3), (6, 11, 0.05, -1.3, 2.5), (9, 9, 1e-6, 0.5, 0.5),
        (1, 40, 1e-3, 0.5, 0.5), (2, 25, 0.02, -0.7, 1.9), (3, 17, 1e-6, 0.5, 0.5),
        (30, 2, 0.01, 1.1, -0.4),
    ])
    def test_row_chunks_match_direct_count(self, monkeypatch, cells, M, N, theta, alpha, beta):
        # chunks of one row, of ragged rows and of whole rows count alike,
        # on the m side and on the n side, however lopsided (M, N) is
        monkeypatch.setattr(expsum, "CELLS", cells)
        assert quadruple_count(M, N, theta, alpha, beta).measured_value == direct_quadruples(
            M, N, theta, alpha, beta)

    def test_lopsided_n_edge_holds_no_square_array(self):
        # M = 1, N = 2000: the N^2 ratios of n would take 32 MB as one sorted
        # array; they are sorted CELLS // N rows at a time
        N, theta = 2000, 1e-3
        tracemalloc.start()
        try:
            rec = quadruple_count(1, N, theta, 0.5, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < N * N  # bytes: an eighth of one N^2 float64 array
        assert rec.measured_value == direct_quadruples(1, N, theta, 0.5, 0.5) > N

    def test_lopsided_edge_holds_no_square_array(self):
        # M = 2000, N = 1: one M^2 float64 array would take 32 MB; the ratios
        # of m are taken CELLS at a time
        M, theta = 2000, 1e-3
        tracemalloc.start()
        try:
            rec = quadruple_count(M, 1, theta, 0.5, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < M * M  # bytes: an eighth of one M^2 float64 array
        assert rec.measured_value == direct_quadruples(M, 1, theta, 0.5, 0.5) > M

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            quadruple_count(4, 4, -1.0, 0.5, 0.5)
        with pytest.raises(InvalidArgumentError):
            quadruple_count(4, 4, 0.1, 0.0, 0.5)
        for theta, alpha, beta in ((math.nan, 0.5, 0.5), (math.inf, 0.5, 0.5),
                                   (0.1, math.nan, 0.5), (0.1, 0.5, math.inf),
                                   (0.1, -math.inf, 0.5)):
            with pytest.raises(InvalidArgumentError):
                quadruple_count(4, 4, theta, alpha, beta)


class TestPairCount:
    def test_singleton(self):
        B = generate_subset(100, "explicit", elements=[150])
        rec = pair_count(B, 5.0)
        assert rec.measured_value == 1.0
        assert rec.bound_value >= 1.0

    def test_large_x_counts_diagonal_only(self):
        B = generate_subset(500, "bernoulli", density=0.5, seed=1)
        rec = pair_count(B, 1e12)
        assert rec.measured_value == len(B)

    def test_full_set_against_direct_oracle(self):
        B = generate_subset(1000, "full")
        X = math.sqrt(2000.0)
        rec = pair_count(B, X)
        roots = np.sqrt(B.elements.astype(float))
        direct = int(np.count_nonzero(np.abs(roots[:, None] - roots[None, :]) < 1 / (2 * X)))
        assert rec.measured_value == direct
        assert rec.ratio <= 1.0

    def test_ratio_never_exceeds_one_on_random_instances(self):
        prng = random.Random(42)
        for i in range(25):
            N = prng.randint(300, 3000)
            B = generate_subset(N, "bernoulli", density=prng.uniform(0.2, 1.0), seed=i)
            X = prng.uniform(1.0, 2 * math.sqrt(2 * N))
            assert pair_count(B, X).ratio <= 1.0

    def test_validation(self):
        B = generate_subset(100, "full")
        for X in (0.5, math.nan, math.inf):
            with pytest.raises(InvalidArgumentError):
                pair_count(B, X)


class TestBilinearSum:
    def test_single_term_has_unit_modulus(self):
        A = generate_subset(100, "explicit", elements=[150])
        rec = bilinear_sum_check(1, A, A)
        assert rec.measured_value == pytest.approx(1.0, abs=1e-12)
        assert rec.bound_value >= 1.0

    def test_full_sets_stay_well_under_bound(self):
        A = generate_subset(2000, "full")
        rec = bilinear_sum_check(4, A, A)
        assert rec.ratio <= 1.0

    def test_modulus_scaling_of_bound(self):
        A = generate_subset(300, "full")
        r1 = bilinear_sum_check(4, A, A, d=1)
        r8 = bilinear_sum_check(4, A, A, d=8)
        expected = (1 + math.sqrt(8 / 4)) / (1 + math.sqrt(1 / 4))
        assert r8.bound_value / r1.bound_value == pytest.approx(expected, rel=1e-12)
        assert r8.ratio <= 1.0

    def test_adversarial_weights_dominate_unit_weights(self):
        A = generate_subset(200, "full")
        unit = bilinear_sum_check(3, A, A, weights="unit")
        adv = bilinear_sum_check(3, A, A, weights="adversarial")
        assert adv.measured_value >= unit.measured_value - 1e-9

    def test_empty_subset_rejected(self):
        # an empty subset makes the bound 0, so no ratio exists
        A = generate_subset(100, "full")
        E = generate_subset(100, "explicit", elements=[])
        with pytest.raises(InvalidArgumentError):
            bilinear_sum_check(4, A, E)

    def test_budget_error(self):
        A = generate_subset(2000, "full")
        with pytest.raises(BudgetError):
            bilinear_sum_check(100, A, A)

    @pytest.mark.parametrize("weights,d", [("unit", 3), ("adversarial", 2)])
    def test_measured_value_independent_of_loop_order(self, weights, d):
        # the block sums taken h by h, one square root per (h, a), as the
        # reference for the single square root per a: fsum is exactly
        # rounded, so the two orders agree bit for bit
        A = generate_subset(300, "bernoulli", density=0.5, seed=1)
        B = generate_subset(300, "bernoulli", density=0.5, seed=2)
        sums = []
        for h in range(4, 7):
            res, ims = [], []
            for a in A.elements:
                z = np.exp(2j * math.pi * np.mod(h * np.sqrt(float(a) * B.elements) / d, 1.0))
                res.append(float(np.sum(z.real)))
                ims.append(float(np.sum(z.imag)))
            sums.append(complex(math.fsum(res), math.fsum(ims)))
        if weights == "unit":
            expect = abs(complex(math.fsum(s.real for s in sums), math.fsum(s.imag for s in sums)))
        else:
            expect = math.fsum(abs(s) for s in sums)
        assert bilinear_sum_check(3, A, B, d=d, weights=weights).measured_value == expect

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_row_tiles_match_per_term_oracle(self, shape, d):
        A, B = tile_shape(shape)
        weights = "unit" if d == 1 else "adversarial"
        rec = bilinear_sum_check(2, A, B, d=d, weights=weights)
        assert rec.measured_value == per_term_bilinear(2, A, B, d, weights)

    @pytest.mark.parametrize("cells", [1, 1000, 7000])
    def test_any_tile_of_whole_rows_gives_the_same_bits(self, monkeypatch, cells):
        # rows of 3000 terms, one or two to a tile; a tile that cut them into
        # pieces of 1000 or 1 would round differently
        A = generate_subset(3000, "bernoulli", density=0.004, seed=3)
        B = generate_subset(3000, "full")
        monkeypatch.setattr(expsum, "CELLS", cells)
        for d in (1, 3):
            for weights in ("unit", "adversarial"):
                rec = bilinear_sum_check(3, A, B, d=d, weights=weights)
                assert rec.measured_value == per_term_bilinear(3, A, B, d, weights)

    def test_tiles_hold_no_full_product_array(self):
        # |A| = |B| = 2000: one |A| x |B| float64 array would take 32 MB
        A = generate_subset(2000, "full")
        tracemalloc.start()
        try:
            bilinear_sum_check(1, A, A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(A) * len(A)  # bytes: an eighth of that array

    def test_deterministic(self):
        A = generate_subset(150, "bernoulli", density=0.7, seed=5)
        a = bilinear_sum_check(2, A, A)
        b = bilinear_sum_check(2, A, A)
        assert a.measured_value == b.measured_value


class TestBilinearWorkers:
    """Row tiles dealt to one worker per CPU of the affinity set."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        def set_cpus(n):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        return set_cpus

    @pytest.fixture
    def thread_starts(self, monkeypatch):
        starts = []
        real_start = threading.Thread.start

        def start(thread):
            starts.append(thread)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        return starts

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("n_cpus", [1, 2, 3])
    def test_any_worker_count_gives_the_oracle_bits(self, cpus, thread_starts, n_cpus, shape, d):
        # 2, 3, 1 and 2 tiles: single-a and same-sets have fewer tiles than
        # 3 workers, and a lone tile starts no thread at all
        A, B = tile_shape(shape)
        tiles = -(-len(A) // max(1, CELLS // len(B)))
        cpus(n_cpus)
        weights = "unit" if d == 1 else "adversarial"
        before = threading.active_count()
        rec = bilinear_sum_check(2, A, B, d=d, weights=weights)
        assert threading.active_count() == before
        assert len(thread_starts) == min(n_cpus, tiles) - 1
        assert rec.measured_value == per_term_bilinear(2, A, B, d, weights)

    def test_more_workers_than_cores_at_a_short_switch_interval(self, cpus):
        # six tiles of rows to six workers, switching every microsecond: a row
        # sum lost or written to another row's slot would change the bits
        A = generate_subset(300, "full")
        cpus(8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rec = bilinear_sum_check(2, A, A, weights="adversarial")
        finally:
            sys.setswitchinterval(interval)
        assert rec.measured_value == per_term_bilinear(2, A, A, 1, "adversarial")

    @pytest.mark.parametrize("where", ["thread", "caller"])
    def test_a_worker_exception_reaches_the_caller_after_every_join(
            self, cpus, thread_starts, monkeypatch, where):
        real = expsum._tile_sums

        def tile_sums(*args):
            if (threading.current_thread() is threading.main_thread()) == (where == "caller"):
                raise RuntimeError(f"share of the {where}")
            real(*args)

        A, B = tile_shape("long-rows")  # three tiles of one row
        cpus(3)
        monkeypatch.setattr(expsum, "_tile_sums", tile_sums)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"share of the {where}"):
            bilinear_sum_check(2, A, B)
        assert len(thread_starts) == 2
        assert not any(t.is_alive() for t in thread_starts)
        assert threading.active_count() == before

    def test_the_other_workers_stop_at_their_next_tile(self, cpus, thread_starts, monkeypatch):
        # A = full set at N = 300: six tiles, three to the caller.  The thread
        # raises on its first tile once the caller is inside its own first
        # tile, which waits for the thread to end: the caller then sees the
        # failure before its second tile.
        real = expsum._tile_sums
        caller_tiles, caller_in_tile = [], threading.Event()

        def tile_sums(*args):
            if threading.current_thread() is not threading.main_thread():
                caller_in_tile.wait(timeout=10)
                raise RuntimeError("share of the thread")
            caller_in_tile.set()
            thread_starts[0].join(timeout=10)
            assert not thread_starts[0].is_alive()
            caller_tiles.append(args[0][0])
            real(*args)

        A = generate_subset(300, "full")
        cpus(2)
        monkeypatch.setattr(expsum, "_tile_sums", tile_sums)
        with pytest.raises(RuntimeError, match="share of the thread"):
            bilinear_sum_check(2, A, A)
        assert caller_tiles == [A.elements[0]]

    def test_a_thread_that_will_not_start_stops_the_others(self, cpus, monkeypatch):
        real_start = threading.Thread.start
        started = []

        def start(thread):
            if started:
                raise RuntimeError("can't start new thread")
            started.append(thread)
            real_start(thread)

        A, B = tile_shape("long-rows")
        cpus(3)
        monkeypatch.setattr(threading.Thread, "start", start)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="can't start new thread"):
            bilinear_sum_check(2, A, B)
        assert not started[0].is_alive()
        assert threading.active_count() == before
