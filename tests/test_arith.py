import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearsq.arith import (
    PRIME_TABLE_BUDGET,
    PrimeTable,
    as_fraction,
    build_prime_table,
    near_square_roots,
    prime_factor_steps,
)
from nearsq.errors import BudgetError, CoverageError, InvalidArgumentError

from conftest import factor_signature


def step_signatures(values, table):
    """(Omega, nu, mu, tau) of every entry of ``values``, from the steps of
    ``prime_factor_steps``: a step repeats a prime when its p equals the
    entry's previous one, which the step's own repeat flag must say too."""
    values = np.asarray(values, dtype=np.int64)
    omega, nu, exp, prev = (np.zeros(len(values), dtype=np.int64) for _ in range(4))
    tau = np.ones(len(values), dtype=np.int64)
    square = np.zeros(len(values), dtype=bool)
    for index, p, repeat in prime_factor_steps(values, table):
        new = p != prev[index]
        assert np.array_equal(repeat, ~new)
        e = np.where(new, 0, exp[index])
        tau[index] = tau[index] // (e + 1) * (e + 2)
        exp[index] = e + 1
        omega[index] += 1
        nu[index] += new
        square[index] |= ~new
        prev[index] = p
    mu = np.where(square, 0, (-1) ** nu)
    return list(zip(omega.tolist(), nu.tolist(), mu.tolist(), tau.tolist()))


def trial_division_spf(limit):
    """Oracle: spf[n] for 2 <= n <= limit as the least d >= 2 dividing n, by
    trial division with every d up to sqrt(limit); n with none is prime."""
    n = np.arange(limit + 1)
    spf = n.copy()
    for d in range(math.isqrt(limit), 1, -1):
        spf[(n % d == 0) & (n > d)] = d
    return spf


def oracle_signature(n):
    sig = factor_signature(n)
    return (sig.Omega, sig.nu, sig.mu, sig.tau)


def table_primes(table):
    """The primes up to the table's limit: the n >= 2 with spf[n] == n."""
    n = np.arange(2, table.limit + 1)
    return n[table.spf[2:] == n]


class TestPrimeTable:
    def test_fields(self):
        assert [f.name for f in dataclasses.fields(PrimeTable)] == ["limit", "spf"]

    def test_first_primes(self):
        assert table_primes(build_prime_table(10)).tolist() == [2, 3, 5, 7]

    def test_boundary(self):
        assert table_primes(build_prime_table(2)).tolist() == [2]

    def test_invalid_limit(self):
        with pytest.raises(InvalidArgumentError):
            build_prime_table(1)

    def test_prime_count_to_million_against_trial_division(self):
        table = build_prime_table(10**6)
        # oracle: mark multiples of every d >= 2 starting at 2d (no prime
        # skipping, no p*p start), i.e. vectorized trial division
        limit = 10**6
        composite = np.zeros(limit + 1, dtype=bool)
        for d in range(2, limit // 2 + 1):
            composite[2 * d :: d] = True
        oracle = int(np.count_nonzero(~composite[2:]))
        assert len(table_primes(table)) == oracle == 78498

    def test_spf_divides_and_is_minimal(self, table_100k):
        spf = table_100k.spf
        for n in range(2, 5000):
            p = int(spf[n])
            assert n % p == 0
            for q in range(2, p):
                assert n % q != 0

    def test_trial_division_matches_spf(self):
        # 99_999 and 9_998 are not perfect squares; 9_409 = 97^2 ends on a
        # prime square, so the sieve's last prime is isqrt(limit) itself
        for limit in (99_999, 9_998, 9_409):
            table = build_prime_table(limit)
            oracle = trial_division_spf(limit)
            assert table.spf.dtype == np.int32
            assert np.array_equal(table.spf[2:], oracle[2:])
            oracle_primes = np.flatnonzero(oracle == np.arange(limit + 1))[2:]
            assert np.array_equal(table_primes(table), oracle_primes)

    def test_lookup_edges(self, table_100k):
        assert list(prime_factor_steps([], table_100k)) == []
        # entries <= 1 take no step; 100_000 takes its first at p = 2
        (index, p, repeat), *_ = prime_factor_steps([1, 0, 100_000], table_100k)
        assert (index.tolist(), p.tolist(), repeat.tolist()) == ([2], [2], [False])
        with pytest.raises(CoverageError, match="prime table limit 100000 cannot factor 100001"):
            next(prime_factor_steps([4, 100_001], table_100k))

    def test_every_small_limit_matches_trial_division(self):
        # the odd-multiple sieve at limits whose top is even, odd, prime or a
        # prime square
        oracle = trial_division_spf(1999)
        for limit in range(2, 2000):
            assert np.array_equal(build_prime_table(limit).spf, oracle[: limit + 1])

    def test_below_ends_each_walk_at_its_first_large_prime(self, table_100k):
        values = np.arange(1, 5001)
        full = {}
        for index, p, _ in prime_factor_steps(values, table_100k):
            for i, q in zip(index.tolist(), p.tolist()):
                full.setdefault(i, []).append(q)
        for below in (2, 3, 7, 10, 71, 10**6):
            cut = {}
            for index, p, _ in prime_factor_steps(values, table_100k, below):
                for i, q in zip(index.tolist(), p.tolist()):
                    cut.setdefault(i, []).append(q)
            want = {}
            for i, ps in full.items():
                large = [j for j, q in enumerate(ps) if q >= below]
                want[i] = ps[: large[0] + 1] if large else ps
            assert cut == want

    def test_allocates_only_spf(self):
        # the sieve works in place: no mask, no primes array, no temporaries
        # beyond 256 KiB
        tracemalloc.start()
        try:
            table = build_prime_table(10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table.spf.nbytes + (256 << 10)

    def test_budget_raises_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError):
                build_prime_table(PRIME_TABLE_BUDGET + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestFactorSignature:
    def test_twelve(self, table_100k):
        assert step_signatures([12], table_100k) == [(3, 2, 0, 6)] == [oracle_signature(12)]

    def test_one(self, table_100k):
        assert step_signatures([1], table_100k) == [(0, 0, 1, 1)] == [oracle_signature(1)]

    def test_primorial(self, table_100k):
        assert step_signatures([210], table_100k) == [(4, 4, 1, 16)] == [oracle_signature(210)]

    def test_against_trial_division_to_1e5(self, table_100k):
        values = range(1, 10**5 + 1)
        assert step_signatures(values, table_100k) == [oracle_signature(n) for n in values]

    def test_coverage_error(self):
        table = build_prime_table(10)
        with pytest.raises(CoverageError):
            step_signatures([10_007 * 10_009], table)

    @given(st.integers(2, 2000), st.integers(2, 2000))
    @settings(max_examples=60, deadline=None)
    def test_multiplicativity_on_coprime_pairs(self, m, n):
        if math.gcd(m, n) != 1:
            return
        table = build_prime_table(m * n)
        sm, sn, smn = step_signatures([m, n, m * n], table)
        assert smn[3] == sm[3] * sn[3]  # tau
        assert smn[2] == sm[2] * sn[2]  # mu
        assert smn[0] == sm[0] + sn[0]  # Omega


class TestAlmostPrime:
    def test_examples(self, table_100k):
        (omega_64, *_), (omega_30030, *_) = step_signatures([64, 30030], table_100k)
        assert omega_64 <= 6
        assert not omega_64 <= 5
        assert omega_30030 <= 6


class TestNearSquareRoots:
    @given(st.integers(0, 10**6), st.integers(1, 120), st.integers(1, 100))
    @settings(max_examples=300, deadline=None)
    def test_against_fraction_oracle(self, m, num, den):
        got = near_square_roots(m, num, den)
        window = Fraction(num, den)
        expected = []
        lo = max(math.isqrt(m) - num // den - 3, 0)
        for l in range(lo, math.isqrt(m) + num // den + 3):
            wlo = Fraction(l) - window
            if m < (Fraction(l) + window) ** 2 and (wlo < 0 or m > wlo**2):
                expected.append(l)
        assert got == expected

    def test_exact_boundary_excluded(self):
        # sqrt(m) exactly at distance num/den: m=4, window 1 around l=3 is
        # |2-3|=1, not < 1
        assert 3 not in near_square_roots(4, 1, 1)


class TestAsFraction:
    def test_forms(self):
        assert as_fraction("0.05") == Fraction(1, 20)
        assert as_fraction(Fraction(3, 7)) == Fraction(3, 7)
        assert as_fraction(2) == Fraction(2)
        assert float(as_fraction(0.1)) == 0.1

    def test_rejects_nan(self):
        with pytest.raises(InvalidArgumentError):
            as_fraction(float("nan"))

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1/0", "abc", ""])
    def test_rejects_unparseable_strings(self, text):
        with pytest.raises(InvalidArgumentError):
            as_fraction(text)
