import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from nearsq.arith import build_prime_table
from nearsq.errors import (
    AccuracyError,
    BudgetError,
    CoverageError,
    InvalidArgumentError,
    RangeError,
)
from nearsq.sievefn import (
    _SLICE,
    EULER_GAMMA,
    EXP_GAMMA,
    _validate_table,
    build_sieve_table,
    lower_closed,
    mertens_product,
    upper_closed,
)

from conftest import midpoint_rule, nested_lower, pointwise_march


class TestClosedForms:
    def test_upper_at_2(self):
        assert upper_closed(2.0) == pytest.approx(EXP_GAMMA, abs=1e-12)

    def test_upper_at_3_branch_agreement(self):
        # elementary branch just below 3, integral branch just above
        below = upper_closed(3.0 - 1e-9)
        above = upper_closed(3.0 + 1e-9)
        assert abs(below - above) <= 1e-6
        assert upper_closed(3.0) == pytest.approx(2 * EXP_GAMMA / 3, abs=1e-12)

    def test_upper_at_4_against_midpoint_oracle(self):
        oracle = midpoint_rule(lambda t: np.log(t - 1.0) / t, 2.0, 3.0, n=10**6)
        assert upper_closed(4.0) == pytest.approx(EXP_GAMMA / 2 * (1 + oracle), abs=1e-6)

    def test_upper_range_errors(self):
        for bad in (0.0, -1.0, 5.1, math.nan, np.array([4.0, math.nan])):
            with pytest.raises(RangeError):
                upper_closed(bad)

    def test_closed_forms_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            two_eg = 2 * mpmath.exp(mpmath.euler)

            def g(s):
                return mpmath.log(s - 1) / s

            for j in range(1, 26):
                u = 3.0 + 2.0 * j / 25
                ref = two_eg / u * (1 + mpmath.quad(g, [2, u - 1]))
                assert abs(upper_closed(u) - ref) < 1e-14
                u = 4.0 + 2.0 * j / 25
                inner = mpmath.quad(lambda s: g(s) * mpmath.log((u - 1) / (s + 1)), [2, u - 2])
                ref = two_eg / u * (mpmath.log(u - 1) + inner)
                assert abs(lower_closed(u) - ref) < 1e-14

    def test_lower_zero_region(self):
        assert lower_closed(1.0) == 0.0
        assert lower_closed(2.0) == 0.0

    def test_lower_at_3_against_rk4_oracle(self):
        # independent oracle: classical RK4 on y' = 2 e^gamma/(u-1), y(2) = 0,
        # where y = u * lower(u)
        h = 1e-3

        def rhs(u):
            return 2 * EXP_GAMMA / (u - 1.0)

        y, u = 0.0, 2.0
        for _ in range(1000):
            k1 = rhs(u)
            k2 = rhs(u + h / 2)
            k4 = rhs(u + h)
            y += h / 6 * (k1 + 4 * k2 + k4)
            u += h
        assert lower_closed(3.0) == pytest.approx(y / 3.0, abs=1e-9)
        assert lower_closed(3.0) == pytest.approx(2 * EXP_GAMMA * math.log(2) / 3, abs=1e-12)

    def test_lower_at_4_branch_agreement(self):
        below = lower_closed(4.0 - 1e-9)
        above = lower_closed(4.0 + 1e-9)
        assert abs(below - above) <= 1e-6
        assert lower_closed(4.0) == pytest.approx(EXP_GAMMA / 2 * math.log(3), abs=1e-12)

    def test_lower_single_integral_matches_nested_oracle(self):
        for u in (4.0 + 1e-9, 4.3, 4.75, 5.0, 5.5, 5.9, 6.0):
            assert lower_closed(u) == pytest.approx(nested_lower(u), abs=1e-12)

    def test_lower_continuous_at_2(self):
        assert lower_closed(2.0 + 1e-9) == pytest.approx(0.0, abs=1e-8)

    def test_lower_range_error(self):
        for bad in (6.5, math.nan, np.array([5.0, 6.5])):
            with pytest.raises(RangeError):
                lower_closed(bad)

    def test_array_and_scalar_calls_agree(self):
        u = np.array([0.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0])
        low = lower_closed(u)
        assert [lower_closed(float(x)) for x in u] == low.tolist()
        assert [upper_closed(float(x)) for x in u[u <= 5.0]] == upper_closed(u[u <= 5.0]).tolist()


class TestTable:
    def test_overlap_consistency(self, sieve_table_10):
        t = sieve_table_10
        i5 = round(3.0 / t.grid_step)
        i6 = round(4.0 / t.grid_step)
        assert t.upper_values[i5] == pytest.approx(upper_closed(5.0), abs=1e-9)
        assert t.lower_values[i6] == pytest.approx(lower_closed(6.0), abs=1e-6)

    def test_closed_region_equals_closed_forms_exactly(self, sieve_table_10):
        t = sieve_table_10
        up, lo = t.grid <= 5.0, t.grid <= 6.0
        assert np.array_equal(t.upper_values[up], upper_closed(t.grid[up]))
        assert np.array_equal(t.lower_values[lo], lower_closed(t.grid[lo]))
        # queries in the closed region go through the same closed forms
        for i in (1001, 2250, 3000):
            assert t.upper(t.grid[i]) == t.upper_values[i]
        for i in (2001, 3250, 3999):
            assert t.lower(t.grid[i]) == t.lower_values[i]

    def test_closed_region_query(self, sieve_table_10):
        assert sieve_table_10.upper(2.5) == pytest.approx(2 * EXP_GAMMA / 2.5, abs=1e-12)

    def test_minimal_horizon_build(self):
        table = build_sieve_table(6.0, step=1e-3, tol=1e-6)
        i5 = round(3.0 / table.grid_step)
        assert table.upper_values[i5] == pytest.approx(upper_closed(5.0), abs=1e-9)
        assert table.lower_values[-1] == pytest.approx(lower_closed(6.0), abs=1e-6)

    def test_limits_at_10(self, sieve_table_10):
        assert abs(sieve_table_10.upper_values[-1] - 1.0) < 1e-3
        assert abs(sieve_table_10.lower_values[-1] - 1.0) < 1e-3

    def test_monotonicity_and_gap(self, sieve_table_10):
        up = sieve_table_10.upper_values
        lo = sieve_table_10.lower_values
        assert np.all(np.diff(up) < 0)
        assert np.all(np.diff(lo) >= 0)
        assert np.all(up - lo > 0)

    def test_limit_deviation_shrinks_from_8_to_12(self):
        table = build_sieve_table(12.0, step=1e-3, tol=1e-6)
        devs = []
        for u in (8.0, 10.0, 12.0):
            i = round((u - 2.0) / table.grid_step)
            devs.append(
                max(abs(table.upper_values[i] - 1.0), abs(table.lower_values[i] - 1.0))
            )
        assert devs[0] > devs[1] > devs[2]

    def test_interpolation_consistent_across_steps(self):
        t1 = build_sieve_table(8.0, step=1e-3, tol=1e-6)
        t2 = build_sieve_table(8.0, step=2e-3, tol=1e-6)
        for u in (5.5, 6.283, 7.123):
            assert t1.upper(u) == pytest.approx(t2.upper(u), abs=1e-6)
            assert t1.lower(u) == pytest.approx(t2.lower(u), abs=1e-6)

    @pytest.mark.parametrize("u_max, step", [
        *itertools.product((6.0, 6.5, 7.3, 12.0), (1e-3, 2e-3, 1 / 128, 0.01)),
        (6.998, 1e-3),  # the last block of 999 points ends on the last grid point
        (150.0, 1e-3),  # three grid chunks of whole blocks
    ])
    def test_block_march_equals_pointwise_march(self, u_max, step):
        table = build_sieve_table(u_max, step=step, tol=1e-3)
        upper, lower = pointwise_march(u_max, step)
        assert np.array_equal(table.upper_values, upper)
        assert np.array_equal(table.lower_values, lower)

    def test_build_keeps_no_full_length_temporary(self):
        # 10^6 + 1 points: a full-length grid or np.diff temporary would add
        # 8 MB beside the two 8 MB value arrays; the closed forms' quadrature
        # peaks at 3.3 MB whatever u_max is
        tracemalloc.start()
        try:
            table = build_sieve_table(1002.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * table.upper_values.nbytes + (4 << 20)

    def test_validation_reads_across_slice_boundaries(self):
        table = build_sieve_table(150.0)  # 148,001 points, three slices
        assert len(table.upper_values) > 2 * _SLICE
        _validate_table(table)
        for i in (_SLICE - 1, _SLICE, _SLICE + 1, 2 * _SLICE):
            up, lo = table.upper_values.copy(), table.lower_values.copy()
            up[i] = up[i - 1] + 1e-11
            with pytest.raises(AccuracyError, match="upper density samples"):
                _validate_table(dataclasses.replace(table, upper_values=up))
            lo[i] = lo[i - 1] - 1e-11
            with pytest.raises(AccuracyError, match="lower density samples"):
                _validate_table(dataclasses.replace(table, lower_values=lo))
            lo = table.lower_values.copy()
            lo[i:] += 1e-10  # still non-decreasing, but above upper at the tail
            with pytest.raises(AccuracyError, match="positivity gap"):
                _validate_table(dataclasses.replace(table, lower_values=lo))

    def test_step_too_coarse(self):
        with pytest.raises(AccuracyError):
            build_sieve_table(10.0, step=0.01, tol=1e-9)

    def test_validation_errors(self):
        with pytest.raises(InvalidArgumentError):
            build_sieve_table(5.0)
        with pytest.raises(InvalidArgumentError):
            build_sieve_table(10.0, step=0.02)
        for u_max, step, tol in ((math.nan, 1e-3, 1e-6), (math.inf, 1e-3, 1e-6),
                                 (10.0, math.nan, 1e-6), (10.0, 1e-3, math.nan),
                                 (10.0, 1e-3, math.inf), (10.0, 1e-3, 0.0),
                                 # steps that do not divide 1
                                 (8.0, 7e-4, 1e-6), (10.0, 0.003, 1e-6)):
            with pytest.raises(InvalidArgumentError):
                build_sieve_table(u_max, step=step, tol=tol)

    def test_nan_query_rejected(self, sieve_table_10):
        for query in (sieve_table_10.upper, sieve_table_10.lower):
            with pytest.raises(RangeError):
                query(math.nan)

    def test_csv_dump(self, sieve_table_10, tmp_path):
        path = tmp_path / "table.csv"
        sieve_table_10.dump_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "u,F,f"
        assert len(lines) == len(sieve_table_10.upper_values) + 1


class TestMertens:
    def test_empty_product(self, table_100k):
        assert mertens_product(2.0, table_100k).exact == 1

    def test_single_factor(self, table_100k):
        assert mertens_product(3.0, table_100k).exact == Fraction(1, 2)

    def test_z10_against_direct_product(self, table_100k):
        m = mertens_product(10.0, table_100k)
        direct = Fraction(1, 1)
        for p in (2, 3, 5, 7):
            direct *= Fraction(p - 1, p)
        assert m.exact == direct == Fraction(8, 35)
        assert m.value == pytest.approx(8 / 35)

    def test_coverage_error(self):
        table = build_prime_table(50)
        with pytest.raises(CoverageError):
            mertens_product(1000.0, table)

    def test_z_budget(self, table_100k):
        with pytest.raises(BudgetError):
            mertens_product(2e6, table_100k)

    def test_invalid_z(self, table_100k):
        for z in (1.5, math.nan, -math.inf):
            with pytest.raises(InvalidArgumentError):
                mertens_product(z, table_100k)

    @staticmethod
    def _oracle(z, table) -> Fraction:
        # the route without cancellation: one gcd over the two full products
        num = den = 1
        for p in range(2, math.ceil(z)):
            if table.spf[p] == p:  # p is prime
                num, den = num * (p - 1), den * p
        return Fraction(num, den)

    def test_lowest_terms_against_the_gcd_route(self, table_100k):
        primes = (2, 3, 5, 7, 251, 1999, 7919)
        zs = [*range(2, 2001), 2.5, *(p + 0.5 for p in primes)]
        for z in zs:
            m = mertens_product(float(z), table_100k)
            assert math.gcd(m.numerator, m.denominator) == 1, z
            assert m.exact == self._oracle(z, table_100k), z
            assert m.value == float(m.exact), z

    def test_lowest_terms_at_200k(self):
        table = build_prime_table(200_000)
        m = mertens_product(2e5, table)
        exact = self._oracle(2e5, table)
        assert (m.numerator, m.denominator) == (exact.numerator, exact.denominator)
        assert m.value == float(exact)

    def test_asymptotic_convergence(self, table_100k):
        devs = []
        for z in (10**3, 10**4, 10**5):
            m = mertens_product(float(z), table_100k)
            assert 0.8 <= m.ratio <= 1.2
            devs.append(abs(m.ratio - 1.0))
        assert devs[0] > devs[1] > devs[2]
