import math
from fractions import Fraction

import numpy as np
import pytest

from nearsq.constants import (
    RegimeParams,
    alpha_level,
    delta_range,
    k_min,
    sieve_lower_constant,
    weighted_sieve_constant,
)
from nearsq.errors import InvalidArgumentError, RegimeError
from nearsq.sievefn import lower_closed

from conftest import gauss_legendre, nested_weighted_constant


def in_range(r, delta):
    """Whether ``delta`` lies in the half-open admissible interval ``r``."""
    return (r.lo < delta or (delta == r.lo and r.lo_inclusive)) and delta < r.hi


def _single_integral_forms(delta, k, j, log=np.log):
    """(printed, re-derived) C(delta, k) from the three single integrals, each
    evaluated by the quadrature ``j(fn, a, b)`` with the logarithm ``log``."""
    c = 5 - 10 * delta
    top = c - 1
    pref = 6 / (1 - 2 * delta)
    ratio = top / (c - 15 / k) * (15 / k)

    def jlog(arg):
        return j(lambda s: log(s - 1) / s * log(arg(s)), 2, top - 1)

    shared = log(top) + jlog(lambda s: top / (s + 1)) - log(ratio) / 2
    printed = pref * (shared - jlog(lambda s: top * c / (s + 1) - 1) / 2)
    rederived = pref * (shared - jlog(lambda s: top * (top - s) / (s + 1)) / 2)
    return printed, rederived


class TestOrderThreshold:
    def test_balanced_sets_small_delta(self):
        assert k_min(RegimeParams(1, 1, 0)) == 6

    def test_exact_transition_at_1_14(self):
        assert k_min(RegimeParams(1, 1, Fraction(1, 14))) == 7

    def test_float_delta(self):
        assert k_min(RegimeParams(1, 1, 0.07)) == 6

    def test_regime_error(self):
        with pytest.raises(RegimeError):
            k_min(RegimeParams(Fraction(2, 3), Fraction(2, 3), Fraction(1, 4)))

    def test_monotone_in_delta(self):
        ks = [k_min(RegimeParams(1, 1, Fraction(j, 100))) for j in range(0, 45)]
        assert all(b >= a for a, b in zip(ks, ks[1:]))

    def test_antitone_in_size_exponent(self):
        ks = [
            k_min(RegimeParams(Fraction(s, 100), Fraction(s, 100), Fraction(1, 100)))
            for s in range(70, 101, 2)
        ]
        assert all(b <= a for a, b in zip(ks, ks[1:]))


class TestLevelExponent:
    def test_balanced_value(self):
        assert alpha_level(RegimeParams(1, 1, 0)) == Fraction(1, 6)

    def test_eps_subtraction(self):
        a = alpha_level(RegimeParams(1, 1, 0, Fraction(1, 100)))
        assert a == Fraction(1, 6) - Fraction(1, 100)

    def test_in_unit_interval(self):
        for s in (70, 80, 90, 100):
            a = alpha_level(RegimeParams(Fraction(s, 100), Fraction(s, 100), Fraction(1, 50)))
            assert 0 < a <= 1

    def test_regime_error_when_eps_dominates(self):
        with pytest.raises(RegimeError):
            alpha_level(RegimeParams(Fraction(35, 100), Fraction(35, 100), 0, Fraction(1, 2)))

    def test_boundary_alpha_near_zero(self):
        # size exponents just over 2/3 leave alpha barely positive, and any
        # slack larger than that margin trips the regime check
        eta = Fraction(2, 3) + Fraction(1, 100)
        assert 0 < alpha_level(RegimeParams(eta, eta, 0)) < Fraction(1, 100)
        with pytest.raises(RegimeError):
            alpha_level(RegimeParams(eta, eta, 0, Fraction(1, 100)))


class TestDeltaRange:
    def test_order_six(self):
        r = delta_range(6, 1, 1)
        assert (r.lo, r.hi, r.lo_inclusive) == (Fraction(0), Fraction(1, 14), False)
        assert not in_range(r, 0)
        assert in_range(r, Fraction(1, 20))
        assert not in_range(r, Fraction(1, 14))

    def test_order_seven(self):
        r = delta_range(7, 1, 1)
        assert (r.lo, r.hi, r.lo_inclusive) == (Fraction(1, 14), Fraction(1, 8), True)
        assert in_range(r, Fraction(1, 14))

    def test_order_two_empty(self):
        assert delta_range(2, 1, 1).is_empty

    def test_consecutive_orders_tile_exactly(self):
        for k in range(7, 20):  # unclipped region for eta = beta = 1
            assert delta_range(k, 1, 1).hi == delta_range(k + 1, 1, 1).lo

    def test_invalid_order(self):
        with pytest.raises(InvalidArgumentError):
            delta_range(0, 1, 1)


class TestSieveLowerConstant:
    def test_balanced_case_closed_form(self):
        rep = sieve_lower_constant(RegimeParams(1, 1, 0))
        assert rep.k == 6
        assert rep.sieve_argument == pytest.approx(7 / 3, abs=1e-14)
        # f(7/3) = 2 e^gamma log(4/3) / (7/3); constant collapses to 12 log(4/3)
        assert lower_closed(rep.sieve_argument) == pytest.approx(0.4391850894806785, abs=1e-12)
        assert rep.constant_value == pytest.approx(12 * math.log(4 / 3), abs=1e-12)

    def test_documented_approximations(self):
        rep = sieve_lower_constant(RegimeParams(1, 1, 0))
        assert lower_closed(rep.sieve_argument) == pytest.approx(0.4391, abs=1e-4)
        assert rep.constant_value == pytest.approx(3.452, abs=1e-3)

    def test_argument_exactly_two_is_regime_error(self):
        # eps = 1/42 makes alpha*(k+1)*(eta+beta-delta) land exactly on 2
        with pytest.raises(RegimeError):
            sieve_lower_constant(RegimeParams(1, 1, 0, Fraction(1, 42)))

    def test_argument_above_two_whenever_hypothesis_holds(self):
        # with zero slack the argument (k+1) * D exceeds 2 strictly because
        # k = floor(2/D); positive constant follows on the whole grid
        for se in range(137, 201, 4):
            for d100 in range(0, 40, 5):
                params = RegimeParams(
                    Fraction(se, 200), Fraction(se, 200), Fraction(d100, 100)
                )
                if not params.hypothesis_satisfied():
                    continue
                rep = sieve_lower_constant(params)
                assert rep.sieve_argument > 2
                assert rep.constant_value > 0


class TestWeightedConstant:
    def test_regression_value(self):
        rep = weighted_sieve_constant(0.005, 4)
        assert rep.value == pytest.approx(0.1751955528, abs=1e-6)
        assert rep.value_unsimplified == pytest.approx(0.6305080525, abs=1e-6)
        assert rep.flagged

    def test_printed_and_rederived_forms_disagree_by_fixed_gap(self):
        # the final printed integrand drops a factor: its log argument exceeds
        # the direct evaluation's by exactly 3 - 10 delta, so the printed
        # value undershoots; the re-derived form is the faithful one
        rep = weighted_sieve_constant(0.01, 5)
        assert rep.discrepancy > 0.01
        assert rep.flagged

    def test_unsimplified_against_term_identity(self):
        for delta, k in ((0.05, 5), (0.002, 4), (0.09, 5), (0.0121, 4)):
            rep = weighted_sieve_constant(delta, k)
            assert rep.value_unsimplified == pytest.approx(
                nested_weighted_constant(delta, k), abs=1e-9
            )

    def test_small_delta_matches_zero_delta_formula(self):
        # at delta -> 0 the k = 5 constant reduces to
        # 6 (log 4 + J1 - log(6)/2 - J2/2) with J1, J2 the delta = 0 integrals,
        # evaluated here by the independent 64-node Gauss-Legendre rule
        j1 = gauss_legendre(lambda s: np.log(s - 1) / s * np.log(4.0 / (s + 1.0)), 2.0, 3.0)
        j2 = gauss_legendre(
            lambda s: np.log(s - 1) / s * np.log(20.0 / (s + 1.0) - 1.0), 2.0, 3.0
        )
        closed = 6.0 * (math.log(4.0) + j1 - 0.5 * math.log(6.0) - 0.5 * j2)
        rep = weighted_sieve_constant(1e-9, 5)
        assert rep.value == pytest.approx(closed, abs=1e-6)

    def test_adaptive_vs_gauss_rules_agree(self):
        # the library's 48-node rule against the independent 64-node one
        for delta, k in ((0.05, 5), (0.0121, 4)):
            rep = weighted_sieve_constant(delta, k)
            printed, rederived = _single_integral_forms(delta, k, gauss_legendre)
            assert rep.value == pytest.approx(printed, abs=1e-13)
            assert rep.value_unsimplified == pytest.approx(rederived, abs=1e-13)

    def test_criterion_1_minimiser_against_mpmath(self):
        # delta = 0.0121 minimises the printed form on the criterion 1 grid
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            printed, rederived = _single_integral_forms(
                mpmath.mpf("0.0121"), 4, lambda fn, a, b: mpmath.quad(fn, [a, b]), mpmath.log
            )
        rep = weighted_sieve_constant(0.0121, 4)
        assert printed > mpmath.mpf("0.0023205")
        assert abs(rep.value - printed) < 1e-10
        assert abs(rep.value_unsimplified - rederived) < 1e-10

    @pytest.mark.parametrize("delta, k", [("0.0121", 4), ("0.0001", 4), ("0.05", 5), ("0.099", 5)])
    def test_both_forms_against_mpmath(self, delta, k):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            printed, rederived = _single_integral_forms(
                mpmath.mpf(delta), k, lambda fn, a, b: mpmath.quad(fn, [a, b]), mpmath.log
            )
        rep = weighted_sieve_constant(float(delta), k)
        assert abs(rep.value - printed) < 1e-14
        assert abs(rep.value_unsimplified - rederived) < 1e-14
        assert rep.quad_error < 1e-14

    def test_quad_error_covers_every_integral(self):
        tol = 1e-9
        for delta, k in ((0.0121, 4), (0.05, 5), (0.099, 5)):
            rep = weighted_sieve_constant(delta, k, tol=tol)
            assert 0.0 < rep.quad_error <= 3 * tol

    def test_continuity_in_delta(self):
        for k in (4, 5):
            vals = [weighted_sieve_constant(1e-3 + j * 1e-4, k).value for j in range(20)]
            assert all(abs(b - a) <= 0.01 for a, b in zip(vals, vals[1:]))

    def test_regime_validation(self):
        with pytest.raises(RegimeError):
            weighted_sieve_constant(0.2, 4)
        with pytest.raises(InvalidArgumentError):
            weighted_sieve_constant(0.05, 6)


class TestRegimeParams:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            RegimeParams(0, 1, 0)
        with pytest.raises(InvalidArgumentError):
            RegimeParams(1, 1, Fraction(1, 2))
        with pytest.raises(InvalidArgumentError):
            RegimeParams(1, 1, 0, -1)

    def test_hypothesis_check(self):
        assert RegimeParams(1, 1, 0).hypothesis_satisfied()
        assert not RegimeParams(Fraction(1, 2), Fraction(1, 2), 0).hypothesis_satisfied()
