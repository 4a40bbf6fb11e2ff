"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria 5, 8 and 9 enumerate millions to billions of pairs and
dominate the runtime; every criterion also checks its stated time budget.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from nearsq.arith import as_fraction, build_prime_table
from nearsq.constants import delta_range, k_min, RegimeParams, weighted_sieve_constant
from nearsq.experiments import (
    almost_prime_count,
    count_near_squares,
    generate_subset,
    normalized_residual,
    sieve_decomposition,
    sifting_function,
    weighted_sum,
)
from nearsq.expsum import (
    bilinear_sum_check,
    build_sawtooth_approximation,
    pair_count,
    quadruple_count,
)
from nearsq.sievefn import EXP_GAMMA, build_sieve_table, lower_closed, upper_closed

from conftest import recount_float


def verdict(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_weighted_constant_order_4():
    """min over the delta grid of C(delta, 4) stays above 0.0023205."""
    t0 = time.perf_counter()
    reports = [weighted_sieve_constant(1e-4 * j, 4, tol=1e-9) for j in range(1, 122)]
    elapsed = time.perf_counter() - t0
    flagged = all(r.flagged for r in reports)
    min_simplified = min(r.value for r in reports)
    min_unsimplified = min(r.value_unsimplified for r in reports)
    # printed and re-derived forms disagree beyond 1e-6, so the reports flag
    # the discrepancy and the criterion is evaluated on the unsimplified form
    ok = flagged and min_unsimplified >= 0.0023205 and elapsed < 60.0
    verdict(
        1,
        ok,
        f"min C(delta,4): unsimplified {min_unsimplified:.7f} >= 0.0023205 "
        f"(printed-form min {min_simplified:.9f}, discrepancy flagged on all "
        f"121 grid points), {elapsed:.1f}s < 60s",
    )
    # the printed formula's own infimum matches its claimed bound as well,
    # with headroom beyond the library's own error bound: each form is pref
    # times a sum of the integrals with coefficients at most 1 in size
    assert min_simplified >= 0.0023205
    worst = max(6.0 / (1.0 - 2.0 * r.delta) * r.quad_error for r in reports)
    assert min_simplified - 0.0023205 > worst, (min_simplified, worst)


def test_criterion_2_weighted_constant_order_5():
    """C(delta, 5) positive on the whole admissible grid."""
    t0 = time.perf_counter()
    reports = [weighted_sieve_constant(1e-3 * j, 5, tol=1e-9) for j in range(1, 100)]
    elapsed = time.perf_counter() - t0
    pos_unsimplified = all(r.value_unsimplified > 0 for r in reports)
    pos_simplified = all(r.value > 0 for r in reports)
    ok = pos_unsimplified and pos_simplified and elapsed < 60.0
    verdict(
        2,
        ok,
        f"C(delta,5) > 0 on all 99 grid points (min unsimplified "
        f"{min(r.value_unsimplified for r in reports):.6f}, min printed "
        f"{min(r.value for r in reports):.6f}), {elapsed:.1f}s < 60s",
    )


def test_criterion_3_order_thresholds_exact():
    """Almost-prime order thresholds in exact rational arithmetic."""
    deltas = [Fraction(j, 1000) for j in range(1, 72)]
    deltas.append(Fraction(1, 14) - Fraction(1, 10**6))
    ok = all(k_min(RegimeParams(1, 1, d)) == 6 for d in deltas)
    ok = ok and k_min(RegimeParams(1, 1, Fraction(1, 14))) == 7
    rng = delta_range(6, 1, 1)
    ok = ok and (rng.lo, rng.hi, rng.lo_inclusive) == (
        Fraction(0),
        Fraction(1, 14),
        False,
    )
    verdict(
        3,
        ok,
        "k_min(1,1,delta) = 6 on (0, 1/14), 7 at 1/14; admissible interval "
        "for order 6 is exactly (0, 1/14)",
    )


def test_criterion_4_sieve_function_suite():
    """Density-pair table: monotonicity, gap, branch agreement, reference values."""
    mp = pytest.importorskip("mpmath")
    t0 = time.perf_counter()
    table = build_sieve_table(10.0, step=1e-3, tol=1e-6)
    up, lo = table.upper_values, table.lower_values
    mono = bool(np.all(np.diff(up) < 0) and np.all(np.diff(lo) >= 0))
    gap = bool(np.all(up - lo > 0))

    # branch agreement: closed-vs-closed across the formula seams at 3 and 4,
    # independent delayed marching against the closed forms at 5 and 6
    def march(start_u, y0, delayed_fn, targets, h=1e-3):
        y, u, out = y0, start_u, {}
        steps = round((max(targets) - start_u) / h)
        for i in range(steps):
            y += h / 2 * (delayed_fn(u - 1) + delayed_fn(u + h - 1))
            u = start_u + (i + 1) * h
            for tgt in targets:
                if abs(u - tgt) < 1e-9:
                    out[tgt] = y / u
        return out

    agree = [
        abs(upper_closed(3 - 1e-9) - upper_closed(3 + 1e-9)),
        abs(lower_closed(4 - 1e-9) - lower_closed(4 + 1e-9)),
    ]
    up_m = march(3.0, 3.0 * upper_closed(3.0), lower_closed, (4.0, 5.0))
    agree += [abs(up_m[4.0] - upper_closed(4.0)), abs(up_m[5.0] - upper_closed(5.0))]
    lo_m = march(4.0, 4.0 * lower_closed(4.0), upper_closed, (5.0, 6.0))
    agree += [abs(lo_m[5.0] - lower_closed(5.0)), abs(lo_m[6.0] - lower_closed(6.0))]
    branch_ok = max(agree) <= 1e-6

    mp.mp.dps = 25
    ref_f2 = float(2 * mp.e**mp.euler / 2)
    ref_f4 = float(mp.e**mp.euler / 2 * mp.log(3))
    refs_ok = (
        abs(upper_closed(2.0) - ref_f2) < 1e-9 and abs(lower_closed(4.0) - ref_f4) < 1e-9
    )
    elapsed = time.perf_counter() - t0
    ok = mono and gap and branch_ok and refs_ok and elapsed < 30.0
    verdict(
        4,
        ok,
        f"grid [2,10]: F strictly decreasing / f non-decreasing ({mono}), "
        f"F-f > 0 ({gap}), branch agreement max {max(agree):.2e} <= 1e-6, "
        f"F(2) and f(4) within 1e-9 of 25-digit references, {elapsed:.1f}s < 30s",
    )


def _criterion5_instances():
    for N in (10**3, 5 * 10**3, 10**4):
        yield N, generate_subset(N, "full"), generate_subset(N, "full")
        for seed in range(10):
            yield (
                N,
                generate_subset(N, "bernoulli", density=0.9, seed=seed),
                generate_subset(N, "bernoulli", density=0.9, seed=1000 + seed),
            )


def test_criterion_5_main_term_residuals():
    """Normalized residual bounded by 1; exact counter matches float recounts."""
    t0 = time.perf_counter()
    worst = 0.0
    recount_checks = 0
    for N, A, B in _criterion5_instances():
        for delta_str in ("0.5", "0.1", "0.05"):
            delta = as_fraction(delta_str)
            nsc = count_near_squares(A, B, delta)
            res = normalized_residual(A, B, delta, nsc=nsc)
            worst = max(worst, abs(res))
            assert abs(res) <= 1.0, (N, delta_str, res)
            if nsc.boundary_margin > 1e-6:
                recount_checks += 1
                assert recount_float(A, B, delta) == nsc.H_count, (N, delta_str)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and elapsed < 600.0
    verdict(
        5,
        ok,
        f"99 instances (N up to 1e4, full and bernoulli(0.9) x 10 seeds, "
        f"three windows): max |residual| = {worst:.4f} <= 1, float recount "
        f"agreed on all {recount_checks} well-separated instances, "
        f"{elapsed:.0f}s < 600s",
    )


def test_criterion_6_sieve_identities_exact():
    """Decomposition identity, sifting chain, and weighted chain, all exact."""
    t0 = time.perf_counter()
    instances = 0
    for N in (1000, 5000):
        table = build_prime_table(2 * N + 2)
        sets = [
            (generate_subset(N, "full"), generate_subset(N, "full")),
            (
                generate_subset(N, "bernoulli", density=0.8, seed=5),
                generate_subset(N, "bernoulli", density=0.6, seed=6),
            ),
        ]
        for A, B in sets:
            for delta in (Fraction(1, 2), Fraction(1, 20), as_fraction(float(N) ** -0.05)):
                instances += 1
                nsc = count_near_squares(A, B, delta)
                dec = sieve_decomposition(nsc, len(A), len(B), 100)
                for d in range(1, 101):
                    assert Fraction(dec.counts[d]) == dec.X / d + dec.remainders[d]
                for k in (4, 5, 6):
                    z = (3.0 * N) ** (1.0 / (k + 1))
                    s = sifting_function(nsc, z, table)
                    ap = almost_prime_count(nsc, k, table)
                    assert s <= ap.multiset_count <= nsc.H_count, (N, k)
                for k in (4, 5):
                    w_sq = weighted_sum(nsc, k, table, squarefree_only=True)
                    ap = almost_prime_count(nsc, k, table)
                    assert Fraction(ap.multiset_count) >= w_sq, (N, k)
    elapsed = time.perf_counter() - t0
    verdict(
        6,
        True,
        f"{instances} instances: counts[d] = X/d + r[d] exactly for d <= 100, "
        f"sifted <= almost-prime count <= total, almost-prime count >= "
        f"squarefree weighted sum for k in {{4, 5}}, {elapsed:.0f}s",
    )


def test_criterion_7_sawtooth_contract():
    """Pointwise envelope, kernel nonnegativity, 2/H coefficient bound."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240517)
    details = []
    ok = True
    for H in (2, 10, 100):
        ap = build_sawtooth_approximation(H)
        t = rng.random(10_000)
        saw = t - np.floor(t) - 0.5
        err = np.abs(saw - ap.main_term(t))
        kern = ap.error_kernel(t)
        envelope = bool(np.all(err <= kern + 1e-12))
        nonneg = float(kern.min()) >= -1e-12
        # the envelope must absorb the sawtooth's unit jump, so its pointwise
        # sup is 1/2 at integers for every admissible construction; the 1/H
        # smallness is carried by its coefficients, measured here
        coeff_sup = float(ap.v_coeffs.max())
        coeff_ok = coeff_sup <= 2.0 / H
        ok = ok and envelope and nonneg and coeff_ok
        details.append(f"H={H}: sup v = {coeff_sup:.4f} <= {2.0 / H:.3f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    verdict(
        7,
        ok,
        "envelope and nonnegativity hold at 10^4 random points for H in "
        f"{{2, 10, 100}}; kernel coefficients obey the 2/H bound "
        f"({'; '.join(details)}), {elapsed:.1f}s < 10s",
    )


# regression thresholds frozen from the first green run of the doubling sweeps
QUADRUPLE_SWEEP_COUNTS = {4: 28, 8: 128, 16: 540, 32: 2384}
BILINEAR_SWEEP_RATIOS = {4: 0.237297, 8: 0.215248, 16: 0.186360, 32: 0.168926}


def test_criterion_8_oscillation_bound_empirics():
    """Pair-count constant 1; doubling sweeps with non-increasing ratios."""
    t0 = time.perf_counter()
    prng = random.Random(42)
    worst_pair = 0.0
    for i in range(50):
        N = prng.randint(300, 3000)
        B = generate_subset(N, "bernoulli", density=prng.uniform(0.2, 1.0), seed=i)
        X = prng.uniform(1.0, 2 * math.sqrt(2 * N))
        rec = pair_count(B, X)
        worst_pair = max(worst_pair, rec.ratio)
        assert rec.ratio <= 1.0

    quad_ratios = []
    for m in (4, 8, 16, 32):
        rec = quadruple_count(m, m, 1e-6, 0.5, 0.5)
        assert rec.measured_value == QUADRUPLE_SWEEP_COUNTS[m]
        assert math.isfinite(rec.ratio)
        quad_ratios.append(rec.ratio)
    quad_mono = all(b <= a for a, b in zip(quad_ratios, quad_ratios[1:]))

    bil_ratios = []
    for n in (4, 8, 16, 32):
        A = generate_subset(n, "full")
        rec = bilinear_sum_check(2, A, A, weights="adversarial")
        assert math.isfinite(rec.ratio)
        assert rec.ratio == pytest.approx(BILINEAR_SWEEP_RATIOS[n], abs=1e-4)
        bil_ratios.append(rec.ratio)
    bil_mono = all(b <= a for a, b in zip(bil_ratios, bil_ratios[1:]))

    elapsed = time.perf_counter() - t0
    ok = quad_mono and bil_mono and elapsed < 300.0
    verdict(
        8,
        ok,
        f"pair-count ratio <= 1 on 50 instances (worst {worst_pair:.3f}); "
        f"quadruple ratios {['%.3f' % r for r in quad_ratios]} and bilinear "
        f"ratios {['%.3f' % r for r in bil_ratios]} non-increasing along the "
        f"doubling sweep, {elapsed:.0f}s < 300s",
    )


def test_criterion_9_remainder_decay_trend():
    """Scaled remainder maximum non-increasing across N for window N^-0.05."""
    t0 = time.perf_counter()
    stats = []
    for N in (10**3, 10**4, 10**5):
        delta = as_fraction(float(N) ** -0.05)
        A = generate_subset(N, "full")
        nsc = count_near_squares(A, A, delta, max_pairs=2 * 10**10)
        dec = sieve_decomposition(nsc, len(A), len(A), 50)
        stats.append(dec.scaled_remainder_max())
    trend = all(b <= 1.1 * a for a, b in zip(stats, stats[1:]))
    elapsed = time.perf_counter() - t0
    ok = trend and elapsed < 600.0
    verdict(
        9,
        ok,
        f"max_d<=50 d|r|/X = {['%.5f' % s for s in stats]} non-increasing "
        f"within 10% across N in {{1e3, 1e4, 1e5}}, {elapsed:.0f}s < 600s",
    )
