import math

import numpy as np
import pytest

from nearsq.errors import AccuracyError, InvalidArgumentError
from nearsq.quadrature import integrate

from conftest import gauss_legendre, midpoint_rule


def test_linear_exact():
    res = integrate(lambda t: t, 0.0, 1.0, tol=1e-9)
    assert res.value == pytest.approx(0.5, abs=1e-15)
    assert 0.0 < res.error_estimate <= 1e-14  # the rounding bound of the sum


def test_empty_interval():
    res = integrate(lambda t: 1.0 / t, 2.0, 2.0, tol=1e-9)
    assert (res.value, res.error_estimate) == (0.0, 0.0)


def test_reversed_bounds_rejected():
    with pytest.raises(InvalidArgumentError):
        integrate(lambda t: t, 1.0, 0.0, tol=1e-9)
    with pytest.raises(InvalidArgumentError):
        integrate(lambda t: t, 0.0, np.array([1.0, -1.0]), tol=1e-9)


def test_log_ratio_against_midpoint_oracle():
    def fn(t):
        return np.log(t - 1.0) / t

    res = integrate(fn, 2.0, 3.0, tol=1e-9)
    oracle = midpoint_rule(fn, 2.0, 3.0, n=10**6)
    assert res.value == pytest.approx(oracle, abs=1e-6)
    assert res.error_estimate <= 1e-9


def test_oscillatory_accuracy():
    res = integrate(np.sin, 0.0, 2 * math.pi, tol=1e-10)
    assert res.value == pytest.approx(0.0, abs=1e-14)


def test_subdivision_budget_error():
    # the fixed rule has no panels to add: a pole 1e-3 left of the interval
    # leaves |Q_24 - Q_48| at about 0.22, far above any tolerance
    with pytest.raises(AccuracyError, match="estimate 0.22"):
        integrate(lambda t: 1.0 / (t + 1e-3), 0.0, 1.0, tol=1e-9)
    # of two failing rows (about 2.2e-9 and 0.22) the message names the largest
    with pytest.raises(AccuracyError, match="estimate 0.224 "):
        integrate(lambda t: np.stack((1.0 / (t + 0.05), 1.0 / (t + 1e-3))), 0.0, 1.0, tol=1e-12)
    with pytest.raises(AccuracyError):  # a NaN estimate never passes
        integrate(lambda t: np.full_like(t, math.nan), 0.0, 1.0, tol=1e-9)


def test_matches_independent_64_node_rule():
    def fn(t):
        return np.exp(-t) * np.cos(3 * t)

    assert integrate(fn, 0.0, 2.0, tol=1e-12).value == pytest.approx(
        gauss_legendre(fn, 0.0, 2.0), abs=1e-14
    )


def test_array_bounds_agree_row_by_row_with_scalar_calls():
    a = np.array([2.0, 2.0, 2.5, 3.0, 2.0])
    b = np.array([2.0, 3.0, 4.0, 3.5, 2.75])
    k = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    rows = integrate(lambda s: np.log(s - 1.0) / s * np.log(k[:, None] + s), a, b, tol=1e-12)
    assert rows.value.shape == rows.error_estimate.shape == (5,)
    for i in range(5):
        one = integrate(lambda s: np.log(s - 1.0) / s * np.log(k[i] + s), a[i], b[i], tol=1e-12)
        assert isinstance(one.value, float)
        assert rows.value[i] == one.value
        assert rows.error_estimate[i] == one.error_estimate


def test_vector_integrand_agrees_row_by_row_with_scalar_calls():
    # the rows of C(delta, k)'s integrand at delta = 0.0121: log arguments
    # of several magnitudes over one interval, as weighted_sieve_constant has
    top, c, s_hi = 3.879, 4.879, 2.879
    args = (
        lambda s: top / (s + 1.0),
        lambda s: top * c / (s + 1.0) - 1.0,
        lambda s: top * (top - s) / (s + 1.0),
    )
    rows = integrate(
        lambda s: np.log(s - 1.0) / s * np.log(np.stack([h(s) for h in args])), 2.0, s_hi, 1e-12
    )
    assert rows.value.shape == rows.error_estimate.shape == (3,)
    for i, h in enumerate(args):
        one = integrate(lambda s: np.log(s - 1.0) / s * np.log(h(s)), 2.0, s_hi, 1e-12)
        assert isinstance(one.value, float)
        assert rows.value[i] == one.value
        assert rows.error_estimate[i] == one.error_estimate


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_tolerance_must_be_positive_and_finite(tol):
    with pytest.raises(InvalidArgumentError):
        integrate(lambda t: t, 0.0, 1.0, tol=tol)
