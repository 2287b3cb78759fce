import math

import numpy as np
import pytest

from mimocov.errors import DomainError, SingularityError
from mimocov.series import (
    MAX_ORDER,
    coeff_sum,
    series,
    series_exp,
    series_reciprocal,
)
from toeplitz_oracle import toeplitz_exp_nilpotent


def test_exp_small_example():
    # exp(1 + z + 1.5 z^2) = e (1 + z + 2 z^2 + ...)
    out = series_exp([1.0, 1.0, 1.5])
    expected = math.e * np.array([1.0, 1.0, 2.0])
    np.testing.assert_allclose(out, expected, rtol=1e-14)


def test_reciprocal_geometric():
    # 1 / (1 - z) = 1 + z + z^2 + ...
    c = np.zeros(8)
    c[0], c[1] = 1.0, -1.0
    np.testing.assert_allclose(series_reciprocal(c), np.ones(8), rtol=1e-14)


def test_reciprocal_small_example():
    np.testing.assert_allclose(series_reciprocal([2.0, 1.0]), [0.5, -0.25], rtol=1e-15)


def test_reciprocal_inverts_convolution():
    rng = np.random.default_rng(5)
    c = rng.normal(size=12)
    c[0] = 1.5
    b = series_reciprocal(c)
    product = np.convolve(c, b)[:12]
    expected = np.zeros(12)
    expected[0] = 1.0
    np.testing.assert_allclose(product, expected, atol=1e-13)


def test_exp_matches_toeplitz_route():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = int(rng.integers(1, 20))
        t = rng.normal(scale=0.8, size=m)
        np.testing.assert_allclose(series_exp(t), toeplitz_exp_nilpotent(t),
                                   rtol=1e-12, atol=1e-300)


def test_exp_homomorphism():
    # exp(s + t) = exp(s) * exp(t) as truncated series
    rng = np.random.default_rng(7)
    s = rng.normal(size=10)
    t = rng.normal(size=10)
    both = series_exp(s + t)
    product = np.convolve(series_exp(s), series_exp(t))[:10]
    np.testing.assert_allclose(both, product, rtol=1e-12)


def test_exp_of_positive_tail_stays_positive():
    # entries with a negative head and positive tail (the ad hoc pattern)
    # produce strictly positive coefficients
    t = np.array([-2.0, 0.9, 0.4, 0.2, 0.05])
    assert np.all(series_exp(t) > 0.0)


def test_coeff_sum():
    assert coeff_sum([0.25, 0.5, 0.125]) == pytest.approx(0.875)


def test_reciprocal_zero_head_rejected():
    with pytest.raises(SingularityError):
        series_reciprocal([0.0, 1.0])


def test_non_finite_result_rejected():
    # the recursions check their own output once, in place
    with np.errstate(over="ignore"):
        with pytest.raises(DomainError, match="finite"):
            series_exp([0.0, 1e200, 1e200])
        with pytest.raises(DomainError, match="finite"):
            series_reciprocal([1.0, -1e200, 1e200])


def test_series_validation():
    with pytest.raises(DomainError):
        series([])
    with pytest.raises(DomainError):
        series([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(DomainError):
        series([1.0, math.nan])
    with pytest.raises(DomainError):
        series(np.ones(MAX_ORDER + 1))


def test_series_returns_fresh_copy():
    src = np.array([1.0, 2.0])
    out = series(src)
    out[0] = 9.0
    assert src[0] == 1.0
