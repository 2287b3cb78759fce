import itertools
import math
import time
import warnings

import numpy as np
import pytest

from mimocov import (
    ADHOC,
    CELLULAR,
    InterfererGainSpec,
    NetworkScenario,
    SignalGainSpec,
    adhoc_entries,
    cellular_entries,
    density_profile,
    validate,
)
from mimocov.errors import NumericalError, ValidationError
from mimocov.series import (
    _EXP_BLOCK,
    _EXP_SEED,
    MAX_ORDER,
    coeff_sum,
    series_exp,
    series_reciprocal,
)
from toeplitz_oracle import (
    recursive_exp,
    recursive_reciprocal,
    toeplitz_exp_nilpotent,
    toeplitz_reciprocal,
)

# every order up to 40, and each side of the Newton doubling's power-of-two edges
RECIPROCAL_ORDERS = list(range(1, 41)) + [63, 64, 65, 127, 128, 129, 255, 256, 257, 511, 512]
# every order up to 40, and each side of the scalar seed's edge and of the
# first five, a middle and the last two block edges
EXP_EDGES = range(_EXP_SEED, MAX_ORDER, _EXP_BLOCK)
EXP_ORDERS = sorted(set(range(1, 41)).union(
    e + d for e in [*EXP_EDGES[:5], EXP_EDGES[len(EXP_EDGES) // 2], *EXP_EDGES[-2:]]
    for d in (-1, 0, 1)
).union([MAX_ORDER]))


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


@pytest.fixture(scope="module")
def cellular_entry_grid():
    """Order-512 cellular entries over alpha x tau x kappa (27 scenarios)."""
    grid = []
    for alpha, tau, kappa in itertools.product((2.5, 4.0, 8.0), (1e-3, 1.0, 1e3), (0.5, 1.0, 4.0)):
        bundle = validate(NetworkScenario(kind=CELLULAR, lam=1e-3, alpha=alpha, threshold=tau),
                          SignalGainSpec(shape=MAX_ORDER), InterfererGainSpec(kappa=kappa, beta=1.0))
        grid.append(cellular_entries(bundle, MAX_ORDER).values)
    return grid


def test_reciprocal_of_cellular_entries_matches_the_recursion(cellular_entry_grid):
    # one-signed sums keep every coefficient to its relative accuracy, however
    # deep; a coefficient of order m is the same number at every longer order
    for c in cellular_entry_grid:
        full = series_reciprocal(c)
        for m in RECIPROCAL_ORDERS:
            b = series_reciprocal(c[:m])
            ref = recursive_reciprocal(c[:m])
            assert np.all(b >= 0.0)
            kept = ref > 1e-290
            np.testing.assert_allclose(b[kept], ref[kept], rtol=1e-13, atol=0.0)
            np.testing.assert_array_equal(b, full[:m])


def test_reciprocal_coefficients_do_not_depend_on_the_order(cellular_entry_grid):
    # the "valid" first product and the spare residual term of the second
    # are what keep b_n the same float at every order; check every order
    # from 1 to 512, not only the edges of the doubling
    for c in (cellular_entry_grid[0], cellular_entry_grid[13], cellular_entry_grid[26]):
        full = series_reciprocal(c)
        for m in range(1, MAX_ORDER + 1):
            np.testing.assert_array_equal(series_reciprocal(c[:m]), full[:m], err_msg=f"M = {m}")


def test_reciprocal_of_mixed_signs_matches_toeplitz_solve():
    rng = np.random.default_rng(5)
    c = rng.normal(size=MAX_ORDER)
    c[0] = 1.5
    ref = toeplitz_reciprocal(c)
    np.testing.assert_allclose(series_reciprocal(c), ref, rtol=0.0,
                               atol=1e-12 * np.max(np.abs(ref)))


def _count_calls(monkeypatch, names):
    """Count calls to the named numpy functions from here on."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(np, name)

        def counting(*args, name=name, fn=fn, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(np, name, counting)
    return calls


def test_reciprocal_makes_logarithmically_many_convolutions(monkeypatch):
    # the convolutions run as np.correlate on reversed views
    calls = _count_calls(monkeypatch, ("correlate", "convolve", "dot"))
    c = np.full(MAX_ORDER, -0.5 / MAX_ORDER)
    c[0] = 1.0
    for m in range(1, 9):
        series_reciprocal(c[:m])
    assert calls == {"correlate": 0, "convolve": 0, "dot": 0}
    series_reciprocal(c)
    assert 0 < calls["correlate"] <= 2 * math.ceil(math.log2(MAX_ORDER / 8))
    assert calls["convolve"] == 0
    assert calls["dot"] == 0


@pytest.fixture(scope="module")
def adhoc_entry_grid():
    """Order-512 ad hoc entries over alpha x lambda x kappa x noise (36 scenarios,
    mu from 0.03 to 129)."""
    grid = []
    for alpha, lam, kappa, noise in itertools.product((2.5, 4.0, 8.0), (0.01, 0.3, 3.0),
                                                      (0.5, 4.0), (0.0, 0.5)):
        bundle = validate(NetworkScenario(kind=ADHOC, lam=lam, alpha=alpha, threshold=1.0,
                                          r0=1.0, noise=noise),
                          SignalGainSpec(shape=MAX_ORDER), InterfererGainSpec(kappa=kappa, beta=1.0))
        grid.append(adhoc_entries(bundle, MAX_ORDER).values)
    return grid


def test_exp_of_adhoc_entries_matches_the_recursion(adhoc_entry_grid):
    # one-signed sums keep every coefficient to its relative accuracy, however
    # deep; a coefficient of order m is the same number at every longer order,
    # which the CLI antenna sweep relies on.  The reference's coefficient n is
    # one n-term inner product, the same at every order, so it is taken once.
    for t in adhoc_entry_grid:
        full = series_exp(t)
        ref = recursive_exp(t)
        assert np.all(full >= 0.0)
        kept = ref > 1e-290
        for m in EXP_ORDERS:
            p = series_exp(t[:m])
            np.testing.assert_allclose(p[kept[:m]], ref[:m][kept[:m]], rtol=1e-13, atol=0.0)
            np.testing.assert_array_equal(p, full[:m])


def test_exp_makes_one_convolution_per_block(monkeypatch):
    # the convolutions run as np.correlate on reversed views
    calls = _count_calls(monkeypatch, ("correlate", "convolve", "dot"))
    t = np.full(MAX_ORDER, 0.5 / MAX_ORDER)
    t[0] = -1.0
    for m in range(1, _EXP_SEED + 1):
        series_exp(t[:m])
    assert calls == {"correlate": 0, "convolve": 0, "dot": 0}
    series_exp(t)
    assert 0 < calls["correlate"] <= math.ceil((MAX_ORDER - _EXP_SEED) / _EXP_BLOCK)
    assert calls["convolve"] == 0
    assert calls["dot"] == 0


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
    with pytest.raises(ValidationError):
        series_reciprocal([0.0, 1.0])


def test_non_finite_result_rejected():
    # the recursions check their own output once, in place; an overflow is a
    # NumericalError alone, with no bare OverflowError and no numpy RuntimeWarning.
    # Two exponentials overflow in their last coefficient, past the scalar
    # seed: p_22 = 1e300 is squared into p_44 by a block's convolution, and
    # p_n = 1e15^n / n! overflows at n = 22 inside a block.
    late = np.zeros(45)
    late[22] = 1e300
    steep = np.zeros(23)
    steep[1] = 1e15
    for t in (late, steep):
        recursive_exp(t[:-1])  # finite up to there
        assert t.size - 1 >= _EXP_SEED
    cases = [
        (series_exp, [800.0, 1.0]),
        (series_exp, [0.0, 1e200, 1e200]),
        (series_exp, late),
        (series_exp, steep),
        (series_reciprocal, [1.0, -1e200, 1e200]),
        (series_reciprocal, [1e-300, 1e200, 1e200]),
        (series_reciprocal, [1e-310, 1.0]),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn, coeffs in cases:
            with pytest.raises(NumericalError, match="finite|overflows"):
                fn(coeffs)


@pytest.mark.parametrize("kernel, budget", [("density_profile", 0.1), ("series_exp", 0.03),
                                            ("series_reciprocal", 0.03)])
def test_order_512_kernels_stay_within_loose_wall_clock_budgets(adhoc_entry_grid,
                                                                 cellular_entry_grid,
                                                                 kernel, budget):
    # about 30x the best of 3 on a 2-core host (3 ms, 0.7 ms and 0.1 ms), so
    # host noise passes and only a gross slip fails, such as a Python loop of
    # O(M^3) steps; the dense oracles of toeplitz_oracle (2-20 ms) would pass
    if kernel == "density_profile":
        fn = density_profile
        arg = validate(NetworkScenario(kind=ADHOC, lam=0.05, alpha=4.0, threshold=1.0, r0=1.0),
                       SignalGainSpec(shape=MAX_ORDER), InterfererGainSpec(kappa=1.0, beta=1.0))
    elif kernel == "series_exp":
        fn, arg = series_exp, adhoc_entry_grid[0]
    else:
        fn, arg = series_reciprocal, cellular_entry_grid[13]
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        fn(arg)
        best = min(best, time.perf_counter() - start)
    assert best < budget, f"{kernel} at M = {MAX_ORDER}: best of 3 took {best:.4f}s"
