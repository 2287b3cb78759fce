import math

import numpy as np
import pytest
import scipy.optimize
import scipy.special

from mimocov import (
    DensityProfile,
    InterfererGainSpec,
    adhoc_peak_bound,
    cellular_decay_rate,
    coverage,
    density_profile,
    improvement_sequence,
    outage_decay_check,
)
from mimocov import insights, specfun
from mimocov.analytic import adhoc_entries
from mimocov.errors import MimocovError, NumericalError, ValidationError
from closed_form_oracle import adhoc_pbar_bessel, adhoc_pbar_closed_form


# ---------------------------------------------------------------------------
# density profile


def _power_convolution_betas(bundle):
    # Reference construction: betas[j] is the coefficient sum of S^j / j!,
    # with S the strict per-density entry series, built by M - 1 truncated
    # convolutions.
    m = bundle.signal.shape
    strict = adhoc_entries(bundle, m).values / bundle.scenario.lam
    strict[0] = 0.0
    betas = np.empty(m)
    betas[0] = 1.0
    power = np.zeros(m)
    power[0] = 1.0
    for j in range(1, m):
        power = np.convolve(power, strict)[:m] / j
        betas[j] = power.sum()
    return betas


def _assert_betas_match_power_convolution(bundle):
    betas = density_profile(bundle).betas
    reference = _power_convolution_betas(bundle)
    np.testing.assert_array_equal(betas == 0.0, reference == 0.0)
    resolved = reference > 1e-280
    np.testing.assert_allclose(betas[resolved], reference[resolved], rtol=1e-12)


class TestDensityProfile:
    @pytest.mark.parametrize("alpha", [2.5, 4.0, 6.0])
    @pytest.mark.parametrize("m", [2, 9, 64, 256, 512])
    def test_betas_match_power_convolution(self, adhoc_bundle, m, alpha):
        _assert_betas_match_power_convolution(adhoc_bundle(m=m, alpha=alpha))

    @pytest.mark.parametrize("m", [64, 495, 512])
    def test_betas_match_power_convolution_at_high_c(self, adhoc_bundle, m):
        # c = mu / lam is about 60 at delta about 0.56, like the largest
        # profile of the benchmark's ad hoc deck: every step of the loop
        # runs the whole column, so the zero tail meets large entries
        bundle = adhoc_bundle(m=m, alpha=3.55, r0=1.265, tau=28.9)
        assert 55.0 < -density_profile(bundle).head < 65.0
        _assert_betas_match_power_convolution(bundle)

    @pytest.mark.parametrize("lam", [0.05, 0.3, 1.0])
    def test_reconstructs_coverage_with_512_antennas(self, adhoc_bundle, lam):
        # at 30 dB coverage runs from 0.8 down to 1e-6 over these densities,
        # so the high-order coefficients carry the value
        profile = density_profile(adhoc_bundle(m=512, tau=1e3, lam=0.05))
        direct = coverage(adhoc_bundle(m=512, tau=1e3, lam=lam)).value
        assert profile.coverage_at(lam) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("m, r0, lam", [(512, 30.0, 1e-5), (512, 1e4, 1e-12),
                                            (64, 1e3, 1e-9), (8, 1e154, 1e-300)])
    def test_overflowing_coefficients_raise(self, adhoc_bundle, m, r0, lam):
        # c = mu / lam is about 4.4e3 at r0 = 30, so c^j / j! overflows before
        # j = 512; at r0 = 1e3 it is about 4.9e6 and overflows before j = 64.
        # At r0 = 1e154, c itself is inf, and inf meets the zeros of the
        # column (inf * 0 is nan).  The suite turns any RuntimeWarning into
        # an error, so this also checks that the loop stays silent and the
        # finiteness check decides.
        with pytest.raises(NumericalError, match="overflow"):
            density_profile(adhoc_bundle(m=m, r0=r0, lam=lam))

    def test_rejects_antenna_count_past_supported_order(self, adhoc_bundle):
        with pytest.raises(ValidationError, match="513 exceeds"):
            density_profile(adhoc_bundle(m=513))

    def test_coefficients_are_read_only(self, adhoc_bundle):
        source = np.array([1.0, 0.5, 0.25])
        profile = DensityProfile(head=-1.0, betas=source)
        source[1] = 9.0
        assert profile.betas.tolist() == [1.0, 0.5, 0.25]
        with pytest.raises(ValueError):
            profile.betas[1] = 9.0
        assert profile.coverage_at(2.0) == pytest.approx(math.exp(-2.0) * 3.0)

    def test_non_finite_evaluation_raises(self, adhoc_bundle):
        # exp(head * lam) underflows to 0 where the polynomial overflows
        profile = density_profile(adhoc_bundle(m=512, lam=0.05))
        assert np.all(np.isfinite(profile.betas))
        with pytest.raises(NumericalError, match="not finite"):
            profile.coverage_at(1000.0)
        with pytest.raises(NumericalError, match="not finite"):
            profile.derivative_at(1000.0)

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_reconstructs_pointwise_coverage(self, adhoc_bundle, m):
        profile = density_profile(adhoc_bundle(m=m, lam=0.04))
        for lam in [1e-4, 0.01, 0.2, 1.5]:
            direct = coverage(adhoc_bundle(m=m, lam=lam)).value
            assert profile.coverage_at(lam) == pytest.approx(direct, rel=1e-12)

    def test_profile_independent_of_build_density(self, adhoc_bundle):
        a = density_profile(adhoc_bundle(m=4, lam=1e-3))
        b = density_profile(adhoc_bundle(m=4, lam=0.7))
        assert a.head == pytest.approx(b.head, rel=1e-12)
        np.testing.assert_allclose(a.betas, b.betas, rtol=1e-11)

    def test_leading_polynomial_coefficient_is_one(self, adhoc_bundle):
        assert density_profile(adhoc_bundle(m=6)).betas[0] == 1.0

    def test_monotone_decreasing_and_convex(self, adhoc_bundle):
        profile = density_profile(adhoc_bundle(m=3))
        grid = np.geomspace(1e-3, 2.0, 40)
        vals = np.array([profile.coverage_at(g) for g in grid])
        assert np.all(np.diff(vals) < 0.0)
        # convexity on an evenly spaced grid via second differences
        lin = np.linspace(0.01, 2.0, 60)
        v = np.array([profile.coverage_at(g) for g in lin])
        assert np.all(v[:-2] - 2.0 * v[1:-1] + v[2:] > 0.0)

    @pytest.mark.parametrize("lam", [0.02, 0.3, 1.1])
    def test_derivative_matches_finite_difference(self, adhoc_bundle, lam):
        profile = density_profile(adhoc_bundle(m=4))
        h = 1e-6 * lam
        fd = (profile.coverage_at(lam + h) - profile.coverage_at(lam - h)) / (2.0 * h)
        assert profile.derivative_at(lam) == pytest.approx(fd, rel=1e-6)

    def test_derivative_is_negative(self, adhoc_bundle):
        profile = density_profile(adhoc_bundle(m=5))
        for lam in [1e-4, 0.05, 0.9]:
            assert profile.derivative_at(lam) < 0.0

    def test_single_antenna_profile_is_pure_exponential(self, adhoc_bundle):
        profile = density_profile(adhoc_bundle(m=1, lam=0.1))
        assert profile.betas.tolist() == [1.0]
        assert profile.coverage_at(0.3) == pytest.approx(math.exp(profile.head * 0.3))

    def test_rejects_cellular(self, cellular_bundle):
        with pytest.raises(ValidationError, match="ad hoc"):
            density_profile(cellular_bundle())

    def test_rejects_noise(self, adhoc_bundle):
        with pytest.raises(ValidationError, match="noise"):
            density_profile(adhoc_bundle(noise=0.2))

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.inf])
    def test_rejects_bad_density_argument(self, adhoc_bundle, lam):
        profile = density_profile(adhoc_bundle(m=2))
        with pytest.raises(ValidationError):
            profile.coverage_at(lam)
        with pytest.raises(ValidationError):
            profile.derivative_at(lam)


# ---------------------------------------------------------------------------
# improvement sequences


class TestImprovementSequence:
    def test_partial_sums_recover_cellular_coverage(self, cellular_bundle):
        seq = improvement_sequence(cellular_bundle(), order=10)
        for m in range(1, 11):
            direct = coverage(cellular_bundle(m=m)).value
            assert seq.coverage_at(m) == pytest.approx(direct, rel=1e-13)

    def test_partial_sums_recover_adhoc_coverage(self, adhoc_bundle):
        seq = improvement_sequence(adhoc_bundle(lam=0.08), order=9)
        for m in range(1, 10):
            direct = coverage(adhoc_bundle(m=m, lam=0.08)).value
            assert seq.coverage_at(m) == pytest.approx(direct, rel=1e-13)

    def test_terms_are_positive(self, cellular_bundle, adhoc_bundle):
        assert np.all(improvement_sequence(cellular_bundle(), order=30).values > 0.0)
        assert np.all(improvement_sequence(adhoc_bundle(), order=30).values > 0.0)

    @pytest.mark.parametrize("m", [0, 13])
    def test_coverage_at_range_guard(self, cellular_bundle, m):
        seq = improvement_sequence(cellular_bundle(), order=12)
        with pytest.raises(ValidationError, match="outside"):
            seq.coverage_at(m)

    @pytest.mark.parametrize("m", [2.5, True])
    def test_coverage_at_integer_guard(self, cellular_bundle, m):
        # 2.5 used to fail on slicing with a bare TypeError, and True to
        # answer silently for M = 1
        seq = improvement_sequence(cellular_bundle(), order=12)
        with pytest.raises(ValidationError, match="positive integer"):
            seq.coverage_at(m)

    @pytest.mark.parametrize("order", [0, 513, True, np.True_])
    def test_order_guard(self, cellular_bundle, order):
        with pytest.raises(ValidationError):
            improvement_sequence(cellular_bundle(), order=order)

    def test_numpy_integer_order_is_accepted(self, cellular_bundle):
        seq = improvement_sequence(cellular_bundle(), order=np.int64(4))
        np.testing.assert_array_equal(seq.values, improvement_sequence(cellular_bundle(), order=4).values)

    @pytest.mark.parametrize("insight", [
        lambda b: improvement_sequence(b, order=4),
        lambda b: outage_decay_check(b, order=4),
        cellular_decay_rate,
    ], ids=["improvement_sequence", "outage_decay_check", "cellular_decay_rate"])
    def test_cellular_noise_is_refused(self, cellular_bundle, insight):
        # coverage() refuses SINR with noise; the same series must not
        # answer for it with noiseless (SIR) numbers
        with pytest.raises(ValidationError, match="noise"):
            insight(cellular_bundle(m=4, noise=0.5))


# ---------------------------------------------------------------------------
# decay rate, gamma interferer branch


def _rc_reference(kappa, delta, tau, theta, beta):
    # independent root solve on scipy's Gauss hypergeometric
    def f(w):
        return scipy.special.hyp2f1(kappa, -delta, 1.0 - delta, w)

    w_star = scipy.optimize.brentq(f, 1e-12, 1.0 - 1e-12, xtol=1e-15, rtol=8.9e-16)
    return 1.0 + w_star * theta / (tau * beta)


def _mp_root_equation(mp, kappa, alpha):
    delta = mp.mpf(2) / alpha
    return lambda w: mp.hyp2f1(kappa, -delta, 1 - delta, w)


def _plateau_then(start):
    """A pdf of 2 below g = 2^start and the power tail (1 + g / 2^start)^-3
    from there on, which is below 1: the probes from 2^start on see it."""
    return lambda g: 2.0 if g < 2.0**start else (1.0 + g / 2.0**start) ** -3.0


def _split_point_terms(w, kappa):
    # the term count of 2F1(kappa, -delta; 1-delta; w) from its own split-point
    # bound: for k >= m >= 1 every ratio is at most w max(1, (kappa+m)/(m+1));
    # the general kernel must never ask for more
    log_tol = math.log(1e-17)
    excess = w * max(kappa - 1.0, 0.0)
    m = max(1, math.ceil((excess + math.sqrt(-log_tol * excess)) / (1.0 - w)) - 1)
    rho = w * max(1.0, (kappa + m) / (m + 1.0))
    return m + math.ceil((log_tol + math.log1p(-rho)) / math.log(rho))


def _scan_bracket(lhs, past):
    # the linear scan of the grid that the bisection replaces: the first
    # point where the root equation is not positive, and the point before
    # it; it has no use for the bound past which the equation is below -1
    lo, f_lo = 0.0, 1.0
    for w in insights._W_GRID:
        val = lhs(w)
        if val <= 0.0:
            return lo, f_lo, w, val
        lo, f_lo = w, val
    raise NumericalError(insights._NO_GAMMA_ROOT)


def _assert_kernel_tail_bound(a, b, c, z):
    # the terms of 2F1(a, b; c; z) left out past the kernel's count weigh
    # less than 1e-17 of the sum of all magnitudes, and the count is within
    # 1.6x of the fewest terms that achieve it
    n = specfun.GaussSeries(a, b, c).terms(z)
    k = np.arange(8.0 * n)
    mags = np.abs(np.multiply.accumulate(z * (a + k) * (b + k) / ((c + k) * (k + 1.0))))
    tails = np.cumsum(mags[::-1])[::-1]  # tails[j] = sum_{k > j} |t_k|
    total = 1.0 + tails[0]
    assert mags[-1] <= 1e-30 * tails[n - 1]
    assert tails[n - 1] <= 1e-17 * total
    fewest = 1 + int(np.argmax(tails <= 1e-17 * total))
    assert n <= 1.6 * fewest


class TestDecayRateGamma:
    def test_reference_value(self, cellular_bundle):
        # kappa = 1, alpha = 4, everything else at 1
        assert cellular_decay_rate(cellular_bundle()) == pytest.approx(
            1.6948165380537967, rel=1e-13
        )

    @pytest.mark.parametrize(
        "kappa, alpha, tau, theta, beta",
        [
            (1.0, 4.0, 1.0, 1.0, 1.0),
            (2.0, 5.0, 2.0, 1.2, 0.7),
            (3.5, 3.0, 0.5, 0.8, 1.4),
        ],
    )
    def test_matches_independent_root_solve(self, cellular_bundle, kappa, alpha,
                                            tau, theta, beta):
        bundle = cellular_bundle(kappa=kappa, alpha=alpha, tau=tau, theta=theta,
                                 beta=beta)
        expected = _rc_reference(kappa, 2.0 / alpha, tau, theta, beta)
        assert cellular_decay_rate(bundle) == pytest.approx(expected, rel=1e-12)

    def test_elementary_oracle_for_unit_shape(self, cellular_bundle):
        # for kappa = 1 and alpha = 4 the root equation collapses to
        # 1 - sqrt(w) atanh(sqrt(w)) = 0
        w_star = scipy.optimize.brentq(
            lambda w: 1.0 - math.sqrt(w) * math.atanh(math.sqrt(w)),
            1e-12, 1.0 - 1e-12, xtol=1e-15, rtol=8.9e-16,
        )
        assert cellular_decay_rate(cellular_bundle()) == pytest.approx(
            1.0 + w_star, rel=1e-12
        )

    def test_rate_scales_with_threshold(self, cellular_bundle):
        base = cellular_decay_rate(cellular_bundle(tau=1.0))
        halved = cellular_decay_rate(cellular_bundle(tau=2.0))
        assert halved - 1.0 == pytest.approx((base - 1.0) / 2.0, rel=1e-12)

    def test_no_root_for_small_shape(self, cellular_bundle):
        # kappa below 1 - delta leaves the equation positive on (0, 1)
        with pytest.raises(NumericalError, match="stays positive"):
            cellular_decay_rate(cellular_bundle(kappa=0.3, alpha=4.0))

    @pytest.mark.parametrize(
        "kappa, alpha",
        [(0.54, 4.0), (0.55, 4.3), (0.6, 4.3), (0.7, 5.9), (0.7, 6.0), (0.8, 8.0)],
    )
    def test_roots_near_the_singular_endpoint(self, cellular_bundle, kappa, alpha):
        # kappa just above 1 - delta puts the root within 0.02 of w = 1, where
        # the defining series needs thousands of terms per call; at (0.8, 8)
        # the root lies past 1 - 2^-10 and the series used to hit its cap
        expected = _rc_reference(kappa, 2.0 / alpha, 1.0, 1.0, 1.0)
        assert expected > 1.98
        rate = cellular_decay_rate(cellular_bundle(kappa=kappa, alpha=alpha))
        assert rate == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "kappa, alpha",
        [(0.54, 4.0), (0.55, 4.3), (0.7, 6.0), (0.8, 8.0), (0.5001, 4.0), (0.3, 4.0),
         (0.5, 4.0), (1.0, 6.0), (2.5, 3.0), (1.0, 12.0), (1.0, 20.0)],
    )
    def test_bounded_work_wherever_the_root_lies(self, cellular_bundle, monkeypatch,
                                                 kappa, alpha):
        # below kappa = 1 every series is summed at z <= 1/2, so it stops
        # within 60 terms, and the root takes few evaluations; at
        # kappa <= 1 - delta there is no root to scan for.  Every series of
        # the root equation sums no more terms than its split-point bound
        # asks for at its w.
        seen = []
        summed = []
        real_call = specfun.GaussSeries.__call__

        def spy(series, z):
            seen.append(z)
            summed.append((series.params[0], z, series.terms(z)))
            return real_call(series, z)

        monkeypatch.setattr(specfun.GaussSeries, "__call__", spy)
        try:
            cellular_decay_rate(cellular_bundle(kappa=kappa, alpha=alpha))
        except NumericalError:
            pass
        assert len(seen) <= 32
        if kappa <= 1.0 - 2.0 / alpha:
            assert seen == []
        elif kappa < 1.0:
            assert 0 < len(seen) and max(seen) <= 0.5
        for a, z, terms in summed:
            if a == kappa:  # 2F1(kappa, -delta; 1-delta; w)
                assert terms <= _split_point_terms(z, kappa)
            else:  # the connection tail 2F1(1-delta-kappa, 1; 2-kappa; 1-w)
                assert terms <= 60

    @pytest.mark.parametrize("kappa", [0.55, 0.9, 0.999, 1.0, 1.5, 4.0, 30.0, 3e3, 1e6])
    @pytest.mark.parametrize("alpha", [2.5, 4.0, 6.0, 12.0])
    def test_bisected_bracket_matches_the_scan(self, cellular_bundle, monkeypatch,
                                               kappa, alpha):
        # the root equation decreases, so bisecting the grid's indices stops
        # on the same two points, with the same two values, as the scan: the
        # same rate to the bit, or the same refusal.  kappa < 1 - 1e-3 takes
        # the connection formula past w = 1/2, large kappa the _overflows
        # test, and (0.55, 12) lies below 1 - delta, where there is no root.
        def outcomes():
            found = []
            for tau in (1e-3, 1.0, 1e3):
                try:
                    found.append(cellular_decay_rate(
                        cellular_bundle(kappa=kappa, alpha=alpha, tau=tau)))
                except MimocovError as exc:
                    found.append(type(exc))
            return found

        on_grid = []  # per root, the series sums made while bracketing it
        searching = []
        real_call = specfun.GaussSeries.__call__
        real_bracket = insights._grid_bracket

        def spy(series, z):
            if searching:
                on_grid[-1].append(z)
            return real_call(series, z)

        def counted_bracket(lhs, past):
            on_grid.append([])
            searching.append(True)
            try:
                return real_bracket(lhs, past)
            finally:
                searching.clear()

        monkeypatch.setattr(specfun.GaussSeries, "__call__", spy)
        monkeypatch.setattr(insights, "_grid_bracket", counted_bracket)
        bisected = outcomes()
        assert all(len(sums) <= 5 for sums in on_grid)
        monkeypatch.setattr(insights, "_grid_bracket", _scan_bracket)
        assert bisected == outcomes()
        if kappa <= 1.0 - 2.0 / alpha:
            assert bisected == [NumericalError] * 3

    def test_bisection_evaluates_at_most_five_grid_points(self, monkeypatch):
        # one root per position on the grid, and no root at all, with no
        # bound and with a bound at or past the root
        seen = []
        real_bracket = insights._grid_bracket

        def counted_bracket(lhs, past):
            seen.append([])
            return real_bracket(lambda w: seen[-1].append(w) or lhs(w), past)

        monkeypatch.setattr(insights, "_grid_bracket", counted_bracket)
        grid = insights._W_GRID
        for i, root in enumerate(grid + [1.0]):
            def step(w, root=root):
                return 1.0 if w < root else -1.0

            for past in {math.inf, root, 0.5 * (root + 1.0)}:
                if i < len(grid):
                    assert insights._grid_bracket(step, past) == (
                        grid[i - 1] if i else 0.0, 1.0, root, -1.0)
                else:
                    with pytest.raises(NumericalError, match="stays positive"):
                        insights._grid_bracket(step, past)
                assert 0 < len(seen[-1]) <= 5
        # a large shape's root lies below the first point: one evaluation
        seen.clear()
        insights._grid_bracket(lambda w: -1.0, grid[0])
        assert seen == [[grid[0]]]

    @pytest.mark.parametrize("kappa", [0.3, 0.54, 0.7, 0.999, 1.0, 1.5, 3.7, 30.0,
                                       1e3, 1e4, 1e5, 1e6])
    def test_kernel_counts_no_more_than_the_split_point_bound(self, kappa):
        # every count the root equation can ask for, on _W_GRID and at the
        # small w of large shapes; counts past the cap are refused either way
        for delta in (0.05, 0.2, 0.5, 0.8, 0.95):
            series = specfun.GaussSeries(kappa, -delta, 1.0 - delta)
            for w in insights._W_GRID + [1e-3, 1e-4]:
                bound = _split_point_terms(w, kappa)
                if bound <= specfun._MAX_TERMS:
                    assert series.terms(w) == bound
                else:
                    assert series.terms(w) > specfun._MAX_TERMS

    @pytest.mark.parametrize(
        "kappa, alpha, w",
        [(1.0, 4.0, 0.5), (1.0, 12.0, 1.0 - 2.0**-11), (0.9995, 20.0, 1.0 - 2.0**-11),
         (0.3, 4.0, 0.5), (2.0, 3.0, 0.9), (3.7, 5.0, 0.99), (1.5, 2.05, 0.999),
         (30.0, 4.0, 1.0 / 16.0), (1e4, 4.0, 1e-3), (1e6, 2.5, 1e-4)],
    )
    def test_defining_series_tail_bound(self, kappa, alpha, w):
        # the root equation 2F1(kappa, -delta; 1-delta; w)
        delta = 2.0 / alpha
        _assert_kernel_tail_bound(kappa, -delta, 1.0 - delta, w)

    @pytest.mark.parametrize(
        "a, b, c, z",
        # the connection tail 2F1(1-delta-kappa, 1; 2-kappa; v), v = 1 - w
        [(1.0 - 2.0 / alpha - kappa, 1.0, 2.0 - kappa, v)
         for kappa, alpha in [(0.3, 2.5), (0.54, 4.0), (0.95, 4.0)] for v in (1e-3, 0.25, 0.5)]
        # the parameters of the hyp2f1 tests
        + [(1.0, -0.5, 0.5, z) for z in (0.1, 0.2, 0.5, 0.69, 0.9, 0.95)]
        + [(3.5, 1.5, 2.5, 0.2), (3.5, 1.5, 2.5, 0.9), (0.7, -0.3, 0.7, 0.2), (0.7, -0.3, 0.7, 0.9)]
        # both parameters above c, where both factors of the bound exceed 1
        + [(2.0, 1.5, 0.5, 0.5), (3.0, 2.5, 0.3, 0.9), (30.0, 25.0, 0.5, 0.5)],
    )
    def test_kernel_tail_bound_on_other_series(self, a, b, c, z):
        _assert_kernel_tail_bound(a, b, c, z)

    @pytest.mark.parametrize("kappa", [3e3, 1e4, 1e5, 1e6])
    @pytest.mark.parametrize("alpha", [2.5, 4.0, 12.0])
    def test_large_shape_against_mpmath(self, cellular_bundle, kappa, alpha):
        # w* shrinks like 1 / kappa while 2F1 at w = 1/16 overflows: the
        # bracket [0, 1/16] must still close on the root
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            f = _mp_root_equation(mp, kappa, alpha)
            w = mp.mpf(1) / kappa
            while f(w) <= 0:
                w /= 2
            while f(2 * w) > 0:
                w *= 2
            expected = float(1 + mp.findroot(f, (w, 2 * w), solver="anderson"))
        rate = cellular_decay_rate(cellular_bundle(kappa=kappa, alpha=alpha))
        assert rate == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("kappa", [1e3, 1e4, 1e6])
    @pytest.mark.parametrize("alpha", [2.5, 4.0, 8.0])
    def test_large_shape_bracket_starts_at_the_first_term_bound(
            self, cellular_bundle, monkeypatch, kappa, alpha):
        # the root lies below 2 (1 - delta) / (delta kappa) < 1/16, where the
        # equation is finite and at most -1, so false position starts from
        # that bracket: at most 14 series sums where [0, 1/16] took 46-68
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            f = _mp_root_equation(mp, kappa, alpha)
            w = mp.mpf(1) / kappa
            while f(w) <= 0:
                w /= 2
            while f(2 * w) > 0:
                w *= 2
            expected = float(1 + kappa * mp.findroot(f, (w, 2 * w), solver="anderson"))
        calls = []
        real_call = specfun.GaussSeries.__call__

        def spy(series, z):
            calls.append(z)
            return real_call(series, z)

        monkeypatch.setattr(specfun.GaussSeries, "__call__", spy)
        rate = cellular_decay_rate(cellular_bundle(kappa=kappa, beta=1.0 / kappa, alpha=alpha))
        assert rate == pytest.approx(expected, rel=1e-12)
        assert len(calls) <= 14
        assert max(calls) <= 2.0 * (1.0 - 2.0 / alpha) / (2.0 / alpha * kappa)

    def test_overflowing_term_reads_past_the_root(self, cellular_bundle, monkeypatch):
        # at alpha = kappa = 3000 the bisection's first grid point, w = 11/16,
        # holds a term of 2F1(kappa, -delta; 1-delta; w) past the double
        # range; the equation reads -inf there, and the root below is found
        mp = pytest.importorskip("mpmath")
        kappa, alpha = 3000.0, 3000.0
        with mp.workdps(30):
            f = _mp_root_equation(mp, kappa, alpha)
            w = mp.mpf(1) / kappa
            while f(w) <= 0:
                w /= 2
            while f(2 * w) > 0:
                w *= 2
            expected = float(1 + kappa * mp.findroot(f, (w, 2 * w), solver="anderson"))
        overflowed = []
        real = insights._overflows

        def spy(w, kappa, delta):
            if real(w, kappa, delta):
                overflowed.append(w)
                return True
            return False

        monkeypatch.setattr(insights, "_overflows", spy)
        rate = cellular_decay_rate(cellular_bundle(kappa=kappa, beta=1.0 / kappa, alpha=alpha))
        assert overflowed == [11.0 / 16.0]
        assert rate == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("excess", [1e-6, 1e-4, 1e-3])
    @pytest.mark.parametrize("alpha", [2.05, 2.5, 3.0, 4.0, 8.0])
    def test_rate_returned_iff_root_within_the_limit(self, cellular_bundle, alpha, excess):
        # kappa just above 1 - delta puts the root near w = 1; a rate comes
        # back exactly when the root lies at or below the last grid point
        # 1 - 2^-11, and each case keeps 1 - w* off 2^-11 by a factor of 2
        mp = pytest.importorskip("mpmath")
        kappa = 1.0 - 2.0 / alpha + excess
        with mp.workdps(30):
            f = _mp_root_equation(mp, kappa, alpha)
            top = 1 - mp.mpf(10) ** -25
            root = None if f(top) > 0 else mp.findroot(f, (mp.mpf(1) / 2, top), solver="anderson")
        gap = math.inf if root is None else float(1 - root) / 2.0**-11
        assert not 0.5 < gap < 2.0
        bundle = cellular_bundle(kappa=kappa, alpha=alpha)
        if gap < 1.0:
            with pytest.raises(NumericalError, match="stays positive"):
                cellular_decay_rate(bundle)
        else:
            assert cellular_decay_rate(bundle) == pytest.approx(float(1 + root), rel=1e-12)

    def test_unbounded_series_is_refused(self, cellular_bundle):
        # at delta = 2e-300 the equation stays positive up to the last grid
        # point, where kappa = 25 would need more than specfun._MAX_TERMS terms
        with pytest.raises(NumericalError, match="series terms"):
            cellular_decay_rate(cellular_bundle(kappa=25.0, alpha=1e300))

    def test_open_bracket_after_the_step_cap_is_refused(self):
        # an end that is -inf everywhere bisects toward lo = 0 forever
        with pytest.raises(NumericalError, match="did not converge"):
            insights._false_position(lambda w: -math.inf, 0.0, 1.0, 1.0, -math.inf)

    @pytest.mark.parametrize("kappa", [0.5, 0.5001])
    def test_no_root_at_or_just_past_the_boundary(self, cellular_bundle, kappa):
        # at kappa = 1 - delta the root sits at w = 1; 1e-4 above it, within
        # 1e-6 of w = 1, past the last point of the admissible range
        with pytest.raises(NumericalError, match="stays positive"):
            cellular_decay_rate(cellular_bundle(kappa=kappa, alpha=4.0))

    @pytest.mark.parametrize("kappa", [1e16, 1e20, 1e30])
    def test_rate_that_rounds_to_one_is_refused(self, cellular_bundle, kappa):
        # the rate is 1 + 0.854 / kappa; 1.0 would read as no decay at all
        with pytest.raises(NumericalError, match="rounds to 1"):
            cellular_decay_rate(cellular_bundle(kappa=kappa))

    def test_rate_just_above_one_is_returned(self, cellular_bundle):
        # 1 + 8.54e-16 is four ulps above 1
        rate = cellular_decay_rate(cellular_bundle(kappa=1e15))
        assert rate - 1.0 == pytest.approx(8.54e-16, abs=2.3e-16)

    def test_rejects_adhoc(self, adhoc_bundle):
        with pytest.raises(ValidationError, match="cellular"):
            cellular_decay_rate(adhoc_bundle())


# ---------------------------------------------------------------------------
# decay rate, general interferer branch


class TestDecayRateGeneral:
    @pytest.mark.parametrize("alpha,kappa,beta", [
        (4.0, 1.0, 1.0), (5.0, 1.0, 1.0), (6.0, 1.0, 1.0), (8.0, 1.0, 1.0),
        (4.0, 1.0, 2.0), (6.0, 1.0, 2.0), (4.0, 0.7, 1.0),
    ])
    def test_exponential_pdf_matches_gamma_branch(self, cellular_bundle, alpha, kappa, beta):
        # except at (4, 1, 1), the root h lies where e^(h tau g / theta)
        # alone overflows inside the expectation, which stays finite
        if kappa == 1.0:
            law = InterfererGainSpec(pdf=lambda g: math.exp(-g / beta) / beta)
        else:
            log_norm = math.lgamma(kappa) + kappa * math.log(beta)
            law = InterfererGainSpec(pdf=lambda g: math.exp(
                (kappa - 1.0) * math.log(g) - g / beta - log_norm))
        general = cellular_decay_rate(cellular_bundle(alpha=alpha, interferer=law))
        gamma = cellular_decay_rate(cellular_bundle(alpha=alpha, kappa=kappa, beta=beta))
        assert general == pytest.approx(gamma, rel=1e-9)

    @pytest.mark.parametrize("alpha,kappa", [(12.0, 1.0), (10.0, 0.8)])
    def test_root_past_the_evaluable_range_is_refused(self, cellular_bundle, alpha, kappa):
        # Gamma(kappa, 1) pdfs whose expectation cannot be evaluated up to a
        # sign change: at kappa = 1 the root lies within 0.004 of the
        # exponential-moment boundary, where the pdf's tail past its
        # underflow still carries weight; at kappa = 0.8 < 1 - delta there
        # is no root at all, as the Gamma branch says
        law = InterfererGainSpec(pdf=lambda g: math.exp(
            (kappa - 1.0) * math.log(g) - g - math.lgamma(kappa)))
        with pytest.raises(NumericalError, match="no decay rate located"):
            cellular_decay_rate(cellular_bundle(alpha=alpha, interferer=law))

    def test_power_tail_has_no_geometric_decay(self, cellular_bundle):
        law = InterfererGainSpec(pdf=lambda g: 2.0 * (1.0 + g) ** -3.0)
        with pytest.raises(NumericalError, match="no geometric decay"):
            cellular_decay_rate(cellular_bundle(interferer=law))

    @pytest.mark.parametrize("name, pdf, rules_out", [
        # a pdf whose evaluation overflows, vanishes, or is cut off is trusted
        ("overflow", lambda g: 1.0 / math.exp(g), False),
        ("zero", lambda g: 0.0, False),
        # values that are no density are never read as a power tail
        ("nan", lambda g: math.nan, False),
        ("negative", lambda g: -math.exp(-g), False),
        ("infinite", lambda g: math.inf, False),
        ("exponential", lambda g: math.exp(-g / 2.0**40), False),
        # probes where the pdf is at least 1 carry no rate: the tail past
        # 2^20 is judged alone
        ("power past a plateau", _plateau_then(20), True),
        # fewer than five probes past the plateau say nothing
        ("four probes", _plateau_then(42), False),
        ("five probes", _plateau_then(41), True),
    ])
    def test_tail_probe(self, name, pdf, rules_out):
        assert insights._tail_rules_out_geometric_decay(pdf) is rules_out

    def test_truncated_support_has_a_rate(self, cellular_bundle):
        norm = 2.0 / (1.0 - 11.0**-2)
        law = InterfererGainSpec(
            pdf=lambda g: norm * (1.0 + g) ** -3.0 if g <= 10.0 else 0.0
        )
        assert cellular_decay_rate(cellular_bundle(interferer=law)) > 1.0


# ---------------------------------------------------------------------------
# ratio convergence diagnostics


class TestOutageDecayCheck:
    def test_ratios_approach_the_rate(self, cellular_bundle):
        bundle = cellular_bundle()
        diag = outage_decay_check(bundle, order=42)
        rc = cellular_decay_rate(bundle)
        assert not diag.truncated
        assert diag.ratios.size == 41
        assert diag.ratios[-1] == pytest.approx(rc, rel=1e-4)
        # the last stretch should already be settled to a much tighter band
        np.testing.assert_allclose(diag.ratios[-5:], rc, rtol=1e-3)

    def test_ratios_exceed_one(self, cellular_bundle):
        diag = outage_decay_check(cellular_bundle(kappa=2.0, tau=3.0), order=60)
        assert np.all(diag.ratios > 1.0)

    def test_underflow_truncation(self, cellular_bundle):
        # at an extreme threshold the coefficients underflow around n = 38,
        # and the surviving ratios still agree with the decay rate
        bundle = cellular_bundle(tau=1e-8)
        diag = outage_decay_check(bundle, order=60)
        assert diag.truncated
        assert 2 < diag.ratios.size < 59
        rc = cellular_decay_rate(bundle)
        assert diag.ratios[-1] == pytest.approx(rc, rel=1e-6)

    def test_order_too_small_for_any_ratio(self, cellular_bundle):
        with pytest.raises(ValidationError, match="order too small"):
            outage_decay_check(cellular_bundle(), order=1)


# ---------------------------------------------------------------------------
# ad hoc closed forms


class TestClosedForms:
    def test_both_identities_match_the_recursion(self, adhoc_for_mu):
        bundle = adhoc_for_mu(1.0)
        seq = improvement_sequence(bundle, order=16).values
        for n in range(16):
            assert adhoc_pbar_closed_form(bundle, n) == pytest.approx(
                seq[n], rel=1e-10
            )
            assert adhoc_pbar_bessel(bundle, n) == pytest.approx(seq[n], rel=1e-10)

    def test_leading_coefficient_is_single_antenna_coverage(self, adhoc_for_mu):
        bundle = adhoc_for_mu(2.5)
        assert adhoc_pbar_closed_form(bundle, 0) == pytest.approx(
            math.exp(-2.5), rel=1e-12
        )

    def test_bessel_tail_asymptotics(self, adhoc_for_mu):
        # far out the coefficients behave like mu / (2 sqrt(pi)) * n^{-3/2};
        # at n = 30 the ratio to that limit is within half a percent
        mu = 1.0
        bundle = adhoc_for_mu(mu)
        value = adhoc_pbar_bessel(bundle, 30)
        assert value > 1e-300
        limit = mu / (2.0 * math.sqrt(math.pi)) * 30.0**-1.5
        assert value / limit == pytest.approx(1.0, abs=2e-2)


# ---------------------------------------------------------------------------
# peak location


class TestPeakBound:
    def test_bound_contains_the_peak(self, adhoc_for_mu):
        for mu in [2.5, 3.0, 4.0, 6.0]:
            bundle = adhoc_for_mu(mu)
            info = adhoc_peak_bound(bundle)
            seq = improvement_sequence(bundle, order=40).values
            peak = int(np.argmax(seq))
            assert peak <= info.index_bound
            assert not info.monotone

    def test_large_mu_peak_is_interior(self, adhoc_for_mu):
        seq = improvement_sequence(adhoc_for_mu(6.0), order=40).values
        assert int(np.argmax(seq)) >= 1

    def test_small_mu_is_monotone(self, adhoc_for_mu):
        bundle = adhoc_for_mu(1.0)
        info = adhoc_peak_bound(bundle)
        assert info.monotone
        seq = improvement_sequence(bundle, order=25).values
        assert np.all(np.diff(seq) < 0.0)

    def test_bound_floor_is_one(self, adhoc_for_mu):
        assert adhoc_peak_bound(adhoc_for_mu(0.5)).index_bound == 1

    def test_bound_past_the_double_range_is_a_numerical_error(self, adhoc_for_mu):
        # mu = 1e160 is finite, but mu^2 / 4 is not
        with pytest.raises(NumericalError, match="peak index bound"):
            adhoc_peak_bound(adhoc_for_mu(1e160))

    def test_rejects_cellular(self, cellular_bundle):
        with pytest.raises(ValidationError, match="ad hoc"):
            adhoc_peak_bound(cellular_bundle())

    def test_rejects_noise(self, adhoc_bundle):
        with pytest.raises(ValidationError, match="zero noise"):
            adhoc_peak_bound(adhoc_bundle(noise=0.1))
