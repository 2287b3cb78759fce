import math

import numpy as np
import pytest
import scipy.optimize
import scipy.special

from mimocov import (
    DensityProfile,
    InterfererGainSpec,
    adhoc_pbar_bessel,
    adhoc_pbar_closed_form,
    adhoc_peak_bound,
    cellular_decay_rate,
    coverage,
    density_profile,
    improvement_sequence,
    outage_decay_check,
)
from mimocov import specfun
from mimocov.analytic import adhoc_entries
from mimocov.errors import (
    DomainError,
    NumericalError,
    RootNotFoundError,
    UnsupportedConfigError,
    ValidationError,
)


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


class TestDensityProfile:
    @pytest.mark.parametrize("alpha", [2.5, 4.0, 6.0])
    @pytest.mark.parametrize("m", [2, 9, 64, 256])
    def test_betas_match_power_convolution(self, adhoc_bundle, m, alpha):
        bundle = adhoc_bundle(m=m, alpha=alpha)
        betas = density_profile(bundle).betas
        reference = _power_convolution_betas(bundle)
        np.testing.assert_array_equal(betas == 0.0, reference == 0.0)
        resolved = reference > 1e-280
        np.testing.assert_allclose(betas[resolved], reference[resolved], rtol=1e-12)

    @pytest.mark.parametrize("lam", [0.05, 0.3, 1.0])
    def test_reconstructs_coverage_with_512_antennas(self, adhoc_bundle, lam):
        # at 30 dB coverage runs from 0.8 down to 1e-6 over these densities,
        # so the high-order coefficients carry the value
        profile = density_profile(adhoc_bundle(m=512, tau=1e3, lam=0.05))
        direct = coverage(adhoc_bundle(m=512, tau=1e3, lam=lam)).value
        assert profile.coverage_at(lam) == pytest.approx(direct, rel=1e-12)

    def test_overflowing_coefficients_raise(self, adhoc_bundle):
        # c = mu / lam is about 4.4e3 here, so c^j / j! overflows before j = 512
        with pytest.raises(NumericalError, match="overflow"):
            density_profile(adhoc_bundle(m=512, r0=30.0, lam=1e-5))

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
        with pytest.raises(UnsupportedConfigError, match="ad hoc"):
            density_profile(cellular_bundle())

    def test_rejects_noise(self, adhoc_bundle):
        with pytest.raises(UnsupportedConfigError, match="noise"):
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

    @pytest.mark.parametrize("order", [0, 513])
    def test_order_guard(self, cellular_bundle, order):
        with pytest.raises(ValidationError):
            improvement_sequence(cellular_bundle(), order=order)


# ---------------------------------------------------------------------------
# decay rate, gamma interferer branch


def _rc_reference(kappa, delta, tau, theta, beta):
    # independent root solve on scipy's Gauss hypergeometric
    def f(w):
        return scipy.special.hyp2f1(kappa, -delta, 1.0 - delta, w)

    w_star = scipy.optimize.brentq(f, 1e-12, 1.0 - 1e-12, xtol=1e-15, rtol=8.9e-16)
    return 1.0 + w_star * theta / (tau * beta)


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
        with pytest.raises(RootNotFoundError, match="stays positive"):
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
         (1.0, 6.0), (2.5, 3.0)],
    )
    def test_bounded_work_wherever_the_root_lies(self, cellular_bundle, monkeypatch,
                                                 kappa, alpha):
        # below kappa = 1 every series is summed at z <= 1/2, so it stops
        # within about 55 terms, and the root takes few evaluations
        seen = []
        real = specfun.hyp2f1

        def spy(a, b, c, z):
            seen.append(z)
            return real(a, b, c, z)

        monkeypatch.setattr(specfun, "hyp2f1", spy)
        try:
            cellular_decay_rate(cellular_bundle(kappa=kappa, alpha=alpha))
        except RootNotFoundError:
            pass
        assert len(seen) <= 32
        if kappa < 1.0:
            assert max(seen) <= 0.5

    @pytest.mark.parametrize("kappa", [0.5, 0.5001])
    def test_no_root_at_or_just_past_the_boundary(self, cellular_bundle, kappa):
        # at kappa = 1 - delta the root sits at w = 1; 1e-4 above it, within
        # 1e-6 of w = 1, past the last point of the admissible range
        with pytest.raises(RootNotFoundError, match="stays positive"):
            cellular_decay_rate(cellular_bundle(kappa=kappa, alpha=4.0))

    def test_rejects_adhoc(self, adhoc_bundle):
        with pytest.raises(ValidationError, match="cellular"):
            cellular_decay_rate(adhoc_bundle())


# ---------------------------------------------------------------------------
# decay rate, general interferer branch


class TestDecayRateGeneral:
    def test_exponential_pdf_matches_gamma_branch(self, cellular_bundle):
        law = InterfererGainSpec(pdf=lambda g: math.exp(-g) if g >= 0.0 else 0.0)
        general = cellular_decay_rate(cellular_bundle(interferer=law))
        gamma = cellular_decay_rate(cellular_bundle(kappa=1.0, beta=1.0))
        assert general == pytest.approx(gamma, rel=1e-9)

    def test_power_tail_has_no_geometric_decay(self, cellular_bundle):
        law = InterfererGainSpec(pdf=lambda g: 2.0 * (1.0 + g) ** -3.0)
        with pytest.raises(RootNotFoundError, match="no geometric decay"):
            cellular_decay_rate(cellular_bundle(interferer=law))

    def test_truncated_support_has_a_rate(self, cellular_bundle):
        norm = 2.0 / (1.0 - 11.0**-2)
        law = InterfererGainSpec(
            pdf=lambda g: norm * (1.0 + g) ** -3.0 if g <= 10.0 else 0.0
        )
        assert cellular_decay_rate(cellular_bundle(interferer=law)) > 1.0

    def test_moment_overrides_alone_are_not_enough(self, cellular_bundle):
        law = InterfererGainSpec(
            delta_moment=lambda d: math.gamma(1.0 + d),
            f11_moment=lambda n, d, c: 1.0 / (1.0 + c) ** n,
        )
        with pytest.raises(UnsupportedConfigError, match="pdf"):
            cellular_decay_rate(cellular_bundle(interferer=law))


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

    def test_closed_form_guards(self, adhoc_for_mu, adhoc_bundle, cellular_bundle):
        with pytest.raises(UnsupportedConfigError, match="ad hoc"):
            adhoc_pbar_closed_form(cellular_bundle(), 1)
        with pytest.raises(UnsupportedConfigError, match="noise"):
            adhoc_pbar_closed_form(adhoc_bundle(noise=0.1), 1)
        with pytest.raises(UnsupportedConfigError, match="alpha = 4"):
            adhoc_pbar_bessel(adhoc_bundle(alpha=3.0), 1)
        with pytest.raises(ValidationError, match="non-negative integer"):
            adhoc_pbar_closed_form(adhoc_for_mu(1.0), -1)
        with pytest.raises(ValidationError, match="non-negative integer"):
            adhoc_pbar_bessel(adhoc_for_mu(1.0), 1.5)

    def test_exact_arithmetic_order_limit(self, adhoc_for_mu):
        with pytest.raises(DomainError):
            adhoc_pbar_closed_form(adhoc_for_mu(1.0), 70)


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

    def test_rejects_cellular(self, cellular_bundle):
        with pytest.raises(UnsupportedConfigError, match="ad hoc"):
            adhoc_peak_bound(cellular_bundle())
