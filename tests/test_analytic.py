"""Coverage values are checked against closed forms, against an
independently coded matrix oracle built on scipy's own special functions,
and against the Toeplitz matrix route on the library's own entries."""

import math

import numpy as np
import pytest
import scipy.special as sps
from scipy import integrate

from mimocov import (
    ADHOC,
    CELLULAR,
    EntrySequence,
    InterfererGainSpec,
    NumericalError,
    UnsupportedConfigError,
    ValidationError,
    adhoc_coverage,
    adhoc_entries,
    adhoc_mu,
    cellular_coverage,
    cellular_entries,
    coverage,
    coverage_general_pdf,
    coverage_non_poisson,
)
from mimocov.model import GeneralSignalPdf
from toeplitz_oracle import toeplitz_coverage


def _oracle_cellular(m, tau, delta, kappa, beta, theta):
    """Coverage via scipy.special entries and a dense triangular solve.

    Shares no special-function or series code with the package paths.
    """
    x = tau * beta / theta
    c = np.empty(m)
    for n in range(m):
        pref = math.gamma(kappa + n) / (math.gamma(kappa) * math.factorial(n))
        ratio = delta / (delta - n) if n else 1.0
        c[n] = pref * ratio * x**n * float(sps.hyp2f1(n + kappa, n - delta, n + 1 - delta, -x))
    t = np.zeros((m, m))
    for i in range(m):
        t[i:, i] = c[: m - i]
    b = np.linalg.solve(t, np.eye(m)[:, 0])
    return float(b.sum())


class TestCellular:
    def test_single_antenna_closed_form(self, cellular_bundle):
        # unit threshold, alpha 4, unit-mean exponential gains: 1 / (1 + pi/4)
        bundle = cellular_bundle(m=1)
        expected = 1.0 / (1.0 + math.pi / 4.0)
        assert coverage(bundle).value == pytest.approx(expected, rel=1e-13)
        assert toeplitz_coverage(bundle) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("m", [2, 4, 9])
    @pytest.mark.parametrize("tau,kappa,beta,theta,alpha", [
        (1.0, 1.0, 1.0, 1.0, 4.0),
        (2.5, 2.0, 0.7, 1.3, 3.2),
        (0.4, 0.6, 1.8, 0.9, 5.5),
    ])
    def test_against_matrix_oracle(self, cellular_bundle, m, tau, kappa, beta, theta, alpha):
        bundle = cellular_bundle(m=m, tau=tau, kappa=kappa, beta=beta, theta=theta, alpha=alpha)
        expected = _oracle_cellular(m, tau, 2.0 / alpha, kappa, beta, theta)
        assert coverage(bundle).value == pytest.approx(expected, rel=1e-11)

    def test_density_invariance_is_bitwise(self, cellular_bundle):
        for route in (lambda b: coverage(b).value, toeplitz_coverage):
            values = {route(cellular_bundle(m=4, lam=lam)) for lam in (1e-6, 1e-2, 1.0)}
            assert len(values) == 1  # one value per route, independent of density
        ref = coverage(cellular_bundle(m=4, lam=1e-3)).value
        assert coverage(cellular_bundle(m=4, lam=123.0)).value == ref

    def test_threshold_monotone_and_antenna_ordering(self, cellular_bundle):
        taus = np.geomspace(0.1, 30.0, 12)
        prev_by_m = None
        for m in (1, 2, 4, 8):
            vals = [coverage(cellular_bundle(m=m, tau=t)).value for t in taus]
            assert all(a > b for a, b in zip(vals, vals[1:]))  # decreasing in threshold
            if prev_by_m is not None:
                assert all(hi > lo for hi, lo in zip(vals, prev_by_m))  # more antennas help
            prev_by_m = vals

    def test_noise_not_supported(self, cellular_bundle):
        with pytest.raises(UnsupportedConfigError, match="Monte Carlo"):
            coverage(cellular_bundle(m=1, noise=0.1))

    def test_entry_signs(self, cellular_bundle):
        ent = cellular_entries(cellular_bundle(m=1, kappa=2.3, beta=0.4), 12)
        assert ent.values[0] > 0.0
        assert np.all(ent.values[1:] < 0.0)

    @pytest.mark.parametrize("x", [1e3, 1e6])
    @pytest.mark.parametrize("kappa", [0.5, 1.0, 4.0])
    @pytest.mark.parametrize("alpha", [2.5, 4.0])
    def test_entries_at_high_threshold(self, cellular_bundle, x, kappa, alpha):
        # entry n against scipy's 2F1 with the prefactor folded in log space.
        # Near underflow scipy's 2F1 loses digits (at x = 1e6, n = 50 it is
        # off by 2e-6 against a 60-digit reference), so those points are skipped.
        m = 64
        delta = 2.0 / alpha
        ours = cellular_entries(cellular_bundle(m=m, tau=x, alpha=alpha, kappa=kappa), m).values
        checked = 0
        for n in range(m):
            f = float(sps.hyp2f1(n + kappa, n - delta, n + 1 - delta, -x))
            if abs(f) < 1e-280:
                continue
            log_pref = (math.lgamma(kappa + n) - math.lgamma(kappa) - math.lgamma(n + 1.0)
                        + n * math.log(x) + math.log(abs(f)))
            ratio = delta / (delta - n) if n else 1.0
            assert ours[n] == pytest.approx(ratio * math.copysign(math.exp(log_pref), f), rel=1e-11)
            checked += 1
        assert checked >= 40

    @pytest.mark.parametrize("tau_db", [40.0, 50.0, 60.0])
    @pytest.mark.parametrize("m", [1, 16, 512])
    def test_high_threshold_coverage_in_range(self, cellular_bundle, tau_db, m):
        for alpha in (2.5, 4.0):
            for kappa in (0.5, 1.0, 4.0):
                bundle = cellular_bundle(m=m, tau=10.0 ** (tau_db / 10.0), alpha=alpha, kappa=kappa)
                value = coverage(bundle).value
                assert math.isfinite(value) and 0.0 <= value <= 1.0

    def test_kind_guard(self, adhoc_bundle):
        with pytest.raises(ValidationError, match="cellular"):
            cellular_coverage(adhoc_bundle())


class TestCellularGeneralLaw:
    def test_exponential_pdf_matches_gamma_branch(self, cellular_bundle):
        # the same law through the quadrature route and the closed-form route
        gamma = cellular_bundle(m=3)
        general = cellular_bundle(m=3, interferer=InterfererGainSpec(pdf=lambda g: math.exp(-g)))
        e_gamma = cellular_entries(gamma, 5).values
        e_general = cellular_entries(general, 5).values
        np.testing.assert_allclose(e_general, e_gamma, rtol=1e-8)
        assert coverage(general).value == pytest.approx(coverage(gamma).value, rel=1e-9)
        # Gamma pdfs entry by entry, down to entries many decades below entry 0;
        # kappa = 0.2 puts an integrable singularity g^-0.8 at the origin
        for kappa in (0.2, 1.0, 2.5):
            law = InterfererGainSpec(
                pdf=lambda g, k=kappa: math.exp((k - 1.0) * math.log(g) - g - math.lgamma(k))
            )
            for tau in (1.0, 10.0):
                for m in (5, 32, 128, 512):
                    e_general = cellular_entries(cellular_bundle(tau=tau, interferer=law), m).values
                    e_gamma = cellular_entries(cellular_bundle(tau=tau, kappa=kappa), m).values
                    np.testing.assert_allclose(e_general, e_gamma, rtol=1e-12, atol=0.0,
                                               err_msg=f"kappa={kappa} tau={tau} M={m}")

    def test_power_law_pdf_matches_hypergeometric_quadrature(self, cellular_bundle):
        # entry n = delta/(delta-n) E[(c g)^n/n! 1F1(n-delta; n+1-delta; -c g)],
        # one scipy quad per entry with scipy's 1F1 against the library's
        # quadrature of the incomplete-gamma form
        m, tau, theta, delta = 8, 1.3, 0.8, 0.5
        c = tau / theta

        def pdf(g):
            return 2.0 * (1.0 + g) ** -3.0

        expected = np.empty(m)
        for n in range(m):
            moment, _ = integrate.quad(
                lambda g: (c * g) ** n / math.factorial(n)
                * float(sps.hyp1f1(n - delta, n + 1 - delta, -c * g)) * pdf(g),
                0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=500,
            )
            expected[n] = (delta / (delta - n) if n else 1.0) * moment
        bundle = cellular_bundle(tau=tau, theta=theta, interferer=InterfererGainSpec(pdf=pdf))
        np.testing.assert_allclose(cellular_entries(bundle, m).values, expected, rtol=1e-10)

    def test_point_mass_law_via_moment_overrides(self, cellular_bundle):
        # deterministic interferer gain g0: moments collapse to evaluations
        g0, delta, tau, m = 1.7, 0.5, 1.2, 4

        law = InterfererGainSpec(
            delta_moment=lambda d: g0**d,
            f11_moment=lambda n, d, c: g0**n * float(sps.hyp1f1(n - d, n + 1 - d, -c * g0)),
        )
        bundle = cellular_bundle(m=m, tau=tau, interferer=law)
        got = coverage(bundle).value

        c_entries = np.empty(m)
        for n in range(m):
            ratio = delta / (delta - n) if n else 1.0
            c_entries[n] = (ratio * (tau * g0) ** n / math.factorial(n)
                            * float(sps.hyp1f1(n - delta, n + 1 - delta, -tau * g0)))
        t = np.zeros((m, m))
        for i in range(m):
            t[i:, i] = c_entries[: m - i]
        expected = float(np.linalg.solve(t, np.eye(m)[:, 0]).sum())
        assert got == pytest.approx(expected, rel=1e-10)


class TestAdhoc:
    def test_single_antenna_closed_form(self, adhoc_bundle):
        bundle = adhoc_bundle(m=1, lam=0.01)
        mu = adhoc_mu(bundle)
        assert mu == pytest.approx(math.pi**2 * 0.01 / 2.0, rel=1e-13)
        assert coverage(bundle).value == pytest.approx(math.exp(-mu), rel=1e-13)

    def test_single_antenna_with_noise(self, adhoc_bundle):
        bundle = adhoc_bundle(m=1, lam=0.01, noise=0.3, tau=2.0, r0=1.5)
        mu = adhoc_mu(bundle)
        s = 2.0 * 1.5**4 * 0.3
        assert coverage(bundle).value == pytest.approx(math.exp(-mu - s), rel=1e-13)

    def test_mu_against_quadrature(self, adhoc_bundle):
        # E[g^delta] for Gamma(kappa, beta) straight from the integral
        kappa, beta, alpha = 2.2, 0.6, 3.0
        delta = 2.0 / alpha
        moment, _ = integrate.quad(
            lambda g: g**delta * g ** (kappa - 1.0) * math.exp(-g / beta)
            / (math.gamma(kappa) * beta**kappa),
            0.0, 80.0,
        )
        bundle = adhoc_bundle(lam=0.02, r0=1.3, alpha=alpha, tau=1.7, kappa=kappa, beta=beta)
        expected = (math.pi * 0.02 * 1.3**2 * math.gamma(1.0 - delta) * 1.7**delta * moment)
        assert adhoc_mu(bundle) == pytest.approx(expected, rel=1e-10)

    def test_general_law_mu_matches_gamma(self, adhoc_bundle):
        gamma = adhoc_bundle(lam=0.03)
        general = adhoc_bundle(lam=0.03, interferer=InterfererGainSpec(pdf=lambda g: math.exp(-g)))
        assert adhoc_mu(general) == pytest.approx(adhoc_mu(gamma), rel=1e-10)

    def test_duality_in_density_and_distance(self, adhoc_bundle):
        # scaling the dipole distance is the same as scaling the density
        for m in (1, 3, 6):
            a = coverage(adhoc_bundle(m=m, lam=0.08, r0=1.0)).value
            b = coverage(adhoc_bundle(m=m, lam=0.08 * 1.0**2 / 2.5**2, r0=2.5)).value
            assert a == pytest.approx(b, rel=1e-13)

    @pytest.mark.parametrize("alpha", [2.5, 3.7, 6.0])
    def test_entries_are_the_running_product_bit_for_bit(self, adhoc_bundle, alpha):
        # the vectorized f_n must reproduce the scalar recurrence exactly,
        # so ad hoc coverage cannot drift by even one rounding
        bundle = adhoc_bundle(alpha=alpha, noise=0.3, tau=1.7, lam=0.02)
        mu = adhoc_mu(bundle)
        s_noise = 1.7 * 1.0**alpha * 0.3
        delta = 2.0 / alpha
        expected = np.empty(512)
        f = 1.0
        for n in range(512):
            if n > 0:
                f *= (n - 1.0 - delta) / n
            expected[n] = -mu * f
        expected[0] -= s_noise
        expected[1] += s_noise
        for m in range(1, 513):
            assert np.array_equal(adhoc_entries(bundle, m).values, expected[:m]), m

    def test_entry_signs_with_noise(self, adhoc_bundle):
        ent = adhoc_entries(adhoc_bundle(noise=0.4, m=1), 10)
        assert ent.values[0] < 0.0
        assert np.all(ent.values[1:] > 0.0)

    def test_kind_guard(self, cellular_bundle):
        with pytest.raises(ValidationError, match="ad hoc"):
            adhoc_coverage(cellular_bundle())


class TestRepresentationEquivalence:
    def test_random_bundles(self, cellular_bundle, adhoc_bundle):
        rng = np.random.default_rng(42)
        for i in range(40):
            kw = dict(
                m=int(rng.integers(1, 13)),
                tau=float(10.0 ** rng.uniform(-1.0, 1.0)),
                alpha=float(rng.uniform(2.2, 6.0)),
                theta=float(rng.uniform(0.3, 2.5)),
                kappa=float(rng.uniform(0.3, 3.5)),
                beta=float(rng.uniform(0.3, 2.5)),
            )
            if i % 2 == 0:
                bundle = cellular_bundle(**kw)
            else:
                bundle = adhoc_bundle(lam=float(10.0 ** rng.uniform(-3, -1)),
                                      r0=float(rng.uniform(0.4, 2.0)),
                                      noise=float(rng.choice([0.0, 0.2])), **kw)
            a = coverage(bundle).value
            b = toeplitz_coverage(bundle)
            assert abs(a - b) < 1e-12, f"routes disagree on bundle {i}: {a} vs {b}"


class TestGeneralSignalPdf:
    @pytest.mark.parametrize("m,theta", [(1, 1.0), (2, 0.7), (4, 1.4)])
    def test_gamma_pdf_reduces_to_gamma_branch(self, cellular_bundle, m, theta):
        pdf = GeneralSignalPdf(terms=((0, m - 1, 1.0 / theta, 1.0 / (theta**m * math.gamma(m))),))
        bundle = cellular_bundle(m=m, theta=theta)
        combined = coverage_general_pdf(bundle, pdf).value
        assert combined == pytest.approx(cellular_coverage(bundle).value, rel=1e-12)

    def test_hyperexponential_mixture(self, cellular_bundle):
        # w1 Exp(phi1) + w2 Exp(phi2): coverage is the same mixture of
        # single-antenna coverages with scales 1/phi
        w1, w2, phi1, phi2 = 0.35, 0.65, 2.0, 0.5
        pdf = GeneralSignalPdf(terms=((0, 0, phi1, w1 * phi1), (1, 0, phi2, w2 * phi2)))
        bundle = cellular_bundle(m=1)
        direct = (
            w1 * coverage(cellular_bundle(m=1, theta=1.0 / phi1)).value
            + w2 * coverage(cellular_bundle(m=1, theta=1.0 / phi2)).value
        )
        assert coverage_general_pdf(bundle, pdf).value == pytest.approx(direct, rel=1e-12)

    def test_works_for_adhoc_too(self, adhoc_bundle):
        pdf = GeneralSignalPdf(terms=((0, 1, 1.0, 1.0),))  # Gamma(2, 1)
        bundle = adhoc_bundle(m=2)
        assert coverage_general_pdf(bundle, pdf).value == pytest.approx(
            adhoc_coverage(bundle).value, rel=1e-12)


class TestNonPoissonGain:
    def test_shifts_threshold(self, cellular_bundle):
        bundle = cellular_bundle(m=2, tau=2.0)
        shifted = coverage_non_poisson(bundle, deployment_gain=1.6)
        assert shifted.value == pytest.approx(
            coverage(cellular_bundle(m=2, tau=2.0 / 1.6)).value, rel=1e-13)
        assert coverage_non_poisson(bundle, 1.0).value == pytest.approx(
            coverage(bundle).value, rel=1e-14)
        assert shifted.value > coverage(bundle).value

    def test_guards(self, cellular_bundle, adhoc_bundle):
        with pytest.raises(UnsupportedConfigError):
            coverage_non_poisson(adhoc_bundle(), 1.5)
        with pytest.raises(ValidationError):
            coverage_non_poisson(cellular_bundle(), 0.0)


class TestEntrySequence:
    def test_sign_violation_detected(self):
        with pytest.raises(NumericalError, match="sign pattern"):
            EntrySequence(values=np.array([1.0, 0.5]), flavor=CELLULAR)
        with pytest.raises(NumericalError, match="sign pattern"):
            EntrySequence(values=np.array([0.1, 0.5]), flavor=ADHOC)

    def test_unknown_flavor(self):
        with pytest.raises(ValidationError):
            EntrySequence(values=np.array([1.0]), flavor="mesh")

    def test_order_guards(self, cellular_bundle):
        with pytest.raises(ValidationError):
            cellular_entries(cellular_bundle(), 0)
        with pytest.raises(ValidationError):
            cellular_entries(cellular_bundle(), 513)
