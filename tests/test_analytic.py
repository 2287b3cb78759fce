"""Coverage values are checked against closed forms, against an
independently coded matrix oracle built on scipy's own special functions,
and against the Toeplitz matrix route on the library's own entries; the
Gamma-law entries also against 40-digit mpmath values of their 2F1."""

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
    MimocovError,
    NumericalError,
    SimConfig,
    ValidationError,
    adhoc_entries,
    adhoc_mu,
    cellular_entries,
    coverage,
    coverage_general_pdf,
    improvement_sequence,
    outage_decay_check,
    simulate,
)
from mimocov import analytic
from mimocov.analytic import _rounded_estimate
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
        with pytest.raises(ValidationError, match="Monte Carlo"):
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

    @pytest.mark.parametrize("params, match", [
        (dict(tau=1e300, beta=1e10), "tau beta / theta overflows"),
        (dict(tau=1e300, beta=1e8, alpha=2.001), "cellular entries overflow"),
        (dict(tau=1e300, theta=1e-8, alpha=2.0000001), "cellular entries overflow"),
    ])
    @pytest.mark.parametrize("m", [1, 16])
    def test_overflow_is_a_numerical_error(self, cellular_bundle, params, match, m):
        # x = tau beta / theta past the double range; then a finite x whose
        # scale s = x^delta Gamma(1 - delta) Gamma(kappa + delta) / Gamma(kappa)
        # is not, as Gamma(1 - delta) grows like alpha / (alpha - 2)
        with pytest.raises(NumericalError, match=match):
            coverage(cellular_bundle(m=m, **params))


def _mp_entry(mp, n, delta, kappa, x):
    """Cellular entry n from its definition, Gamma(kappa+n)/(Gamma(kappa) n!)
    delta/(delta-n) x^n 2F1(n+kappa, n-delta; n+1-delta; -x), in mpmath."""
    d, k, x = mp.mpf(delta), mp.mpf(kappa), mp.mpf(x)
    return (mp.gamma(k + n) / (mp.gamma(k) * mp.factorial(n)) * d / (d - n) * x**n
            * mp.hyp2f1(n + k, n - d, n + 1 - d, -x))


def _crossover_tau(order, delta, kappa):
    """Threshold (beta = theta = 1) at which the entry column of this order
    leaves the tail series for the complement: w = (a+1)/(a+q+2) with
    a = max(order-1, 1) - delta, q = kappa + delta and w = tau/(1+tau)."""
    a = max(order - 1, 1) - delta
    w = (a + 1.0) / (a + kappa + delta + 2.0)
    return w / (1.0 - w)


class TestCellularEntryColumn:
    """The Gamma-law entries come from one positive incomplete-beta
    recurrence; they are pinned to 40-digit values of their defining 2F1,
    across orders, and at the edges of the double range."""

    @pytest.mark.parametrize("delta", [0.05, 0.3, 0.5, 0.8, 0.95])
    @pytest.mark.parametrize("kappa", [0.05, 0.5, 1.0, 4.0, 30.0])
    def test_against_mpmath(self, cellular_bundle, delta, kappa):
        # delta = 0.05, kappa = 30, tau = 0.1 includes entry 307 at order 512:
        # -1.21647e-283 at 40 digits, where scipy's betainc route read
        # -1.21840e-283 (its I_w(307-delta, q) was 9.4355e-280, not 9.42063e-280)
        mp = pytest.importorskip("mpmath")
        cases = [(m, tau) for m in (2, 16, 512) for tau in (1e-3, 0.1, 1.0, 10.0, 1e3)]
        cases += [(m, _crossover_tau(m, delta, kappa) * f) for m in (2, 16, 512) for f in (0.999, 1.001)]
        checked = 0
        with mp.workdps(40):
            for m, tau in cases:
                bundle = cellular_bundle(tau=tau, alpha=2.0 / delta, kappa=kappa)
                ours = cellular_entries(bundle, m).values
                for n in sorted({0, 1, 3, 17, 100, 307, m - 1} & set(range(m))):
                    ref = _mp_entry(mp, n, bundle.delta, kappa, tau)
                    if abs(ref) > 1e-300:
                        assert abs(ours[n] - ref) <= 1e-13 * abs(ref), (m, tau, n)
                        checked += 1
        assert checked >= 70

    def test_prefix_of_a_longer_column(self, cellular_bundle):
        # an order sets where the recurrence is anchored and which series
        # anchors it, so the first m entries at order 512 match order m to
        # rounding, not bit for bit
        orders = list(range(1, 17)) + [31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256, 257, 511]
        for alpha, kappa, tau in [(4.0, 1.0, 1.0), (2.5, 0.05, 30.0), (40.0, 0.05, 1e3),
                                  (3.0, 30.0, 0.1), (6.0, 2.0, 100.0), (4.0, 0.5, 3.0)]:
            bundle = cellular_bundle(tau=tau, alpha=alpha, kappa=kappa)
            full = cellular_entries(bundle, 512).values
            for m in orders:
                np.testing.assert_allclose(cellular_entries(bundle, m).values, full[:m],
                                           rtol=1e-13, atol=1e-290,
                                           err_msg=f"alpha={alpha} kappa={kappa} tau={tau} m={m}")

    def test_short_columns_on_python_floats_match_the_numpy_route(self, cellular_bundle,
                                                                    monkeypatch):
        # orders 1 and 2 hold one I_n, and build it on Python floats: the same
        # operations in the same order as the one-element arrays of the NumPy
        # route, so the same bits.  The grid covers the tail, the complement,
        # the tail past the complement's loss bound (kappa = 0.05, alpha = 40)
        # and a large shape near the crossover (kappa = 1e5, beta = 1/kappa).
        cases = []
        for alpha, kappa in [(2.5, 0.5), (4.0, 1.0), (6.0, 4.0), (40.0, 0.05), (4.0, 30.0)]:
            for m in (1, 2):
                cross = _crossover_tau(m, 2.0 / alpha, kappa)
                for tau in (1e-300, 1e-3, 0.3, 1.0, 10.0, 1e3, 1e16, 1e300,
                            cross * 0.999, cross * 1.001):
                    cases.append(cellular_bundle(m=m, tau=tau, alpha=alpha, kappa=kappa))
        for m in (1, 2):
            crossover = _crossover_tau(m, 0.5, 1e5) * 1e5
            cases.append(cellular_bundle(m=m, tau=crossover, kappa=1e5, beta=1e-5))
        scalar = [cellular_entries(b, b.signal.shape).values for b in cases]
        monkeypatch.setattr(analytic, "_SCALAR_ORDER", 0)
        for bundle, values in zip(cases, scalar):
            np.testing.assert_array_equal(values, cellular_entries(bundle, bundle.signal.shape).values)

    @pytest.mark.parametrize("tau", [1e16, 1e100, 1e300, 1e-300, 5e-324])
    def test_thresholds_at_the_edges_of_the_double_range(self, cellular_bundle, tau):
        # x/(1+x) rounds to 1 from x = 1e16 on, so 1 - w is formed as 1/(1+x);
        # a RuntimeWarning fails the suite
        for alpha in (2.05, 4.0, 12.0):
            for kappa in (0.05, 1.0, 30.0):
                for m in (1, 2, 64, 512):
                    bundle = cellular_bundle(m=m, tau=tau, alpha=alpha, kappa=kappa)
                    try:
                        values = cellular_entries(bundle, m).values
                        value = coverage(bundle).value
                    except MimocovError:
                        continue
                    assert np.all(np.isfinite(values))
                    assert values[0] > 0.0 and np.all(values[1:] <= 0.0)
                    assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("m", [1, 16, 512])
    def test_large_interferer_shape(self, cellular_bundle, m):
        # nearly deterministic interferer gains: (1+x)^-kappa is formed as
        # exp(-kappa log1p(x)), since kappa times the rounding of 1+x put
        # coverage up to 8e-14 above 1 at low thresholds for kappa = 1e3
        for kappa in (1e3, 1e4):
            for tau_db in range(-60, 41, 10):
                bundle = cellular_bundle(m=m, tau=10.0 ** (tau_db / 10.0), kappa=kappa, beta=1.0 / kappa)
                assert 0.0 <= coverage(bundle).value <= 1.0

    @pytest.mark.parametrize("alpha, kappa", [(4.0, 1e3), (40.0, 1e3), (2.0 / 0.95, 1e3),
                                              (4.0, 1e4), (40.0, 1e4), (2.0 / 0.95, 1e4),
                                              (40.0, 1e5), (40.0, 1e6),
                                              (100.0, 1e-3), (40.0, 1e-3), (100.0, 0.05)])
    def test_extreme_shapes_against_mpmath(self, cellular_bundle, alpha, kappa):
        # large shapes take Gamma(q)/Gamma(kappa) from Stirling's series
        # (lgamma differences were 7e-13 and 1.3e-11 off at kappa = 1e3 and
        # 1e4); the worst case of these pins is entry 100 at alpha = 40,
        # kappa = 1e5, order 512 just below the crossover, 9.4e-14 off;
        # q = kappa + delta below 0.1 is where the complement cancels, up to
        # 2e-13 off just past the crossover, so the positive tail is summed
        # there instead
        mp = pytest.importorskip("mpmath")
        delta = 2.0 / alpha
        checked = 0
        with mp.workdps(40):
            for m in (2, 16, 512):
                for f in (0.999, 1.001, 2.0):
                    tau = _crossover_tau(m, delta, kappa) * f
                    bundle = cellular_bundle(tau=tau, alpha=alpha, kappa=kappa)
                    ours = cellular_entries(bundle, m).values
                    for n in sorted({0, 1, 3, 17, 100, 307, m - 1} & set(range(m))):
                        ref = _mp_entry(mp, n, bundle.delta, kappa, tau)
                        if abs(ref) > 1e-300:
                            assert abs(ours[n] - ref) <= 1e-13 * abs(ref), (m, f, n)
                            checked += 1
        assert checked >= 30

    def test_huge_interferer_shape_against_mpmath(self, cellular_bundle, monkeypatch):
        # near the crossover the tail or the complement stays within 2^18
        # terms up to kappa = 1e6; from about 1e7 on, twice past it, both run
        # past 2^18 terms, and there I_top is one scalar scipy betainc value
        # and the recurrence gives every other entry from it, so the deep
        # entries of a long column rest on that one anchor
        mp = pytest.importorskip("mpmath")
        from scipy import special

        calls = []
        betainc = special.betainc
        monkeypatch.setattr(special, "betainc", lambda *args: calls.append(args) or betainc(*args))
        cases = [(kappa, m, tau) for kappa in (1e5, 1e6) for m in (1, 2, 3, 16, 64, 512)
                 for tau in (10.0, 100.0, _crossover_tau(m, 0.5, kappa) * kappa)]  # beta = 1/kappa
        anchored = (1e7, 512, 2.0 * _crossover_tau(512, 0.5, 1e7) * 1e7)
        with mp.workdps(40):
            for kappa, m, tau in cases + [anchored]:
                bundle = cellular_bundle(m=m, tau=tau, kappa=kappa, beta=1.0 / kappa)
                calls.clear()
                ours = cellular_entries(bundle, m).values
                assert len(calls) <= 1, (kappa, tau, m)
                if (kappa, m, tau) == anchored:
                    assert len(calls) == 1 and all(np.ndim(a) == 0 for a in calls[0]), (kappa, m)
                for n in sorted(set(range(min(m, 16))) | ({17, 100, 307, m - 1} & set(range(m)))):
                    ref = _mp_entry(mp, n, bundle.delta, kappa, tau / kappa)
                    if abs(ref) > 1e-300:
                        assert abs(ours[n] - ref) <= 1e-13 * abs(ref), (kappa, tau, m, n)
                assert 0.0 <= coverage(bundle).value <= 1.0


class TestRoundingAtTheEdges:
    def test_near_full_coverage_stays_in_range(self, cellular_bundle):
        # at low thresholds the coefficient sum lands up to M eps / 8 above 1
        for alpha in (2.1, 2.5, 3.0, 4.0, 6.0, 8.0, 12.0):
            for tau_db in range(-60, 11, 10):
                for m in (1, 2, 8, 64, 512):
                    for kappa in (0.3, 1.0, 4.0):
                        bundle = cellular_bundle(m=m, tau=10.0 ** (tau_db / 10.0),
                                                 alpha=alpha, kappa=kappa)
                        value = coverage(bundle).value
                        assert 0.0 <= value <= 1.0
                        assert improvement_sequence(bundle, m).coverage_at(m) == value

    def test_beyond_rounding_is_still_refused(self):
        with pytest.raises(NumericalError, match=r"outside \[0, 1\]"):
            _rounded_estimate(1.0 + 1e-9, 512)
        with pytest.raises(NumericalError, match=r"outside \[0, 1\]"):
            _rounded_estimate(-1e-9, 512)
        assert _rounded_estimate(1.0 + 1e-13, 512).value == 1.0


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

    def test_general_law_coverage_reads_the_cached_moment(self, adhoc_bundle):
        # validate integrates E[g^delta] once; coverage must not touch the pdf again
        calls = []

        def pdf(g):
            calls.append(g)
            return math.exp(-g)

        general = adhoc_bundle(m=4, lam=0.03, interferer=InterfererGainSpec(pdf=pdf))
        assert calls
        calls.clear()
        value = coverage(general).value
        assert len(calls) == 0
        assert value == pytest.approx(coverage(adhoc_bundle(m=4, lam=0.03)).value, rel=1e-10)

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

    @pytest.mark.parametrize("r0, lam", [(1e100, 1e-200), (1e150, 1e-300)])
    def test_any_length_scale_with_lambda_r0_squared_fixed(self, adhoc_bundle, r0, lam):
        # noiseless coverage depends on lambda r0^2 alone; r0^alpha is never
        # formed without noise, and r0^2 past the double range is not needed
        for m in (1, 8):
            unit = coverage(adhoc_bundle(m=m, lam=1.0, r0=1.0)).value
            assert coverage(adhoc_bundle(m=m, lam=lam, r0=r0)).value == pytest.approx(
                unit, abs=1e-12)

    def test_huge_but_finite_mu_gives_zero_coverage(self, adhoc_bundle):
        # lambda r0^2 = 1e300: r0^2 overflows, the product does not
        bundle = adhoc_bundle(m=8, lam=1e-300, r0=1e300)
        assert adhoc_mu(bundle) == pytest.approx(math.pi**2 * 1e300 / 2.0, rel=1e-13)
        assert coverage(bundle).value == 0.0

    @pytest.mark.parametrize("lam, r0, noise", [(1.0, 1e300, 0.0), (1e-200, 1e100, 1.0)])
    def test_overflow_is_a_numerical_error(self, adhoc_bundle, lam, r0, noise):
        # mu past the double range, and the noise term tau r0^alpha sigma^2 / theta
        with pytest.raises(NumericalError, match="overflows"):
            coverage(adhoc_bundle(lam=lam, r0=r0, noise=noise))

    @pytest.mark.parametrize("evaluate", [
        coverage,
        lambda b: improvement_sequence(b, 4),
        lambda b: outage_decay_check(b, 4),
        lambda b: simulate(b, SimConfig(trials=100, seed=1)),
    ], ids=["coverage", "improvement_sequence", "outage_decay_check", "simulate"])
    def test_noise_term_overflow_by_the_product(self, adhoc_bundle, evaluate):
        # r0^alpha = 1e20 and noise r0^alpha, tau r0^alpha are finite, but
        # the product with the noise passes the double range, on both paths
        bundle = adhoc_bundle(m=4, tau=1e10, r0=1e5, lam=1e-12, noise=1e300)
        with pytest.raises(NumericalError, match="noise"):
            evaluate(bundle)


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
        pdf = GeneralSignalPdf(terms=((m - 1, 1.0 / theta, 1.0 / (theta**m * math.gamma(m))),))
        bundle = cellular_bundle(m=m, theta=theta)
        combined = coverage_general_pdf(bundle, pdf).value
        assert combined == pytest.approx(coverage(bundle).value, rel=1e-12)

    def test_hyperexponential_mixture(self, cellular_bundle):
        # w1 Exp(phi1) + w2 Exp(phi2): coverage is the same mixture of
        # single-antenna coverages with scales 1/phi
        w1, w2, phi1, phi2 = 0.35, 0.65, 2.0, 0.5
        pdf = GeneralSignalPdf(terms=((0, phi1, w1 * phi1), (0, phi2, w2 * phi2)))
        bundle = cellular_bundle(m=1)
        direct = (
            w1 * coverage(cellular_bundle(m=1, theta=1.0 / phi1)).value
            + w2 * coverage(cellular_bundle(m=1, theta=1.0 / phi2)).value
        )
        assert coverage_general_pdf(bundle, pdf).value == pytest.approx(direct, rel=1e-12)

    def test_works_for_adhoc_too(self, adhoc_bundle):
        pdf = GeneralSignalPdf(terms=((1, 1.0, 1.0),))  # Gamma(2, 1)
        bundle = adhoc_bundle(m=2)
        assert coverage_general_pdf(bundle, pdf).value == pytest.approx(
            coverage(bundle).value, rel=1e-12)


class TestEntrySequence:
    def test_sign_violation_detected(self):
        with pytest.raises(NumericalError, match="sign pattern"):
            EntrySequence(values=np.array([1.0, 0.5]), flavor=CELLULAR)
        with pytest.raises(NumericalError, match="sign pattern"):
            EntrySequence(values=np.array([0.1, 0.5]), flavor=ADHOC)

    def test_error_classes(self):
        # a non-finite column and a finite one off its sign pattern are one
        # NumericalError, whose message names both conditions
        inf, nan = math.inf, math.nan
        for values, flavor in [([1.0, -inf], CELLULAR), ([nan, -1.0], CELLULAR),
                               ([-1.0, inf], ADHOC), ([-1.0, nan], ADHOC)]:
            with pytest.raises(NumericalError, match="finite"):
                EntrySequence(values=np.array(values), flavor=flavor)
        for values, flavor in [([1.0, 0.5], CELLULAR), ([0.1, 0.5], ADHOC), ([0.0, 0.5], ADHOC)]:
            with pytest.raises(NumericalError, match="sign pattern"):
                EntrySequence(values=np.array(values), flavor=flavor)

    def test_all_zero_adhoc_column_is_valid(self, adhoc_bundle):
        # mu underflows to 0 with no noise: exp(0) = 1, so coverage is 1;
        # a cellular column with a zero head stays refused
        for m in (1, 2, 9):
            values = np.zeros(m)
            values[0] = -0.0
            EntrySequence(values=values, flavor=ADHOC)
            with pytest.raises(NumericalError, match="sign pattern"):
                EntrySequence(values=values, flavor=CELLULAR)
        bundle = adhoc_bundle(m=4, alpha=2.1, tau=1e-300, r0=1e-100, lam=1.0)
        assert adhoc_mu(bundle) == 0.0
        assert coverage(bundle).value == 1.0

    def test_unknown_flavor(self):
        with pytest.raises(ValidationError):
            EntrySequence(values=np.array([1.0]), flavor="mesh")

    def test_validation(self):
        # the one check of a column: the series kernels take it as given
        for values in ([], [[1.0, -2.0], [-3.0, -4.0]]):
            with pytest.raises(ValidationError):
                EntrySequence(values=values, flavor=CELLULAR)
        for values in ([1.0, math.nan], [math.inf, -1.0]):
            with pytest.raises(NumericalError):
                EntrySequence(values=values, flavor=CELLULAR)

    def test_values_are_a_fresh_copy(self):
        src = np.array([1.0, -2.0])
        entries = EntrySequence(values=src, flavor=CELLULAR)
        entries.values[0] = 9.0
        assert src[0] == 1.0

    def test_order_guards(self, cellular_bundle):
        with pytest.raises(ValidationError):
            cellular_entries(cellular_bundle(), 0)
        with pytest.raises(ValidationError):
            cellular_entries(cellular_bundle(), 513)
