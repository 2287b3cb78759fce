"""The special functions are the numerical bedrock, so they are checked
against scipy and against integral representations that share no code with
the series implementations."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special as sps
from scipy import integrate

from mimocov import DomainError, NumericalError, cellular_entries, specfun
from mimocov.specfun import hyp2f1
from closed_form_oracle import _touchard_exact, bessel_k_half, stirling_first


def _entry_hyp2f1(cellular_bundle, a, b, c, z):
    """2F1(a, b; c; z) for z < 0, read back from a cellular interference entry.

    The package evaluates 2F1 at negative arguments only inside the cellular
    entries, in the shape 2F1(n+kappa, n-delta; n+1-delta; -x).  Entry n
    divided by its prefactor Gamma(kappa+n)/(Gamma(kappa) n!) delta/(delta-n) x^n
    is that factor.
    """
    assert z < 0.0 and c == b + 1.0
    n = math.floor(b) + 1
    kappa, x = a - n, -z
    bundle = cellular_bundle(m=n + 1, tau=x, alpha=2.0 / (n - b), kappa=kappa)
    delta = bundle.delta
    entry = cellular_entries(bundle, n + 1).values[n]
    log_pref = math.lgamma(kappa + n) - math.lgamma(kappa) - math.lgamma(n + 1.0) + n * math.log(x)
    ratio = delta / (delta - n) if n else 1.0
    return entry / (ratio * math.exp(log_pref))


class TestHyp2f1:
    """``hyp2f1`` sums the series on [0, 1); the cases with z < 0 check the
    incomplete-beta closed form of the cellular entries instead."""

    # entry-shaped parameters (c = b + 1): n = 0, 2, 0 with delta = 0.5, 0.5, 0.3
    @pytest.mark.parametrize("abc", [(1.0, -0.5, 0.5), (3.5, 1.5, 2.5), (0.7, -0.3, 0.7)])
    @pytest.mark.parametrize("z", [-30.0, -1.0, -0.1, 0.2, 0.9])
    def test_against_scipy(self, cellular_bundle, abc, z):
        a, b, c = abc
        ours = hyp2f1(a, b, c, z) if z >= 0.0 else _entry_hyp2f1(cellular_bundle, a, b, c, z)
        assert ours == pytest.approx(float(sps.hyp2f1(a, b, c, z)), rel=1e-10)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("delta", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("x", [0.5, 1.0, 5.0])
    def test_quadrature_oracle(self, cellular_bundle, kappa, delta, x):
        # 2F1(kappa, -delta; 1-delta; -x) = 1 + delta * int_0^1 (1 - (1+x v)^{-kappa}) v^{-1-delta} dv
        # (this is the n = 0 cellular entry, so it pins the head of the series)
        val, _ = integrate.quad(
            lambda v: (1.0 - (1.0 + x * v) ** -kappa) * v ** (-1.0 - delta), 0.0, 1.0,
            epsabs=1e-13, epsrel=1e-12, limit=200,
        )
        ours = _entry_hyp2f1(cellular_bundle, kappa, -delta, 1.0 - delta, -x)
        assert ours == pytest.approx(1.0 + delta * val, rel=1e-9)

    @pytest.mark.parametrize("abcz", [(2.0, 1.5, 0.5, 0.5), (3.0, 2.5, 0.3, 0.9),
                                      (30.0, 25.0, 0.5, 0.5), (1.5, 3.5, 2.5, 0.9)])
    def test_parameters_above_c_against_scipy(self, abcz):
        # min(a, b) > c, or the larger parameter second: the tail bound's
        # other factor and pairing
        assert hyp2f1(*abcz) == pytest.approx(float(sps.hyp2f1(*abcz)), rel=1e-10)

    def test_closed_form_section(self):
        # 2F1(1, -1/2; 1/2; w) = 1 - sqrt(w) artanh(sqrt(w)) on (0, 1)
        for w in (0.1, 0.5, 0.69, 0.95):
            r = math.sqrt(w)
            assert hyp2f1(1.0, -0.5, 0.5, w) == pytest.approx(1.0 - r * math.atanh(r), rel=1e-12)

    def test_high_order_entry_parameters(self, cellular_bundle):
        # deep entries pair large symmetric parameters with negative z; this is
        # where a naive direct series would cancel catastrophically
        n, kappa, delta, x = 100, 1.0, 0.5, 1.0
        ours = _entry_hyp2f1(cellular_bundle, n + kappa, n - delta, n + 1.0 - delta, -x)
        assert ours == pytest.approx(float(sps.hyp2f1(n + kappa, n - delta, n + 1.0 - delta, -x)),
                                     rel=1e-9)

    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError, match="0 <= z < 1"):
            hyp2f1(1.0, -0.5, 0.5, -1.0)

    def test_unit_argument_rejected(self):
        with pytest.raises(NumericalError):
            hyp2f1(1.0, 1.0, 2.5, 1.0)

    def test_series_past_the_cap_is_refused_before_any_array(self, monkeypatch):
        # 2F1(1, 1; 2; z) = -log(1-z)/z needs about 5.5e8 terms at 1 - 1e-7;
        # the count alone refuses it, before a ratio array is built
        def no_arrays(*args, **kwargs):
            raise AssertionError("a ratio array was built")

        monkeypatch.setattr(specfun.np, "arange", no_arrays)
        with pytest.raises(NumericalError, match="series terms"):
            hyp2f1(1.0, 1.0, 2.0, 1.0 - 1e-7)

    @pytest.mark.parametrize("args, name", [((math.nan, 1.0, 2.0, 0.5), "a"),
                                            ((1.0, math.inf, 2.0, 0.5), "b"),
                                            ((1.0, 1.0, -math.inf, 0.5), "c"),
                                            ((1.0, 1.0, 2.0, math.nan), "z")])
    def test_non_finite_argument_rejected(self, args, name):
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            hyp2f1(*args)

    def test_nonpositive_integer_denominator_rejected(self):
        with pytest.raises(DomainError):
            hyp2f1(1.0, 1.0, -2.0, 0.5)


def _entry_series(m, delta, kappa, x):
    """(z, c, e) of the tail and the complement of the Gamma-law cellular
    entries at order m: 2F1(a+q, 1; a+1; w) and 2F1(a+q, 1; q+1; 1-w), with
    a = max(m-1, 1) - delta, q = kappa + delta and w = x/(1+x)."""
    a, q = max(m - 1, 1) - delta, kappa + delta
    return [(x / (1.0 + x), a + 1.0, q - 1.0), (1.0 / (1.0 + x), q + 1.0, a - 1.0)]


class TestRatioSeries:
    """The ratio series of the cellular entries, 2F1(c+e, 1; c; z), counted by
    the same tail bound as ``GaussSeries`` and summed by one running product."""

    @pytest.mark.parametrize("kappa", [0.05, 1.0, 30.0, 1e4, 1e6])
    def test_count_meets_the_tolerance_with_few_spare_terms(self, kappa):
        # around the tail/complement crossover of the entries (f times its
        # threshold), where a first-ratio bound asked for 38211 tail terms at
        # kappa = 1e4, m = 2 and 21 do
        series = []
        for m, delta, f in itertools.product((1, 2, 16, 512), (0.05, 0.5, 0.95), (0.5, 1.001, 2.0)):
            a, q = max(m - 1, 1) - delta, kappa + delta
            w = (a + 1.0) / (a + q + 2.0)
            series += _entry_series(m, delta, kappa, f * w / (1.0 - w))
        for z, c, e in series:
            n = specfun.ratio_count(z, c, e)
            assert n == specfun.GaussSeries(c + e, 1.0, c).terms(z)
            if n == math.inf:
                continue
            k = np.arange(8.0 * n + 64.0)
            mags = np.exp(np.cumsum(np.log(z * (c + e + k) / (c + k))))  # t_1, t_2, ...
            tails = np.cumsum(mags[::-1])[::-1]  # tails[j] = sum_{i > j} t_i
            total = 1.0 + tails[0]
            assert mags[-1] <= 1e-30 * total
            assert tails[n - 1] <= 1e-17 * total
            fewest = 1 + int(np.argmax(tails <= 1e-17 * total))
            assert n <= 1.6 * fewest + 2

    def test_count_at_the_ends(self):
        assert specfun.ratio_count(0.0, 2.5, 3.0) == 1
        assert specfun.ratio_count(1.0, 2.5, 3.0) == math.inf
        assert specfun.ratio_count(1.5, 2.5, 3.0) == math.inf
        assert specfun.ratio_count(1.0 - 1e-9, 2.5, 3.0) == math.inf  # past 2^18 terms

    @pytest.mark.parametrize("n", [1, 2, 20, 32, 33, 400])
    def test_sum_and_terms_agree(self, n):
        # the Python loop (up to 32 terms) and the NumPy product
        z, drift, c, e = 0.7, 3e-17, 1.6, 2.5
        t = specfun.ratio_terms(z, drift, c, e, n, first=0.25)
        exact = [Fraction(1)]
        for i in range(n - 1):
            exact.append(exact[-1] * Fraction(z) * (1 + Fraction(drift)) * (Fraction(c) + Fraction(e) + i)
                         / (Fraction(c) + i))
        np.testing.assert_allclose(t, [0.25 * float(v) for v in exact], rtol=1e-14)
        assert specfun.ratio_sum(z, drift, c, e, n) == pytest.approx(float(sum(exact)), rel=1e-14)


class TestBesselKHalf:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 17, 30])
    @pytest.mark.parametrize("x", [0.05, 0.5, 2.0, 10.0])
    def test_against_scipy(self, n, x):
        assert bessel_k_half(n, x) == pytest.approx(float(sps.kv(n - 0.5, x)), rel=1e-12)

    def test_three_term_recurrence(self):
        # K_{nu+1}(x) = K_{nu-1}(x) + (2 nu / x) K_nu(x)
        x = 1.7
        for n in range(1, 12):
            nu = n - 0.5
            lhs = bessel_k_half(n + 1, x)
            rhs = bessel_k_half(n - 1, x) + (2.0 * nu / x) * bessel_k_half(n, x)
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestExactCombinatorics:
    def test_stirling_first_expands_falling_factorial(self):
        # (x)_n = sum_k s(n, k) x^k, checked in exact rational arithmetic
        for n in range(9):
            for x in (Fraction(3, 7), Fraction(-5, 2), Fraction(4)):
                falling = Fraction(1)
                for j in range(n):
                    falling *= x - j
                expanded = sum(stirling_first(n, k) * x**k for k in range(n + 1))
                assert expanded == falling

    def test_stirling_first_known_row(self):
        assert [stirling_first(4, k) for k in range(5)] == [0, -6, 11, -6, 1]
        assert stirling_first(5, 7) == 0

    def test_touchard_bell_numbers(self):
        # T_k(1) are the Bell numbers
        assert [_touchard_exact(k, Fraction(1)) for k in range(7)] == [1, 1, 2, 5, 15, 52, 203]

    def test_touchard_recurrence(self):
        # T_{n+1}(x) = x sum_k C(n, k) T_k(x), exactly, also at negative x
        x = Fraction(-53, 4)
        for n in range(10):
            rhs = x * sum(math.comb(n, k) * _touchard_exact(k, x) for k in range(n + 1))
            assert _touchard_exact(n + 1, x) == rhs
