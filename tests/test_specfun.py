"""The special functions are the numerical bedrock, so they are checked
against scipy and against integral representations that share no code with
the series implementations."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special as sps
from scipy import integrate

from mimocov import DomainError, NumericalError, cellular_entries
from mimocov.specfun import (
    _touchard_exact,
    bessel_k_half,
    hyp1f1,
    hyp2f1,
    stirling_first,
)


class TestHyp1f1:
    @pytest.mark.parametrize("a", [-0.9, -0.5, 0.5, 1.0, 2.5, 5.0])
    @pytest.mark.parametrize("z", [0.5, 5.0, 50.0])
    def test_against_scipy(self, a, z):
        b = a + 1.0  # the parameter pattern every entry evaluation uses
        assert hyp1f1(a, b, z) == pytest.approx(float(sps.hyp1f1(a, b, z)), rel=1e-10)

    @pytest.mark.parametrize("z", [-1e-300, -0.5, -50.0, -math.inf])
    def test_negative_argument_rejected(self, z):
        with pytest.raises(DomainError):
            hyp1f1(0.5, 1.5, z)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("delta", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("y", [0.3, 1.0, 8.0])
    def test_quadrature_oracle(self, delta, y):
        # 1F1(-delta; 1-delta; y) = 1 - delta * int_0^1 (e^{y v} - 1) v^{-1-delta} dv,
        # an integral representation that exercises exactly the section used
        # by the general-law decay-rate equation.
        val, _ = integrate.quad(
            lambda v: math.expm1(y * v) * v ** (-1.0 - delta), 0.0, 1.0,
            epsabs=1e-13, epsrel=1e-12, limit=200,
        )
        assert hyp1f1(-delta, 1.0 - delta, y) == pytest.approx(1.0 - delta * val, rel=1e-9)

    def test_degenerate_cases(self):
        assert hyp1f1(0.0, 1.5, 3.0) == 1.0
        assert hyp1f1(2.0, 2.0, 1.25) == pytest.approx(math.exp(1.25), rel=1e-14)
        assert hyp1f1(1.0, 2.0, 0.0) == 1.0

    def test_nonpositive_integer_denominator_rejected(self):
        with pytest.raises(DomainError):
            hyp1f1(1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            hyp1f1(1.0, -3.0, 1.0)

    def test_overflow_is_reported(self):
        with pytest.raises(NumericalError):
            hyp1f1(5.0, 5.5, 800.0)


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

    def test_nonpositive_integer_denominator_rejected(self):
        with pytest.raises(DomainError):
            hyp2f1(1.0, 1.0, -2.0, 0.5)


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

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_k_half(-1, 1.0)
        with pytest.raises(DomainError):
            bessel_k_half(2, 0.0)


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

    def test_stirling_guard(self):
        with pytest.raises(DomainError):
            stirling_first(65, 1)

    def test_touchard_bell_numbers(self):
        # T_k(1) are the Bell numbers
        assert [_touchard_exact(k, Fraction(1)) for k in range(7)] == [1, 1, 2, 5, 15, 52, 203]

    def test_touchard_recurrence(self):
        # T_{n+1}(x) = x sum_k C(n, k) T_k(x), exactly, also at negative x
        x = Fraction(-53, 4)
        for n in range(10):
            rhs = x * sum(math.comb(n, k) * _touchard_exact(k, x) for k in range(n + 1))
            assert _touchard_exact(n + 1, x) == rhs
