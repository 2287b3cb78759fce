"""Closed forms of the noiseless ad hoc improvements, kept as the tests' reference.

The improvement p_bar[n] is coefficient n of exp(A(z)).  For a noiseless ad
hoc scenario it has two closed forms, which share no code with the series
recursion:

* the Stirling/Touchard identity, evaluated in exact rationals (Stirling
  numbers are integers; mu and delta enter as dyadic rationals) with one
  rounding at the end,
* at alpha = 4, a modified Bessel function of half-integer order.
"""

import math
from fractions import Fraction
from functools import lru_cache

from mimocov import adhoc_mu


def bessel_k_half(n: int, x: float) -> float:
    """Modified Bessel function K_{n - 1/2}(x) for integer n >= 0 and x > 0.

    Half-integer orders have a terminating closed form,
    K_{m+1/2}(x) = sqrt(pi/(2x)) e^{-x} sum_{k=0}^{m} (m+k)! / (k! (m-k)! (2x)^k),
    so the result is exact up to rounding.
    """
    m = n - 1 if n >= 1 else 0  # K_{-1/2} = K_{1/2}
    total = 1.0
    term = 1.0
    for k in range(1, m + 1):
        term *= (m + k) * (m - k + 1) / (2.0 * k * x)
        total += term
    return math.sqrt(math.pi / (2.0 * x)) * math.exp(-x) * total


@lru_cache(maxsize=None)
def _stirling1_row(n: int) -> tuple[int, ...]:
    # Signed Stirling numbers of the first kind, row n of the triangle:
    # s(n, k) with (x)_n falling = sum_k s(n, k) x^k.
    if n == 0:
        return (1,)
    prev = _stirling1_row(n - 1)
    row = [0] * (n + 1)
    for k in range(1, n + 1):
        above = prev[k] if k < len(prev) else 0
        row[k] = prev[k - 1] - (n - 1) * above
    return tuple(row)


def stirling_first(n: int, k: int) -> int:
    """Signed Stirling number of the first kind s(n, k), exactly (Python int)."""
    if k > n:
        return 0
    return _stirling1_row(n)[k]


@lru_cache(maxsize=None)
def _stirling2_row(n: int) -> tuple[int, ...]:
    # Stirling numbers of the second kind S(n, k).
    if n == 0:
        return (1,)
    prev = _stirling2_row(n - 1)
    row = [0] * (n + 1)
    for k in range(1, n + 1):
        above = prev[k] if k < len(prev) else 0
        row[k] = k * above + prev[k - 1]
    return tuple(row)


def _touchard_exact(k: int, x: Fraction) -> Fraction:
    """Touchard polynomial T_k(x) = sum_j S(k, j) x^j in exact rationals, so
    the alternating sums at negative x shed no digits."""
    row = _stirling2_row(k)
    acc = Fraction(0)
    power = Fraction(1)
    for j in range(k + 1):
        acc += row[j] * power
        power *= x
    return acc


def adhoc_pbar_closed_form(bundle, n: int) -> float:
    """Improvement coefficient n from the Stirling/Touchard identity."""
    mu = adhoc_mu(bundle)
    if n == 0:
        return math.exp(-mu)
    mu_frac = Fraction(mu)
    delta_frac = Fraction(bundle.delta)
    acc = Fraction(0)
    dpow = Fraction(1)
    for k in range(1, n + 1):
        dpow *= delta_frac
        acc += stirling_first(n, k) * _touchard_exact(k, -mu_frac) * dpow
    signed = acc if n % 2 == 0 else -acc
    return math.exp(-mu) * float(signed / math.factorial(n))


def adhoc_pbar_bessel(bundle, n: int) -> float:
    """Improvement coefficient n from the Bessel identity (alpha = 4 only)."""
    mu = adhoc_mu(bundle)
    front = math.sqrt(2.0 * mu / math.pi)
    log_w = n * math.log(mu / 2.0) - math.lgamma(n + 1.0) if n else 0.0
    return front * math.exp(log_w) * bessel_k_half(n, mu)
