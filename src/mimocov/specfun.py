"""Scalar special functions backing the closed-form coverage entries.

Everything in this module is a pure function of plain Python numbers.  The
hypergeometric evaluators sum their defining series on the non-negative
arguments that decay-rate root finding produces: 1F1(a; b; z) with z >= 0
and 2F1(a, b; c; z) with 0 <= z < 1.  The cellular interference entries
call neither at negative argument: ``analytic`` evaluates them through
incomplete beta and incomplete gamma functions.  Series are summed with a
relative term cutoff and a hard iteration cap; hitting the cap raises
instead of returning a truncated sum.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, NumericalError

# Series controls shared by both hypergeometric evaluators.
_MAX_TERMS = 100_000
_TERM_RTOL = 1e-16

_STIRLING_MAX = 64


def _check_finite(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")


def _sum_by_ratio(ratio, context: str) -> float:
    """Sum 1 + t1 + t2 + ... where t_{k+1} = t_k * ratio(k).

    Stops once two consecutive terms fall below the relative cutoff (a lone
    tiny term can be an accidental zero of a Pochhammer factor, not
    convergence).  Raises on the iteration cap or non-finite partial sums.
    """
    total = 1.0
    term = 1.0
    small = 0
    for k in range(_MAX_TERMS):
        term *= ratio(k)
        total += term
        if term == 0.0:
            return total
        if abs(term) <= _TERM_RTOL * abs(total):
            small += 1
            if small >= 2:
                return total
        else:
            small = 0
        if not math.isfinite(total):
            raise NumericalError(f"series overflowed for {context}")
    raise NumericalError(f"series failed to converge within {_MAX_TERMS} terms for {context}")


def hyp1f1(a: float, b: float, z: float) -> float:
    """Kummer's confluent hypergeometric function 1F1(a; b; z) for z >= 0.

    Sums the defining series.  Negative arguments raise ``DomainError``, as
    in ``hyp2f1``: the alternating series loses all precision long before
    z = -30, and the entry-shaped 1F1(a; a+1; -x) = a x^-a gamma(a, x) is
    evaluated in ``analytic.cellular_entries_general`` through incomplete
    gamma functions.
    """
    _check_finite(a=a, b=b, z=z)
    if b <= 0.0 and b == math.floor(b):
        raise DomainError(f"1F1 undefined for non-positive integer b = {b}")
    if z < 0.0:
        raise DomainError(f"1F1 is evaluated on z >= 0 only, got z = {z}")
    if z == 0.0 or a == 0.0:
        return 1.0
    if a == b:
        return math.exp(z)
    return _sum_by_ratio(
        lambda k: (a + k) * z / ((b + k) * (k + 1.0)),
        f"1F1(a={a}, b={b}, z={z})",
    )


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric function 2F1(a, b; c; z) for 0 <= z < 1.

    Sums the defining series.  Negative arguments raise ``DomainError``:
    the entry-shaped 2F1(n+kappa, n-delta; n+1-delta; -x) is evaluated in
    ``analytic.cellular_entries_gamma`` through incomplete beta functions.
    """
    _check_finite(a=a, b=b, c=c, z=z)
    if c <= 0.0 and c == math.floor(c):
        raise DomainError(f"2F1 undefined for non-positive integer c = {c}")
    if z < 0.0:
        raise DomainError(f"2F1 is evaluated on 0 <= z < 1 only, got z = {z}")
    if z >= 1.0:
        raise NumericalError(f"2F1(a={a}, b={b}, c={c}, z={z}): argument must lie left of the z = 1 singularity")
    if z == 0.0 or a == 0.0 or b == 0.0:
        return 1.0
    return _sum_by_ratio(
        lambda k: (a + k) * (b + k) * z / ((c + k) * (k + 1.0)),
        f"2F1(a={a}, b={b}, c={c}, z={z})",
    )


def bessel_k_half(n: int, x: float) -> float:
    """Modified Bessel function K_{n - 1/2}(x) for integer n >= 0 and x > 0.

    Half-integer orders have a terminating closed form,
    K_{m+1/2}(x) = sqrt(pi/(2x)) e^{-x} sum_{k=0}^{m} (m+k)! / (k! (m-k)! (2x)^k),
    so the result is exact up to rounding; no series control is needed.
    """
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"order index must be a non-negative integer, got {n!r}")
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"bessel_k_half requires x > 0, got {x!r}")
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
    if not isinstance(n, int) or not isinstance(k, int) or n < 0 or k < 0:
        raise DomainError(f"stirling_first takes non-negative integers, got ({n!r}, {k!r})")
    if n > _STIRLING_MAX:
        raise DomainError(f"stirling_first order {n} exceeds the guard {_STIRLING_MAX}")
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

