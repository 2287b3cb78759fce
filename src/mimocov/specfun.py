"""Ratio series of the Gauss hypergeometric function 2F1(a, b; c; z): the
one place that knows how long such a series must be and how to sum it.

``ratio_count`` is the one tail bound.  ``GaussSeries`` sums 2F1(a, b; c; z)
at many z over ratios formed once: ``hyp2f1`` and the decay-rate root in
``insights``.  ``ratio_terms`` and ``ratio_sum`` sum 2F1(c+e, 1; c; z) once,
from a given first term and with the rounding drift of z undone: the
Gamma-law cellular entries in ``analytic``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericalError

# A series leaves out less than _TAIL_RTOL of the sum of its terms'
# magnitudes; longer series than _MAX_TERMS are refused.
_TAIL_RTOL = 1e-17
_LOG_TAIL_RTOL = math.log(_TAIL_RTOL)
_MAX_TERMS = 1 << 18
# ratio_sum adds up to this many terms by a Python loop, which costs less than
# the NumPy calls below 35-55 terms (0.3 against 11.6 us at 1 term, 5.9 against 9.8 at 32)
_SCALAR_TERMS = 32


def ratio_count(z: float, c: float, e: float, e1: float = 0.0, m: int = 0) -> float:
    """Number n of terms t_0 .. t_{n-1} that leaves out less than tol =
    _TAIL_RTOL of sum_k |t_k|, for a series with term ratios
    z (p1+k)/(k+1) (p2+k)/(c+k), excesses E1 = max(p1-1, 0) = ``e1`` and
    E2 = max(p2-c, 0) = max(``e``, 0), and m the least split with p1, p2 and
    c plus m positive; 1 at z = 0, inf at z >= 1 or past _MAX_TERMS.  The
    defaults count 2F1(c+e, 1; c; z), the series of ``ratio_terms``.

    From any split k >= m each factor moves toward 1, so the ratios from k on
    are at most rho(k) = z (1 + E1/(k+1)) (1 + E2/(c+k)), and where rho < 1,
    n(k) = k + ln(tol (1-rho)) / ln rho terms leave out less than tol.  n is
    the smaller of n(m) and n(u-s): with e' = z (E1+E2), v = (e' + sqrt(e'^2
    + 4 z (1-z) E1 E2)) / 2 and L = -ln tol, u = (v + sqrt(L e')) / (1-z)
    roughly minimizes n, and s = c if E1 = 0, 1 if E2 = 0, else min(1, c),
    keeps rho(u-s) < 1.
    """
    if not 0.0 < z < 1.0:
        return 1 if z == 0.0 else math.inf
    e2 = e if e > 0.0 else 0.0
    rho = z * (1.0 + e1 / (m + 1.0)) * (1.0 + e2 / (c + m))
    n = m + math.ceil((_LOG_TAIL_RTOL + math.log1p(-rho)) / math.log(rho)) if rho < 1.0 else math.inf
    ez = z * (e1 + e2)
    if ez > 0.0:
        if e1 == 0.0 or e2 == 0.0:
            v, s = ez, c if e1 == 0.0 else 1.0
        else:
            v = 0.5 * (ez + math.hypot(ez, 2.0 * math.sqrt(z * (1.0 - z)) * math.sqrt(e1) * math.sqrt(e2)))
            s = c if c < 1.0 else 1.0
        split = (v + math.sqrt(-_LOG_TAIL_RTOL * ez)) / (1.0 - z) - s
        if m < split < n - 1.0 and split < _MAX_TERMS:
            k = math.ceil(split)
            rho = z * (1.0 + e1 / (k + 1.0)) * (1.0 + e2 / (c + k))
            count = k + math.ceil((_LOG_TAIL_RTOL + math.log1p(-rho)) / math.log(rho))
            n = count if count < n else n
    return n if n <= _MAX_TERMS else math.inf


def rounding_drift(value: float, num: int, den: int) -> float:
    """Relative rounding error num/(den value) - 1 of a float ``value`` that
    rounds the exact ratio num/den of two integers.  A power value^k is off
    by k times it, which a long running product must not ignore."""
    vn, vd = value.as_integer_ratio()
    return (num * vd - den * vn) / (den * vn)


def ratio_terms(z: float, drift: float, c: float, e: float, n: int, first: float = 1.0) -> np.ndarray:
    """t_j = first prod_{i<j} z (c+e+i)/(c+i), j < n, for c > 1: one running
    product from ``first`` (scaled afterwards, it could leave the double
    range), each ratio formed as z + z e/(c+i).  t_j carries z^j, so the
    relative rounding ``drift`` of z enters it as j drift, and is undone."""
    j = np.arange(float(n))
    t = z + z * e / (c - 1.0 + j)
    t[0] = first
    np.multiply.accumulate(t, out=t)
    t *= 1.0 + drift * j
    return t


def ratio_sum(z: float, drift: float, c: float, e: float, n: int) -> float:
    """The sum of ``ratio_terms(z, drift, c, e, n)``: 2F1(c+e, 1; c; z) to n terms."""
    if n <= _SCALAR_TERMS:
        total, moment, term = 1.0, 0.0, 1.0
        for j in range(1, n):
            term *= z + z * e / (c + (j - 1))
            total += term
            moment += j * term
        return total + drift * moment
    return np.add.reduce(ratio_terms(z, drift, c, e, n))


class GaussSeries:
    """The defining series of 2F1(a, b; c; z) for fixed a, b, c; calling it
    at 0 <= z < 1 sums the series there, over ``terms(z)`` terms."""

    def __init__(self, a: float, b: float, c: float):
        self.params = (a, b, c)
        # pair p1 with k+1 and p2 with c+k, whichever way leaves less excess
        p1, p2 = (b, a) if max(b - 1.0, 0.0) + max(a - c, 0.0) < max(a - 1.0, 0.0) + max(b - c, 0.0) else (a, b)
        self._bound = (c, p2 - c, max(p1 - 1.0, 0.0), max(0, 1 + math.floor(-min(a, b, c))))
        self._ratios = np.empty(0)

    def terms(self, z: float) -> float:
        """``ratio_count`` at z: 1 at z = 0, inf at z >= 1 or past _MAX_TERMS."""
        return ratio_count(z, *self._bound)

    def __call__(self, z: float) -> float:
        """1 + sum of terms t_1 .. t_{n-1} at z, n = ``terms(z)``: one running
        product.  Overflow is left to the caller's ``np.errstate``; a product
        that overflows makes the sum infinite (or nan)."""
        n = self.terms(z)
        if n > _MAX_TERMS:
            raise NumericalError(f"2F1{self.params} at z = {z!r} needs more than {_MAX_TERMS} series terms")
        ratios = self._ratios
        if ratios.size < n - 1:
            a, b, c = self.params
            k = np.arange(float(max(n - 1, 2 * ratios.size)))
            ratios = self._ratios = (a + k) / (k + 1.0) * ((b + k) / (c + k))
        t = ratios[:n - 1] * z
        np.multiply.accumulate(t, out=t)
        return float(1.0 + np.add.reduce(t))


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric function 2F1(a, b; c; z) for 0 <= z < 1.

    Sums the defining series by ``GaussSeries``.  Negative arguments raise
    ``DomainError``: the entry-shaped 2F1(n+kappa, n-delta; n+1-delta; -x)
    is evaluated in ``analytic.cellular_entries_gamma`` by the
    incomplete-beta recurrence.
    """
    for name, value in zip("abcz", (a, b, c, z)):
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")
    if c <= 0.0 and c == math.floor(c):
        raise DomainError(f"2F1 undefined for non-positive integer c = {c}")
    if z < 0.0:
        raise DomainError(f"2F1 is evaluated on 0 <= z < 1 only, got z = {z}")
    if z >= 1.0:
        raise NumericalError(f"2F1(a={a}, b={b}, c={c}, z={z}): argument must lie left of the z = 1 singularity")
    if z == 0.0 or a == 0.0 or b == 0.0:
        return 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        total = GaussSeries(a, b, c)(z)
    if not math.isfinite(total):
        raise NumericalError(f"series overflowed for 2F1(a={a}, b={b}, c={c}, z={z})")
    return total
