"""The defining series of the Gauss hypergeometric function 2F1(a, b; c; z).

``GaussSeries`` is the one kernel that sums it, on 0 < z < 1: one NumPy
running product per z, over term ratios formed once per (a, b, c) and as
many terms as a proven tail bound asks for.  Its callers are ``hyp2f1`` and
the cellular decay-rate root in ``insights``, which sums the root equation
2F1(kappa, -delta; 1-delta; w) and, for interferer shapes below 1, the
tail 2F1(1-delta-kappa, 1; 2-kappa; 1-w) of its connection formula.  The
cellular entries never need 2F1 at negative argument: ``analytic`` uses an
incomplete-beta recurrence (Gamma laws) and incomplete gamma functions.
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


class GaussSeries:
    """The defining series of 2F1(a, b; c; z) for fixed a, b, c; calling it
    at 0 < z < 1 sums the series there.

    With p = max(a, b), q = min(a, b) and the excesses E1 = max(p-1, 0),
    E2 = max(q-c, 0), the ratio of terms k+1 and k, z (p+k)/(k+1) (q+k)/(c+k),
    is at most rho = z (1 + E1/(m+1)) (1 + E2/(c+m)) for every k >= m once
    p+m, q+m and c+m are positive, since each factor then moves monotonically
    toward 1.  So what follows term n-1 is at most |t_m| rho^(n-m) / (1 - rho),
    a share rho^(n-m) / (1 - rho) of sum_k |t_k| at most.  Both factors are at
    most 1 + E_i/u for u = m + s (s = 1, or min(1, c) when E2 > 0), so rho < 1
    once (1-z) u > v = (e + sqrt(e^2 + 4 z (1-z) E1 E2)) / 2, e = z (E1 + E2);
    u = (v + sqrt(L e)) / (1-z), L = -ln _TAIL_RTOL, roughly minimizes n.  For
    E2 = 0 that is (e + sqrt(L e)) / (1-z), and n is about
    (sqrt(e) + sqrt(L))^2 / (1-z).
    """

    def __init__(self, a: float, b: float, c: float):
        p, q = max(a, b), min(a, b)
        e1, e2 = max(p - 1.0, 0.0), max(q - c, 0.0)
        self.params = (a, b, c)
        # the z-free parts of the bound: E1, E2, c, sqrt(E1) sqrt(E2) (which
        # cannot overflow), s, and the least m with q+m and c+m positive
        self._bound = (e1, e2, c, math.sqrt(e1) * math.sqrt(e2), min(1.0, c) if e2 > 0.0 else 1.0,
                       max(1, 1 + math.floor(-min(q, c))))
        self._ratios = np.empty(0)

    def terms(self, z: float) -> float:
        """Number n of terms t_0 .. t_{n-1} that leaves out less than
        _TAIL_RTOL of sum_k |t_k|, for 0 < z < 1; inf when n would pass
        _MAX_TERMS by the split point alone (n >= u - 1)."""
        e1, e2, c, cross, shift, m_min = self._bound
        e = z * (e1 + e2)
        v = 0.5 * (e + math.hypot(e, 2.0 * math.sqrt(z * (1.0 - z)) * cross))
        u = (v + math.sqrt(-_LOG_TAIL_RTOL * e)) / (1.0 - z)
        if not u <= _MAX_TERMS + 1:
            return math.inf
        m = max(m_min, math.ceil(u - shift))
        rho = z * (1.0 + e1 / (m + 1.0)) * (1.0 + e2 / (c + m))
        return m + math.ceil((_LOG_TAIL_RTOL + math.log1p(-rho)) / math.log(rho))

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
