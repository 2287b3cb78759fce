"""The Gauss hypergeometric series in the tail of the decay-rate connection formula.

``hyp2f1`` is a pure function of plain Python numbers.  It sums the
defining series of 2F1(a, b; c; z) on 0 <= z < 1.  Its one library caller
is the cellular decay-rate root for interferer shapes below 1, which
evaluates 2F1(1-delta-kappa, 1; 2-kappa; 1-w) at 1 - w <= 1/2, about 55
terms; the root equation itself, 2F1(kappa, -delta; 1-delta; w), is
summed in NumPy by ``insights``.  The cellular interference entries do not
call it at negative argument: ``analytic`` evaluates them through an
incomplete-beta recurrence (Gamma laws) and incomplete gamma functions
(general laws).  The series is summed with a relative term cutoff and a
hard iteration cap; hitting the cap raises instead of returning a
truncated sum.
"""

from __future__ import annotations

import math

from .errors import DomainError, NumericalError

# Series controls of the hypergeometric evaluator.
_MAX_TERMS = 100_000
_TERM_RTOL = 1e-16


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


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric function 2F1(a, b; c; z) for 0 <= z < 1.

    Sums the defining series.  Negative arguments raise ``DomainError``:
    the entry-shaped 2F1(n+kappa, n-delta; n+1-delta; -x) is evaluated in
    ``analytic.cellular_entries_gamma`` by the incomplete-beta recurrence.
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
