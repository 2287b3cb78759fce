"""Truncated power-series algebra on coefficient arrays.

A series of order M is a length-M float array holding Taylor coefficients
(p_0, ..., p_{M-1}).  The same array is also the first column of an M x M
lower-triangular Toeplitz matrix, and that identification is the whole
point: the exponential and the inverse of such a matrix are again
lower-triangular Toeplitz, so every operation below works on first columns
only and no M x M matrix is ever materialized.  The matrix forms live in
the tests, as the reference these recursions must match.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, SingularityError

MAX_ORDER = 512


def series(coeffs) -> np.ndarray:
    """Validate and return a fresh float64 coefficient array."""
    arr = np.array(coeffs, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("a series must be a non-empty 1-D coefficient array")
    if arr.size > MAX_ORDER:
        raise DomainError(f"series order {arr.size} exceeds the guard {MAX_ORDER}")
    return _finite(arr)


def _finite(arr: np.ndarray) -> np.ndarray:
    """Check a float64 array for finiteness in place.  The recursions' own
    outputs are fresh arrays of a validated order, so this is all they need."""
    if not np.all(np.isfinite(arr)):
        raise DomainError("series coefficients must all be finite")
    return arr


def series_exp(t) -> np.ndarray:
    """Coefficients of exp(T(z)) given the coefficients of T(z).

    Uses the logarithmic-derivative recursion
    p_0 = e^{t_0},  p_n = (1/n) sum_{i=0}^{n-1} (n - i) t_{n-i} p_i,
    which costs O(M^2) and never forms a factorial.
    """
    t = series(t)
    m = t.size
    p = np.zeros(m)
    try:
        p[0] = math.exp(t[0])
    except OverflowError:
        raise DomainError(f"series exponential overflows at t_0 = {float(t[0])!r}") from None
    weighted = t * np.arange(m)  # j * t_j
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is caught below
        for n in range(1, m):
            p[n] = np.dot(weighted[1 : n + 1], p[n - 1 :: -1]) / n
    return _finite(p)


def series_reciprocal(c) -> np.ndarray:
    """Coefficients of 1 / C(z) given the coefficients of C(z).

    b_0 = 1/c_0,  b_n = -(1/c_0) sum_{k=1}^{n} c_k b_{n-k}.
    """
    c = series(c)
    if c[0] == 0.0:
        raise SingularityError("series reciprocal undefined: leading coefficient is zero")
    m = c.size
    b = np.zeros(m)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is caught below
        b[0] = 1.0 / c[0]
        for n in range(1, m):
            b[n] = -np.dot(c[1 : n + 1], b[n - 1 :: -1]) / c[0]
    return _finite(b)


def coeff_sum(p) -> float:
    """Sum of the coefficients, i.e. the l1 column sum of the Toeplitz matrix
    the series represents (all coverage outputs are such sums)."""
    return float(np.sum(p))
