"""Truncated power-series algebra on coefficient arrays.

A series of order M is a length-M float array holding Taylor coefficients
(p_0, ..., p_{M-1}).  The same array is also the first column of an M x M
lower-triangular Toeplitz matrix, and that identification is the whole
point: the exponential and the inverse of such a matrix are again
lower-triangular Toeplitz, so every operation below works on first columns
only and no M x M matrix is ever materialized.

``series_exp`` runs the logarithmic-derivative recursion, one inner product
per coefficient.  ``series_reciprocal`` seeds the first few coefficients by
the scalar recursion and then doubles the number of known ones per Newton
step (Kung 1974, "On computing reciprocals of power series"), two
convolutions each.  For the cellular entries (c_0 > 0, c_j <= 0 beyond)
every product in those convolutions has one sign, so nothing cancels.  The
matrix forms and the per-coefficient recursion live in the tests, as the
references these kernels must match.  The kernels take their input as
given (``analytic.EntrySequence`` checks each column once, where it is
built) and check only their own output, for overflow.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, SingularityError

MAX_ORDER = 512
_SEED_ORDER = 8  # coefficients of 1/C(z) from the scalar recursion


def _finite(arr: np.ndarray) -> np.ndarray:
    """Check a kernel's output for finiteness: overflow inside a kernel is a
    real failure even when its input was finite."""
    if not np.isfinite(arr).all():
        raise DomainError("series coefficients must all be finite")
    return arr


def series_exp(t) -> np.ndarray:
    """Coefficients of exp(T(z)) given the coefficients of T(z).

    Uses the logarithmic-derivative recursion
    p_0 = e^{t_0},  p_n = (1/n) sum_{i=0}^{n-1} (n - i) t_{n-i} p_i,
    which costs O(M^2) and never forms a factorial.
    """
    t = np.asarray(t, dtype=float)
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

    The first min(M, 8) coefficients come from the scalar recursion
    b_0 = 1/c_0,  b_n = -(1/c_0) sum_{k=1}^{n} c_k b_{n-k},
    on Python floats.  Each Newton step then takes the k known coefficients
    B_k to k + h of them, h = min(k, M - k), by
    B_{k+h} = B_k (2 - C B_k) mod z^{k+h}  (Kung 1974).
    C B_k is 1 + z^k E(z) + O(z^{k+h}); one convolution gives the h
    coefficients of E (never the exact zeros of C B_k below z^k), and a
    second gives b_{k+j} = -sum_{i<=j} b_i e_{j-i}.  That is 2 ceil(log2(M/8))
    convolutions in place of M inner products.

    For cellular entries (c_0 > 0 and c_j <= 0 for j >= 1, the pattern
    ``EntrySequence`` asserts) every b_n is non-negative, every e_j is
    non-positive, and every product inside both convolutions has the same
    sign.  So no sum cancels, and the deep coefficients that coverage and
    the decay ratios read keep their relative accuracy.
    """
    c = np.asarray(c, dtype=float)
    if c[0] == 0.0:
        raise SingularityError("series reciprocal undefined: leading coefficient is zero")
    m = c.size
    head = c[:_SEED_ORDER].tolist()
    seed = [1.0 / head[0]]
    for n in range(1, len(head)):
        seed.append(-sum(head[j] * seed[n - j] for j in range(1, n + 1)) / head[0])
    b = np.zeros(m)
    k = len(seed)
    b[:k] = seed
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is caught below
        while k < m:
            h = min(k, m - k)
            # e carries one spare term, never used, so that all h outputs of
            # the second convolution lie in numpy's partial-overlap range,
            # where output j is the same (j+1)-term dot product whatever the
            # lengths: b_n then does not depend on the order M.
            e = np.convolve(c[1 : k + h], b[:k])[k - 1 : k + h]
            b[k : k + h] = -np.convolve(b[: h + 1], e)[:h]
            k += h
    return _finite(b)


def coeff_sum(p) -> float:
    """Sum of the coefficients, i.e. the l1 column sum of the Toeplitz matrix
    the series represents (all coverage outputs are such sums)."""
    return float(np.add.reduce(p))
