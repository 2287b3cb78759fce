"""The Toeplitz matrix route to coverage, kept as the tests' reference.

Coverage is the l1 column sum of exp(A) (ad hoc) or C^-1 (cellular), where
A and C are the lower-triangular Toeplitz matrices whose first columns are
the library's entry sequences.  The library evaluates that column by series
kernels (``series_exp``, a recursion run in blocks of coefficients, one
convolution each, and ``series_reciprocal``, a Newton doubling); this module
gets it from the matrices themselves, sharing no code with the kernels.  It
also keeps the per-coefficient recursions that the blocks and the doubling
replaced, one inner product per coefficient, as the references the kernels
must match coefficient by coefficient.
"""

import math

import numpy as np
from scipy import linalg

from mimocov import CELLULAR, adhoc_entries, cellular_entries
from mimocov.errors import ValidationError
from mimocov.series import _finite


def recursive_exp(t) -> np.ndarray:
    """Coefficients of exp(T(z)) given the coefficients of T(z).

    p_0 = e^{t_0},  p_n = (1/n) sum_{i=0}^{n-1} (n - i) t_{n-i} p_i.
    Coefficient n is one n-term inner product, the same at every order.
    """
    t = np.asarray(t, dtype=float)
    m = t.size
    p = np.zeros(m)
    p[0] = math.exp(t[0])
    weighted = t * np.arange(m)  # j * t_j
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is caught below
        for n in range(1, m):
            p[n] = np.dot(weighted[1 : n + 1], p[n - 1 :: -1]) / n
    return _finite(p)


def recursive_reciprocal(c) -> np.ndarray:
    """Coefficients of 1 / C(z) given the coefficients of C(z).

    b_0 = 1/c_0,  b_n = -(1/c_0) sum_{k=1}^{n} c_k b_{n-k}.
    """
    c = np.asarray(c, dtype=float)
    if c[0] == 0.0:
        raise ValidationError("series reciprocal undefined: leading coefficient is zero")
    m = c.size
    b = np.zeros(m)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is caught below
        b[0] = 1.0 / c[0]
        for n in range(1, m):
            b[n] = -np.dot(c[1 : n + 1], b[n - 1 :: -1]) / c[0]
    return _finite(b)


def toeplitz_reciprocal(c) -> np.ndarray:
    """First column of C^-1 by a lower-triangular Toeplitz solve."""
    c = np.asarray(c, dtype=np.float64)
    m = c.size
    first_row = np.zeros(m)
    first_row[0] = c[0]
    e0 = np.zeros(m)
    e0[0] = 1.0
    return linalg.solve_triangular(linalg.toeplitz(c, first_row), e0, lower=True)


def toeplitz_exp_nilpotent(t) -> np.ndarray:
    """First column of exp(T) for the lower-triangular Toeplitz matrix T.

    Splits T = t_0 I + N with N strictly lower triangular (nilpotent, N^M = 0)
    and sums e^{t_0} sum_{k<M} N^k / k!.  The k-th power's first column is the
    k-fold self-convolution of (0, t_1, ..., t_{M-1}).
    """
    t = np.asarray(t, dtype=np.float64)
    m = t.size
    strict = t.copy()
    strict[0] = 0.0
    total = np.zeros(m)
    total[0] = 1.0
    power = total.copy()  # N^k / k! first column, starting at k = 0
    for k in range(1, m):
        power = np.convolve(power, strict)[:m] / k
        if not power.any():
            break
        total += power
    return math.exp(t[0]) * total


def toeplitz_coverage(bundle) -> float:
    """Coverage of the bundled scenario by the matrix route."""
    m = bundle.signal.shape
    if bundle.scenario.kind == CELLULAR:
        column = toeplitz_reciprocal(cellular_entries(bundle, m).values)
    else:
        column = toeplitz_exp_nilpotent(adhoc_entries(bundle, m).values)
    return float(np.sum(column))
