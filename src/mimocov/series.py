"""Truncated power-series algebra on coefficient arrays.

A series of order M is a length-M float array holding Taylor coefficients
(p_0, ..., p_{M-1}).  The same array is also the first column of an M x M
lower-triangular Toeplitz matrix, and that identification is the whole
point: the exponential and the inverse of such a matrix are again
lower-triangular Toeplitz, so every operation below works on first columns
only and no M x M matrix is ever materialized.

``series_exp`` runs the logarithmic-derivative recursion in fixed blocks of
coefficients: one convolution gives what every known coefficient adds to a
block, and the scalar recursion on Python floats finishes it (a relaxed
evaluation, van der Hoeven 2002, "Relax, but don't be too lazy").
``series_reciprocal`` seeds the first few coefficients by the scalar
recursion and then doubles the number of known ones per Newton step (Kung
1974, "On computing reciprocals of power series"), two convolutions each:
a "valid" one that forms only the new coefficients of the residual, and a
partial-overlap one, fed one spare residual term so that every coefficient
is the same float at every order.  Every convolution is written as
``np.correlate`` with its second operand reversed by a view: that is the
call ``np.convolve`` makes itself, so the dot products and their floats are
the same, without the wrapper's per-call overhead.  The reciprocal runs
without ``np.errstate``: correlation and negation raise no floating-point
warnings.
For the ad hoc entries (t_0 < 0, t_j >= 0 beyond) and the cellular ones
(c_0 > 0, c_j <= 0 beyond) every product in those sums has one sign, so
nothing cancels.  The matrix forms and the per-coefficient recursions live
in the tests, as the references these kernels must match.  The kernels
take their input as given (``analytic.EntrySequence`` checks each column
once, where it is built) and check only their own output: an overflow
raises ``NumericalError``, and a zero head of a reciprocal ``ValidationError``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError, ValidationError

MAX_ORDER = 512
_SEED_ORDER = 8  # coefficients of 1/C(z) from the scalar recursion
_EXP_SEED = 16  # coefficients of exp(T(z)) from the scalar recursion
_EXP_BLOCK = 12  # coefficients of exp(T(z)) per convolution after those


def _finite(arr: np.ndarray) -> np.ndarray:
    """Check a kernel's output for finiteness: overflow inside a kernel is a
    real failure even when its input was finite."""
    if not np.isfinite(arr).all():
        raise NumericalError("series coefficients must all be finite")
    return arr


def _finish_block(w: list, known: list, first: int) -> list:
    """Coefficients p_first, ..., p_{first+len(known)-1} of exp(T(z)), where
    known[k] is what the coefficients before the block add to
    (first + k) p_{first+k}; the block's own terms w_j p_{n-j} are added in
    order, on Python floats."""
    block = []
    for k, acc in enumerate(known):
        j = k  # block[i] pairs with w_{k-i}; a counter beats enumerate here
        for p in block:
            acc += w[j] * p
            j -= 1
        block.append(acc / (first + k))
    return block


def series_exp(t) -> np.ndarray:
    """Coefficients of exp(T(z)) given the coefficients of T(z).

    Uses the logarithmic-derivative recursion
    p_0 = e^{t_0},  n p_n = sum_{j=1}^{n} w_j p_{n-j},  w_j = j t_j,
    which costs O(M^2) and never forms a factorial.  It runs in blocks
    whose edges do not depend on M.  The first 16 coefficients come from the
    scalar recursion on Python floats, which reads w_1 .. w_15 only.  Each
    later block [s, s + 12) starts from one
    np.correlate(w[1:r], p[s-1::-1], "valid"), the convolution of w[1:r]
    with p[:s]: output k is what p_0 .. p_{s-1} add to (s + k) p_{s+k}, an
    s-term dot product that is the same float whatever r is.  The scalar
    recursion then adds the block's own terms.  So p_n is the same float at
    every order M > n, and order M makes ceil((M - 16)/12) convolutions in
    place of M - 1 inner products.

    For ad hoc entries (t_0 < 0 and t_j >= 0 for j >= 1, the pattern
    ``EntrySequence`` asserts) every w_j p_i is non-negative, so no sum
    cancels and deep coefficients keep their relative accuracy.
    """
    t = np.asarray(t, dtype=float)
    m = t.size
    try:
        head = math.exp(t[0])
    except OverflowError:
        raise NumericalError(f"series exponential overflows at t_0 = {float(t[0])!r}") from None
    p = np.empty(m)
    p[0] = head
    if m > 1:  # at M = 1 the set-up below would cost more than the answer
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is caught below
            weights = t * np.arange(m)  # w_j = j t_j
            w = weights[:_EXP_SEED].tolist()  # _finish_block reads w_1 .. w_15 only
            p[1:_EXP_SEED] = _finish_block(w, [head * x for x in w[1:_EXP_SEED]], 1)
            for s in range(_EXP_SEED, m, _EXP_BLOCK):
                r = min(s + _EXP_BLOCK, m)
                known = np.correlate(weights[1:r], p[s - 1 :: -1], "valid").tolist()
                p[s:r] = _finish_block(w, known, s)
    return _finite(p)


def series_reciprocal(c) -> np.ndarray:
    """Coefficients of 1 / C(z) given the coefficients of C(z).

    The first min(M, 8) coefficients come from the scalar recursion
    b_0 = 1/c_0,  b_n = -(1/c_0) sum_{k=1}^{n} c_k b_{n-k},
    on Python floats, each sum accumulated from 0.0 in order of k.  Each
    Newton step then takes the k known coefficients B_k to k + h of them,
    h = min(k, M - k), by B_{k+h} = B_k (2 - C B_k) mod z^{k+h}  (Kung 1974).
    C B_k is 1 + z^k E(z) + O(z^{k+h}); one "valid" convolution of c_1 ..
    c_{k+h-1} with B_k gives exactly the h coefficients e_0 .. e_{h-1} of E,
    each a k-term dot product, and never the exact zeros of C B_k below z^k.
    A second gives b_{k+j} = -sum_{i<=j} b_i e_{j-i}.  That is
    2 ceil(log2(M/8)) convolutions in place of M inner products, each one
    ``np.correlate`` call on a reversed view of B_k or E.

    E lives in one buffer of floor(M/2) + 1 floats.  The second convolution
    reads h + 1 of them: the spare e_h only enters its output h, which is
    dropped, but it keeps outputs 0 .. h-1 in numpy's partial-overlap range,
    where output j is the same (j+1)-term dot product whatever the lengths.
    So b_n does not depend on the order M.  An overflow shows up as inf or
    nan in the output, which ``_finite`` refuses; numpy's correlation and
    negation raise no floating-point warnings, so none need be silenced.

    For cellular entries (c_0 > 0 and c_j <= 0 for j >= 1, the pattern
    ``EntrySequence`` asserts) every b_n is non-negative, every e_j is
    non-positive, and every product inside both convolutions has the same
    sign.  So no sum cancels, and the deep coefficients that coverage and
    the decay ratios read keep their relative accuracy.
    """
    c = np.asarray(c, dtype=float)
    if c[0] == 0.0:
        raise ValidationError("series reciprocal undefined: leading coefficient is zero")
    m = c.size
    head = c[:_SEED_ORDER].tolist()
    c0 = head[0]
    seed = [1.0 / c0]
    for n in range(1, len(head)):
        acc = 0.0
        for j in range(1, n + 1):
            acc += head[j] * seed[n - j]
        seed.append(-acc / c0)
    b = np.zeros(m)
    k = len(seed)
    b[:k] = seed
    e = np.zeros(m // 2 + 1)
    while k < m:
        h = min(k, m - k)
        e[:h] = np.correlate(c[1 : k + h], b[k - 1 :: -1], "valid")
        np.negative(np.correlate(b[: h + 1], e[h::-1], "full")[:h], out=b[k : k + h])
        k += h
    return _finite(b)


def coeff_sum(p) -> float:
    """Sum of the coefficients, i.e. the l1 column sum of the Toeplitz matrix
    the series represents (all coverage outputs are such sums)."""
    return float(np.add.reduce(p))
