"""Exact coverage probability via the coefficients of one power series.

The SIR (or SINR, in the ad hoc case) distribution with a Gamma(M, theta)
signal gain reduces to the first M coefficients of a single power series:

* cellular: the reciprocal of a series C(z) whose entries carry Gauss
  hypergeometric factors; coverage is the sum of the first M coefficients
  of 1/C(z) and does not depend on the transmitter density.  For Gamma
  interferer gains the factors are regularized incomplete beta functions,
  all M of them from one recurrence of positive terms (DLMF 8.17.20) in
  NumPy, summed by ``specfun``; a general law integrates incomplete gamma
  functions and alone loads scipy, bar one anchor of the recurrence for a
  few Gamma shapes from about 1.5e6 on, near its two series' crossover,
* ad hoc: the exponential of a series A(z) with elementary entries built
  from one interference functional mu; coverage is the sum of the first M
  coefficients of exp(A(z)).

Both are evaluated on the first column of the lower-triangular Toeplitz
matrix the series represents: the exponential by its recursion run in
blocks of coefficients, one convolution each, the reciprocal by Newton
doubling (``series``).  The matrix route (a triangular solve and a
nilpotent exponential) lives in the tests as the reference these kernels
must match.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, UnsupportedConfigError, ValidationError
from .model import (
    ADHOC,
    CELLULAR,
    METHOD_RECURSION,
    CoverageEstimate,
    GeneralSignalPdf,
    ScenarioBundle,
    SignalGainSpec,
    _gamma_ratio,
    _integral_on_half_line,
    _positive_integer,
)
from .series import MAX_ORDER, coeff_sum, series_exp, series_reciprocal
from .specfun import ratio_count, ratio_sum, ratio_terms, rounding_drift


@dataclass(frozen=True)
class EntrySequence:
    """First column of the triangular Toeplitz operator for one scenario.

    ``flavor`` records which series the entries describe: "cellular" entries
    feed a series reciprocal, "adhoc" entries feed a series exponential.
    Construction is the one place a column is converted to a fresh 1-D
    float array and checked (the series kernels take it as given): it must
    be finite and follow its sign pattern (head positive, tail non-positive
    for cellular; head negative, tail non-negative for ad hoc).  The sign
    pattern is structural, so a violation means the numerics broke.  The
    one exception is an all-zero ad hoc column: mu underflowed to 0 with
    no noise, and exp(0) = 1 is exact.  The tail is checked by one maximum
    and one minimum, which a nan fails; only a column that fails is scanned
    again, to tell a non-finite entry (``DomainError``) from a broken sign
    pattern (``NumericalError``).
    """

    values: np.ndarray
    flavor: str

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise DomainError("an entry sequence must be a non-empty 1-D array")
        object.__setattr__(self, "values", vals)
        head = float(vals[0])
        # exact zeros are allowed in the tail: deep entries underflow for
        # extreme thresholds, and that is loss of magnitude, not of sign
        tail = vals[1:]
        low = np.minimum.reduce(tail, initial=math.inf)
        high = np.maximum.reduce(tail, initial=-math.inf)
        if self.flavor == CELLULAR:
            ok = 0.0 < head < math.inf and -math.inf < low and high <= 0.0
        elif self.flavor == ADHOC:
            zero = head == 0.0 and high <= 0.0  # mu underflowed to 0, and there is no noise
            ok = (-math.inf < head < 0.0 or zero) and 0.0 <= low and high < math.inf
        else:
            raise ValidationError(f"unknown entry flavor {self.flavor!r}")
        if not ok:
            if not np.isfinite(vals).all():
                raise DomainError(f"{self.flavor} entries must all be finite")
            raise NumericalError(
                f"{self.flavor} entries violate their sign pattern; "
                "the evaluation lost too much precision"
            )


def _check_order(order: int) -> int:
    order = _positive_integer(order, "order")
    if order > MAX_ORDER:
        raise ValidationError(f"order {order} exceeds the supported maximum {MAX_ORDER}")
    return order


_F_INDEX = np.arange(1.0, MAX_ORDER)  # k = 1, ..., MAX_ORDER - 1, sliced by _f_coefficients


def _f_coefficients(delta: float, order: int) -> np.ndarray:
    """f_n = prod_{k=1}^{n} (k-1-delta)/k for n < order, from f_0 = 1: the
    coefficients shared by the cellular and the ad hoc entries."""
    n = _F_INDEX[: order - 1]
    f = np.empty(order)
    f[0] = 1.0
    np.divide(n - 1.0 - delta, n, out=f[1:])
    return np.multiply.accumulate(f, out=f)


# ---------------------------------------------------------------------------
# cellular entries

_MAX_LOSS = 8.0  # largest factor the complement's subtraction may lose before the tail replaces it
# columns up to this long (at most 2, where top = 1 and every array would hold
# one element) are built on Python floats, by the same operations in the same order
_SCALAR_ORDER = 2


def _entry_scale(x: float, kappa: float, delta: float, threshold: float) -> float:
    """s = x^delta Gamma(1-delta) Gamma(kappa+delta)/Gamma(kappa), or NumericalError.

    No factor raises: x^delta <= max(x, 1) for 0 < delta < 1, Gamma(1-delta)
    is at most about 1e16 for 1 - delta >= 1.1e-16 (alpha a finite double
    past 2), and ``_gamma_ratio`` stays in range; only their product may
    pass the double range."""
    s = x**delta * math.gamma(1.0 - delta) * _gamma_ratio(kappa, delta)
    if not math.isfinite(s):
        raise NumericalError(f"cellular entries overflow at threshold {threshold!r}")
    return s


def cellular_entries_gamma(bundle: ScenarioBundle, order: int) -> EntrySequence:
    """Entries for a cellular scenario with Gamma(kappa, beta) interferer gains.

    Entry n is Gamma(kappa+n)/(Gamma(kappa) n!) * delta/(delta-n) * x^n
    * 2F1(n+kappa, n-delta; n+1-delta; -x) with x = tau*beta/theta.  The
    Pfaff transformation followed by 2F1(b, 1-q; b+1; w) = b w^-b B_w(b, q)
    (DLMF 15.8.1 and 8.17.8), plus for n = 0 one step of the recurrence in
    b, turns the entries into regularized incomplete beta functions
    I_n = I_w(a_n, q) with a_n = n-delta, w = x/(1+x) and q = kappa+delta:

        c_0 = (1+x)^-kappa + s I_1,
        c_n = s f_n I_n,   n >= 1,

    where s = x^delta Gamma(1-delta) Gamma(q)/Gamma(kappa) and
    f_n = prod_{k=1}^{n} (k-1-delta)/k = -delta Gamma(n-delta)/(Gamma(1-delta) n!),
    the same coefficients the ad hoc entries use.

    The I_n come from one recurrence in a (DLMF 8.17.20): the differences
    d_n = I_n - I_{n+1} = w^a_n (1-w)^q Gamma(a_n+q)/(Gamma(a_n+1) Gamma(q))
    are positive, s d_1 = kappa w (1+x)^-kappa/(1-delta) is elementary, and
    d_{n+1}/d_n = w (a_n+q)/(a_n+1), so one running product gives every s d_n.
    With top = max(order-1, 1), each I_n is I_top + sum_{n<=k<top} d_k, a
    reverse cumulative sum of positive terms, and I_top is one of two
    positive series, each counted and summed by ``specfun`` until it leaves
    out less than 1e-17:

    * the tail sum_{k>=top} d_k = d_top 2F1(a_top+q, 1; a_top+1; w) of the
      same ratios (DLMF 8.17.8), unless s d_1 is subnormal and d_2 > d_1;
    * past the crossover w = (a_top+1)/(a_top+q+2), and where it needs fewer
      terms, the symmetry I_w(a, q) = 1 - I_{1-w}(q, a) (DLMF 8.17.4), with
      the complement summed by its own ratios (1-w)(a_top+q+i)/(q+1+i) and
      1-w = 1/(1+x) formed directly, never as 1 - w.  The subtraction is
      kept only where the complement is at most 8 I_top, so it loses at
      most a factor 8 (6 at most for kappa 0.5-4, alpha 2.5-6); for q well
      below 1 it can lose far more (2e-13 errors at q = 0.021), and there
      the tail is summed instead, where it can be.

    Every other sum adds positive terms, so deep entries keep their relative
    accuracy, and no power of x, Gamma function or logarithm leaves the
    double range at any finite threshold whose s is finite.  The rounding
    of w and 1-w, raised to powers up to 2^18, is measured exactly and
    undone.  Where neither series can be summed in 2^18 terms (a few
    interferer shapes from about 1.5e6 on, near the crossover) I_top alone
    is scipy's betainc value instead.
    """
    order = _check_order(order)
    kappa, beta = bundle.interferer.kappa, bundle.interferer.beta
    delta = bundle.delta
    q = kappa + delta
    threshold = bundle.scenario.threshold
    x = threshold * beta / bundle.signal.scale
    if not math.isfinite(x):
        raise NumericalError(f"tau beta / theta overflows at threshold {threshold!r}")
    w, w_c = x / (1.0 + x), 1.0 / (1.0 + x)
    head = math.exp(-kappa * math.log1p(x))  # (1+x)^-kappa, without kappa times the rounding of 1+x

    top = max(order - 1, 1)
    a_top = top - delta
    crossed = w >= (a_top + 1.0) / (a_top + q + 2.0)  # below, the complement would cancel
    comp_terms = ratio_count(w_c, q + 1.0, a_top - 1.0) if crossed else math.inf
    tail_terms = ratio_count(w, a_top + 1.0, q - 1.0)

    xn, xd = x.as_integer_ratio()  # w = xn/(xd+xn) and 1-w = xd/(xd+xn) exactly
    w_drift = rounding_drift(w, xn, xd + xn) if xn else 0.0
    sd1 = kappa / (1.0 - delta) * w * head * (1.0 + w_drift)  # s d_1, its one power of w undone
    # the tail fits in 2^18 terms, and its product does not start from a
    # subnormal s d_1 unless the differences only shrink: d_2/d_1 <= 1
    summable = (sd1 >= sys.float_info.min or w * (1.0 - delta + q) <= 2.0 - delta) and tail_terms < math.inf
    scalar = order <= _SCALAR_ORDER  # then top = 1
    tail = summable and tail_terms <= comp_terms
    if not tail:
        # s d_1, ..., s d_top; at top = 1 the running product is s d_1 itself
        sd = [sd1] if scalar else ratio_terms(w, w_drift, 2.0 - delta, q - 1.0, top, sd1)
        s = _entry_scale(x, kappa, delta, threshold)
        if comp_terms < math.inf:
            comp = sd[-1] * a_top / q * ratio_sum(
                w_c, rounding_drift(w_c, xd, xd + xn), q + 1.0, a_top - 1.0, comp_terms)
            # the subtraction loses a factor comp / (s - comp); past 8 (q well
            # below 1) the positive tail is summed instead, where it can be
            tail = summable and comp > _MAX_LOSS * (s - comp)
            sd[-1] = s - comp
        else:
            from scipy import special as sp  # imported on first use: only these inputs and general laws need it

            sd[-1] = s * sp.betainc(a_top, q, w)
    if tail:
        sd = ratio_terms(w, w_drift, 2.0 - delta, q - 1.0, top - 1 + tail_terms, sd1)
        sd[top - 1] = np.add.reduce(sd[top - 1:])
    if scalar:  # s I_1 = s d_1 + ... alone; f_1 = -delta
        values = [head + sd[0], -delta * sd[0]]
        return EntrySequence(values=values[:order], flavor=CELLULAR)
    si = np.add.accumulate(sd[top - 1::-1])[::-1]  # s I_1, ..., s I_top

    vals = _f_coefficients(delta, order)
    vals[0] = head + si[0]
    vals[1:] *= si[: order - 1]
    return EntrySequence(values=vals, flavor=CELLULAR)


def cellular_entries_general(bundle: ScenarioBundle, order: int) -> EntrySequence:
    """Entries for a cellular scenario with an arbitrary interferer gain law.

    Entry n is delta/(delta-n) E[x^n/n! 1F1(n-delta; n+1-delta; -x)] with
    x = c g and c = tau/theta.  1F1(a; a+1; -x) = a x^-a gamma(a, x)
    (DLMF 13.6.5 and 8.5.1), plus for n = 0 one step of the recurrence in
    a, gives regularized lower incomplete gamma functions P:

        c_0 = E[e^-x] + Gamma(1-delta) E[x^delta P(1-delta, x)],
        c_n = Gamma(1-delta) f_n E[x^delta P(n-delta, x)],   n >= 1,

    with the f_n of ``cellular_entries_gamma``.  The x^delta P expectations
    are the components of one vector quadrature; E[e^-x] takes a scalar one.
    """
    order = _check_order(order)
    law = bundle.interferer
    delta = bundle.delta
    c = bundle.scenario.threshold / bundle.signal.scale

    from scipy import special as sp  # imported on first use: only general laws need it

    a = np.maximum(np.arange(order), 1.0) - delta  # entry 0 takes P(1-delta, x) too
    moments = _integral_on_half_line(
        lambda g: law.pdf(g) * (c * g) ** delta * sp.gammainc(a, c * g), "cellular entries"
    )
    vals = math.gamma(1.0 - delta) * _f_coefficients(delta, order) * moments
    # e^-x alone does not vanish at g = 0, where a pdf may be singular:
    # QUADPACK extrapolates that endpoint, quad_vec only bisects toward it
    vals[0] += _integral_on_half_line(lambda g: math.exp(-c * g) * law.pdf(g), "cellular entry 0")
    return EntrySequence(values=vals, flavor=CELLULAR)


def cellular_entries(bundle: ScenarioBundle, order: int) -> EntrySequence:
    if bundle.interferer.is_gamma:
        return cellular_entries_gamma(bundle, order)
    return cellular_entries_general(bundle, order)


# ---------------------------------------------------------------------------
# ad hoc entries

def adhoc_mu(bundle: ScenarioBundle) -> float:
    """Interference functional mu = pi lambda r0^2 Gamma(1-delta) (tau/theta)^delta E[g^delta].

    This single number carries the whole interference field into the ad hoc
    series; coverage with one antenna and no noise is exactly exp(-mu).
    E[g^delta] is the one ``validate`` cached.  A mu past the double range
    raises ``NumericalError``.
    """
    sc = bundle.scenario
    delta = bundle.delta
    try:
        area = math.pi * sc.lam * sc.r0**2
    except OverflowError:  # r0 past 1e154, where lambda r0^2 may still be finite
        area = math.pi * sc.lam * sc.r0 * sc.r0
    mu = (
        area
        * math.gamma(1.0 - delta)
        * (sc.threshold / bundle.signal.scale) ** delta
        * bundle.delta_moment
    )
    if not math.isfinite(mu):
        raise NumericalError("the interference functional mu overflows")
    return mu


def adhoc_entries(bundle: ScenarioBundle, order: int) -> EntrySequence:
    """Entries of the ad hoc series A(z): elementary in mu, delta, and noise.

    Entry n is -mu f_n, with f_n = f_{n-1} (n-1-delta)/n from f_0 = 1
    (a running product, so every entry is exact to rounding); the noise term
    s = tau r0^alpha sigma^2 / theta only touches entries 0 and 1, and is
    formed only when there is noise.
    """
    order = _check_order(order)
    sc = bundle.scenario
    mu = adhoc_mu(bundle)
    s_noise = 0.0
    if sc.noise > 0.0:
        try:
            s_noise = sc.threshold * sc.r0**sc.alpha * sc.noise / bundle.signal.scale
        except OverflowError:
            raise NumericalError("the noise term tau r0^alpha sigma^2 / theta overflows") from None
    delta = bundle.delta

    vals = -mu * _f_coefficients(delta, order)
    vals[0] -= s_noise
    if order > 1:
        vals[1] += s_noise
    return EntrySequence(values=vals, flavor=ADHOC)


# ---------------------------------------------------------------------------
# coverage

def _rounded_estimate(total: float, order: int) -> CoverageEstimate:
    """Estimate from a coverage sum of ``order`` coefficients.

    Rounding in the series kernel and the sum can carry a coverage near 0 or 1
    a few ulps out of [0, 1]; a sum within 4 order eps of the interval is
    mapped onto it, and anything further out is left for CoverageEstimate
    to refuse.
    """
    slack = 4.0 * order * sys.float_info.epsilon
    if -slack <= total <= 1.0 + slack:
        total = min(max(total, 0.0), 1.0)
    return CoverageEstimate(value=total, method=METHOD_RECURSION)


def _refuse_cellular_noise(bundle: ScenarioBundle) -> None:
    if bundle.scenario.kind == CELLULAR and bundle.scenario.noise > 0.0:
        raise UnsupportedConfigError(
            "cellular coverage with noise has no finite-order series form; "
            "use the Monte Carlo path"
        )


def _improvements(bundle: ScenarioBundle, order: int) -> np.ndarray:
    """The first ``order`` coefficients p_bar[n] of 1/C(z) (cellular) or
    exp(A(z)) (ad hoc): the coverage gain of antenna n + 1, so that coverage
    with M antennas is the sum of the first M."""
    _refuse_cellular_noise(bundle)
    if bundle.scenario.kind == CELLULAR:
        return series_reciprocal(cellular_entries(bundle, order).values)
    return series_exp(adhoc_entries(bundle, order).values)


def coverage(bundle: ScenarioBundle) -> CoverageEstimate:
    """Exact coverage probability of the bundled scenario: the sum of the
    first M coefficients of 1/C(z) (cellular) or exp(A(z)) (ad hoc)."""
    m = bundle.signal.shape
    return _rounded_estimate(coeff_sum(_improvements(bundle, m)), m)


def coverage_general_pdf(bundle: ScenarioBundle, signal_pdf: GeneralSignalPdf) -> CoverageEstimate:
    """Coverage when the signal gain follows an exponential-polynomial pdf.

    Each pdf term e^{-phi u} u^q contributes its weight times the coverage
    of a plain Gamma(q+1, 1/phi) signal; the remainder 1 - sum(weights)
    accounts for the difference between the pdf and its gamma envelope.
    For a pdf that is itself Gamma(M, theta) this reduces to the single
    term coverage exactly.
    """
    total = 1.0
    orders = 0
    for order_m, scale, weight in signal_pdf.weights():
        sub = dataclasses.replace(bundle, signal=SignalGainSpec(shape=order_m, scale=scale))
        total += weight * (coverage(sub).value - 1.0)
        orders += order_m
    return _rounded_estimate(total, orders)

