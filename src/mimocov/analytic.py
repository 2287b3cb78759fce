"""Exact coverage probability via the coefficients of one power series.

The SIR (or SINR, in the ad hoc case) distribution with a Gamma(M, theta)
signal gain reduces to the first M coefficients of a single power series:

* cellular: the reciprocal of a series C(z) whose entries carry Gauss
  hypergeometric factors (evaluated as incomplete beta functions); coverage
  is the sum of the first M coefficients of 1/C(z) and does not depend on
  the transmitter density,
* ad hoc: the exponential of a series A(z) with elementary entries built
  from one interference functional mu; coverage is the sum of the first M
  coefficients of exp(A(z)).

Both are evaluated on the first column of the lower-triangular Toeplitz
matrix the series represents: the exponential by a coefficient recursion,
the reciprocal by Newton doubling (``series``).  The matrix route (a
triangular solve and a nilpotent exponential) lives in the tests as the
reference these kernels must match.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, UnsupportedConfigError, ValidationError
from .model import (
    ADHOC,
    CELLULAR,
    METHOD_RECURSION,
    CoverageEstimate,
    GeneralSignalPdf,
    ScenarioBundle,
    SignalGainSpec,
    _integral_on_half_line,
    _positive_integer,
)
from .series import MAX_ORDER, coeff_sum, series, series_exp, series_reciprocal


@dataclass(frozen=True)
class EntrySequence:
    """First column of the triangular Toeplitz operator for one scenario.

    ``flavor`` records which series the entries describe: "cellular" entries
    feed a series reciprocal, "adhoc" entries feed a series exponential.
    The sign pattern (head positive, tail negative for cellular; head
    negative, tail positive for ad hoc) is structural, so it is asserted at
    construction; a violation means the numerics broke.
    """

    values: np.ndarray
    flavor: str

    def __post_init__(self):
        vals = series(self.values)
        object.__setattr__(self, "values", vals)
        # exact zeros are allowed in the tail: deep entries underflow for
        # extreme thresholds, and that is loss of magnitude, not of sign
        if self.flavor == CELLULAR:
            head_ok = vals[0] > 0.0
            tail_ok = bool(np.all(vals[1:] <= 0.0))
        elif self.flavor == ADHOC:
            head_ok = vals[0] < 0.0
            tail_ok = bool(np.all(vals[1:] >= 0.0))
        else:
            raise ValidationError(f"unknown entry flavor {self.flavor!r}")
        if not (head_ok and tail_ok):
            raise NumericalError(
                f"{self.flavor} entries violate their sign pattern; "
                "the evaluation lost too much precision"
            )


def _check_order(order: int) -> int:
    order = _positive_integer(order, "order")
    if order > MAX_ORDER:
        raise ValidationError(f"order {order} exceeds the supported maximum {MAX_ORDER}")
    return order


def _f_coefficients(delta: float, order: int) -> np.ndarray:
    """f_n = prod_{k=1}^{n} (k-1-delta)/k for n < order, from f_0 = 1: the
    coefficients shared by the cellular and the ad hoc entries."""
    n = np.arange(1.0, order)
    return np.multiply.accumulate(np.concatenate(([1.0], (n - 1.0 - delta) / n)))


# ---------------------------------------------------------------------------
# cellular entries

def cellular_entries_gamma(bundle: ScenarioBundle, order: int) -> EntrySequence:
    """Entries for a cellular scenario with Gamma(kappa, beta) interferer gains.

    Entry n is Gamma(kappa+n)/(Gamma(kappa) n!) * delta/(delta-n) * x^n
    * 2F1(n+kappa, n-delta; n+1-delta; -x) with x = tau*beta/theta.  The
    Pfaff transformation followed by 2F1(b, 1-q; b+1; w) = b w^-b B_w(b, q)
    (DLMF 15.8.1 and 8.17.8), plus for n = 0 one step of the recurrence in
    b, turns the entries into regularized incomplete beta functions I_w with
    w = x/(1+x) and q = kappa+delta:

        c_0 = (1+x)^-kappa + s I_w(1-delta, q),
        c_n = s f_n I_w(n-delta, q),   n >= 1,

    where s = x^delta Gamma(1-delta) Gamma(q)/Gamma(kappa) and
    f_n = prod_{k=1}^{n} (k-1-delta)/k = -delta Gamma(n-delta)/(Gamma(1-delta) n!),
    the same coefficients the ad hoc entries use.  All beta parameters are
    positive, so the vector is one evaluation that stays finite at any
    threshold.
    """
    from scipy import special as sp  # imported on first use: only these entries need it

    order = _check_order(order)
    kappa, beta = bundle.interferer.kappa, bundle.interferer.beta
    delta = bundle.delta
    q = kappa + delta
    x = bundle.scenario.threshold * beta / bundle.signal.scale
    w = x / (1.0 + x)
    s = math.exp(delta * math.log(x) + math.lgamma(1.0 - delta)
                 + math.lgamma(q) - math.lgamma(kappa))

    n = np.arange(1.0, order)
    vals = np.empty(order, dtype=np.float64)
    vals[0] = (1.0 + x) ** -kappa + s * sp.betainc(1.0 - delta, q, w)
    vals[1:] = s * _f_coefficients(delta, order)[1:] * sp.betainc(n - delta, q, w)
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

    from scipy import special as sp  # imported on first use: only these entries need it

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
    E[g^delta] is the one ``validate`` cached.
    """
    sc = bundle.scenario
    delta = bundle.delta
    return (
        math.pi * sc.lam * sc.r0**2
        * math.gamma(1.0 - delta)
        * (sc.threshold / bundle.signal.scale) ** delta
        * bundle.delta_moment
    )


def adhoc_entries(bundle: ScenarioBundle, order: int) -> EntrySequence:
    """Entries of the ad hoc series A(z): elementary in mu, delta, and noise.

    Entry n is -mu f_n, with f_n = f_{n-1} (n-1-delta)/n from f_0 = 1
    (a running product, so every entry is exact to rounding); the noise term
    s = tau r0^alpha sigma^2 / theta only touches entries 0 and 1.
    """
    order = _check_order(order)
    sc = bundle.scenario
    mu = adhoc_mu(bundle)
    s_noise = sc.threshold * sc.r0**sc.alpha * sc.noise / bundle.signal.scale
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


def coverage_non_poisson(bundle: ScenarioBundle, deployment_gain: float) -> CoverageEstimate:
    """Approximate coverage for a non-Poisson cellular deployment.

    A stationary point process that is more regular (or more clustered)
    than Poisson shifts the SIR distribution horizontally by a gain factor
    G; evaluating the Poisson expression at threshold tau/G captures the
    bulk of the difference.  Only meaningful for cellular scenarios.
    """
    if bundle.scenario.kind != CELLULAR:
        raise UnsupportedConfigError("deployment-gain scaling applies to cellular scenarios only")
    if not (deployment_gain > 0.0 and math.isfinite(deployment_gain)):
        raise ValidationError("deployment gain must be positive")
    shifted = dataclasses.replace(
        bundle,
        scenario=dataclasses.replace(
            bundle.scenario, threshold=bundle.scenario.threshold / deployment_gain
        ),
    )
    return coverage(shifted)
