"""Structural consequences of the series form: density response, antenna
scaling, and closed-form ad hoc coefficient identities.

Everything here is derived from the same entry sequences as the coverage
values themselves, so these helpers double as consistency probes: the
density profile must reproduce pointwise coverage, the per-antenna
improvement ratios must approach the decay rate, and the two ad hoc
closed forms must match the generic recursion coefficient by coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import specfun
from .errors import NumericalError, RootNotFoundError, UnsupportedConfigError, ValidationError
from .model import ADHOC, CELLULAR, ScenarioBundle, _integral_on_half_line
from .analytic import _check_order, adhoc_entries, adhoc_mu, cellular_entries
from .series import series_exp, series_reciprocal

_UNDERFLOW_FLOOR = 1e-300


# ---------------------------------------------------------------------------
# density dependence (ad hoc)

def _check_density(lam) -> float:
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValidationError("transmitter density lambda must be positive")
    return float(lam)


def _finite(value: float, what: str, lam: float) -> float:
    if not math.isfinite(value):
        raise NumericalError(
            f"{what} at density {lam!r} is not finite in double precision: "
            "exp(head * lam) underflows where the polynomial overflows; "
            "evaluate coverage pointwise instead"
        )
    return value


@dataclass(frozen=True)
class DensityProfile:
    """Coverage as an explicit function of transmitter density.

    For a noiseless ad hoc scenario every series entry is proportional to
    the density, so coverage factors as exp(head * lam) times a polynomial
    in lam with coefficients ``betas``.  The profile is built once and can
    then be evaluated, differentiated, and minimized over densities without
    re-running the coefficient recursion.

    Construction stores ``betas`` as a read-only copy, and the coefficients
    and the derivative coefficients head * betas[j] + (j + 1) * betas[j + 1]
    as plain-float lists, so each evaluation is one Horner loop on Python
    floats.  Far out in the density exp(head * lam) underflows while the
    polynomial overflows; ``coverage_at`` and ``derivative_at`` then raise
    ``NumericalError`` rather than return a non-finite value.
    """

    head: float          # density coefficient of entry 0 (negative)
    betas: np.ndarray    # polynomial coefficients, betas[0] == 1
    _poly: list = field(init=False, repr=False, compare=False)
    _grad: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        frozen = np.array(self.betas, dtype=np.float64)
        frozen.setflags(write=False)
        object.__setattr__(self, "betas", frozen)
        head = float(self.head)
        betas = frozen.tolist()
        grad = [head * b + (j + 1) * nxt for j, (b, nxt) in enumerate(zip(betas, betas[1:]))]
        grad.append(head * betas[-1])
        object.__setattr__(self, "_poly", betas[::-1])
        object.__setattr__(self, "_grad", grad[::-1])

    def coverage_at(self, lam: float) -> float:
        lam = _check_density(lam)
        poly = 0.0
        for b in self._poly:
            poly = poly * lam + b
        return _finite(math.exp(self.head * lam) * poly, "coverage", lam)

    def derivative_at(self, lam: float) -> float:
        """d coverage / d lam, in closed form from the same coefficients."""
        lam = _check_density(lam)
        grad = 0.0
        for d in self._grad:
            grad = grad * lam + d
        return _finite(math.exp(self.head * lam) * grad, "d coverage / d lam", lam)


def density_profile(bundle: ScenarioBundle) -> DensityProfile:
    """Factor noiseless ad hoc coverage in the density, for M antennas.

    Per unit density the series is head + S(z) with the strict part
    S(z) = c (1 - (1 - z)^delta), c = -head = mu / lam, and
    betas[j] = sum_{n<M} [z^n] S^j / j!.  S solves (1 - z) S' =
    delta (c - S), so G_j = S^j / j! solves
    (1 - z) G_j' + delta j G_j = delta c G_{j-1}, and the coefficients
    g[j, n] of G_j follow one first-order recurrence in n,

        g[j, n+1] = ((n - delta j) g[j, n] + delta c g[j-1, n]) / (n + 1),

    from g[0, 0] = 1.  g[j, n] = 0 for n < j, and n - delta j > 0
    otherwise, so every term is non-negative and nothing cancels.  Stepping
    over n with one column over j costs O(M^2) work and O(M) memory.

    Raises ``NumericalError`` when a coefficient leaves the double range,
    which happens when c^j / j! overflows (large c = mu / lam with many
    antennas).
    """
    sc = bundle.scenario
    if sc.kind != ADHOC:
        raise UnsupportedConfigError("density profiles are defined for ad hoc scenarios")
    if sc.noise != 0.0:
        raise UnsupportedConfigError(
            "with noise the density dependence does not factorize; "
            "evaluate coverage pointwise instead"
        )
    m = _check_order(bundle.signal.shape)
    head = -adhoc_mu(bundle) / sc.lam
    delta = bundle.delta
    shift = -delta * head
    slope = -delta * np.arange(m)

    # g[1 + j] holds g[j, n]; g[0] stays 0 so that g[:k] is g[j-1, n]
    g = np.zeros(m + 1, dtype=np.float64)
    g[1] = 1.0
    betas = np.zeros(m, dtype=np.float64)
    betas[0] = 1.0
    with np.errstate(over="ignore"):
        for n in range(m - 1):
            k = min(n + 2, m)  # g[j, n+1] = 0 for j > n + 1
            nxt = (n + slope[:k]) * g[1:k + 1]
            nxt += shift * g[:k]
            nxt /= n + 1
            g[1:k + 1] = nxt
            betas[:k] += nxt
    if not np.all(np.isfinite(betas)):
        raise NumericalError(
            f"density-profile coefficients overflow at M = {m}: c^j / j! "
            f"leaves the double range for c = {-head:.6g}; "
            "evaluate coverage pointwise instead"
        )
    return DensityProfile(head=head, betas=betas)


# ---------------------------------------------------------------------------
# per-antenna improvements

@dataclass(frozen=True)
class ImprovementSequence:
    """Coverage gains p_bar[n] from raising the antenna count past n.

    Partial sums recover coverage: sum(values[:m]) is the coverage with m
    antennas.  The terms are positive and eventually decay geometrically at
    the rate returned by ``cellular_decay_rate``.
    """

    values: np.ndarray
    flavor: str

    def coverage_at(self, m: int) -> float:
        if not (1 <= m <= self.values.size):
            raise ValidationError(f"antenna count {m} outside the computed range")
        return float(np.sum(self.values[:m]))


def improvement_sequence(bundle: ScenarioBundle, order: int) -> ImprovementSequence:
    order = _check_order(order)
    if bundle.scenario.kind == CELLULAR:
        vals = series_reciprocal(cellular_entries(bundle, order).values)
    else:
        vals = series_exp(adhoc_entries(bundle, order).values)
    return ImprovementSequence(values=vals, flavor=bundle.scenario.kind)


@dataclass(frozen=True)
class DecayDiagnostics:
    ratios: np.ndarray   # p_bar[n] / p_bar[n+1]
    truncated: bool      # True when coefficients underflowed and were dropped


def outage_decay_check(bundle: ScenarioBundle, order: int = 120) -> DecayDiagnostics:
    """Successive improvement ratios, which converge to the decay rate.

    Coefficients below the double-precision floor are cut off rather than
    fed into meaningless quotients; ``truncated`` reports when that
    happened.
    """
    seq = improvement_sequence(bundle, order).values
    keep = seq.size
    for i, v in enumerate(seq):
        if not (v > _UNDERFLOW_FLOOR):
            keep = i
            break
    truncated = keep < seq.size
    head = seq[:keep]
    if head.size < 2:
        raise ValidationError("order too small (or decay too fast) to form any ratio")
    return DecayDiagnostics(ratios=head[:-1] / head[1:], truncated=truncated)


# ---------------------------------------------------------------------------
# cellular decay rate

_W_GRID = [j / 16.0 for j in range(1, 16)] + [1.0 - 2.0**-i for i in range(5, 12)]

# Below this kappa the root equation is evaluated on w > 1/2 through its
# connection formula at 1 - w; its rounding error grows like 1e-16 / (1 - kappa).
_CONNECTION_KAPPA_MAX = 1.0 - 1e-3


def _rc_gamma(bundle: ScenarioBundle) -> float:
    # The generating function of the improvements has its first singularity
    # at z = 1 + w* theta / (tau beta), where w* in (0, 1) is the root of a
    # Gauss hypergeometric section; the improvement ratio converges there.
    sc = bundle.scenario
    kappa = bundle.interferer.kappa
    delta = bundle.delta
    scale = bundle.signal.scale / (sc.threshold * bundle.interferer.beta)

    # The defining series of 2F1(kappa, -delta; 1 - delta; w) needs about
    # 37 / (1 - w) terms, which near the endpoint of _W_GRID is 75 000 per
    # call.  For kappa < 1, the connection formula at 1 - w (DLMF 15.8.4,
    # A&S 15.3.6) gives
    #   2F1 = G(1-d) G(1-k) / G(1-d-k) w^d
    #         + d / (1-k) (1-w)^(1-k) 2F1(1-d-k, 1; 2-k; 1-w),
    # whose series needs at most about 55 terms on w > 1/2.
    connected = kappa < _CONNECTION_KAPPA_MAX
    if connected:
        a = 1.0 - delta - kappa
        head = 0.0 if a == 0.0 else math.gamma(1.0 - delta) * math.gamma(1.0 - kappa) / math.gamma(a)

    def lhs(w: float) -> float:
        if connected and w > 0.5:
            v = 1.0 - w
            tail = specfun.hyp2f1(a, 1.0, 2.0 - kappa, v)
            return head * w**delta + delta / (1.0 - kappa) * v ** (1.0 - kappa) * tail
        return specfun.hyp2f1(kappa, -delta, 1.0 - delta, w)

    lo, f_lo = 0.0, 1.0
    hi = None
    for w in _W_GRID:
        val = lhs(w)
        if val <= 0.0:
            hi, f_hi = w, val
            break
        lo, f_lo = w, val
    if hi is None:
        raise RootNotFoundError(
            "no decay rate in the admissible range: the ratio-limit equation "
            "stays positive (this happens for kappa below 1 - delta, and for "
            "roots within 5e-4 of the singular endpoint)"
        )
    # Illinois false position needs about 10 evaluations where bisection
    # needs about 45.  The endpoint that stays put twice in a row has its value
    # halved, so both ends converge on the (simple) root; each step lands at
    # least a quarter of the final width inside the bracket, so that once
    # one end sits on the root the next step closes the bracket.
    moved = 0  # -1 after lo moved, +1 after hi moved
    for _ in range(200):
        if hi - lo <= 1e-15 * hi:
            break
        step = 2.5e-16 * hi
        w = min(max((lo * f_hi - hi * f_lo) / (f_hi - f_lo), lo + step), hi - step)
        val = lhs(w)
        if val > 0.0:
            lo, f_lo = w, val
            if moved < 0:
                f_hi *= 0.5
            moved = -1
        else:
            hi, f_hi = w, val
            if moved > 0:
                f_lo *= 0.5
            moved = 1
    return 1.0 + 0.5 * (lo + hi) * scale


def _tail_rules_out_geometric_decay(pdf) -> bool:
    """Probe a density's tail for exponential decay.

    Geometric decay of the improvements requires the interferer gain to
    have an exponential moment, and a quadrature cannot detect its absence
    once the divergent region sits beyond any finite horizon. So probe the
    local rate -ln f(g) / g at geometrically spaced g: for exponential-type
    tails it stabilises, while for subexponential tails (power laws,
    stretched exponentials) it keeps shrinking by a constant factor each
    doubling. Densities that vanish or underflow at the probes are trusted,
    since truncated support is legitimate and implies every moment exists.
    """
    rates = []
    for j in range(8, 46):
        g = 2.0**j
        try:
            v = float(pdf(g))
        except OverflowError:
            v = 0.0
        if not math.isfinite(v) or v < 0.0:
            return False
        if v == 0.0:
            return False
        if v >= 1.0:
            rates.clear()
            continue
        rates.append(-math.log(v) / g)
    if len(rates) < 5:
        return False
    tail = rates[-5:]
    return all(nxt <= 0.9 * cur for cur, nxt in zip(tail, tail[1:]))


def _rc_general(bundle: ScenarioBundle) -> float:
    sc = bundle.scenario
    law = bundle.interferer
    delta = bundle.delta
    theta = bundle.signal.scale
    if law.pdf is None:
        raise UnsupportedConfigError(
            "the decay rate for a general interferer law needs its pdf; "
            "moment overrides alone are not enough"
        )
    if _tail_rules_out_geometric_decay(law.pdf):
        raise RootNotFoundError(
            "no geometric decay: the interferer density's tail decays slower "
            "than any exponential, so the improvement ratios have no "
            "geometric limit"
        )

    if law.delta_moment is not None:
        dm = law.delta_moment(delta)
    else:
        dm = _integral_on_half_line(lambda g: g**delta * law.pdf(g), "delta moment")

    def lhs(h: float) -> float:
        def integrand(g):
            return specfun.hyp1f1(-delta, 1.0 - delta, h * sc.threshold * g / theta) * law.pdf(g)

        try:
            return _integral_on_half_line(integrand, "decay-rate expectation")
        except (ValidationError, NumericalError, OverflowError):
            # The expectation stops existing beyond the law's exponential-moment
            # boundary, and the root always sits strictly before that boundary,
            # so a divergent evaluation counts as "past the root".
            return -math.inf

    lo = 0.0
    hi = theta / (sc.threshold * dm ** (1.0 / delta) * 8.0)
    for _ in range(64):
        if lhs(hi) <= 0.0:
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise RootNotFoundError("could not bracket the decay-rate root in 64 doublings")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-13 * hi:
            break
        if lhs(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    if lo == 0.0:
        raise RootNotFoundError(
            "no geometric decay: the expectation diverges at every positive step, "
            "so the improvement ratios have no finite limit"
        )
    return 1.0 + 0.5 * (lo + hi)


def cellular_decay_rate(bundle: ScenarioBundle) -> float:
    """Limit of improvement ratios p_bar[n] / p_bar[n+1] for a cellular scenario.

    Equivalently, outage decays by this factor per added antenna, which
    makes log outage asymptotically linear in the antenna count.
    """
    if bundle.scenario.kind != CELLULAR:
        raise ValidationError("the decay rate is defined for cellular scenarios")
    if bundle.interferer.is_gamma:
        return _rc_gamma(bundle)
    return _rc_general(bundle)


# ---------------------------------------------------------------------------
# ad hoc closed forms

def _require_plain_adhoc(bundle: ScenarioBundle, context: str) -> None:
    if bundle.scenario.kind != ADHOC:
        raise UnsupportedConfigError(f"{context} applies to ad hoc scenarios")
    if bundle.scenario.noise != 0.0:
        raise UnsupportedConfigError(f"{context} requires zero noise")


def adhoc_pbar_closed_form(bundle: ScenarioBundle, n: int) -> float:
    """Improvement coefficient n from the Stirling/Touchard identity.

    The identity is evaluated in exact rational arithmetic (Stirling numbers
    are integers; mu and delta enter as dyadic rationals) with a single
    rounding at the end, so it is a trustworthy reference for the floating
    recursion up to the order guard.
    """
    _require_plain_adhoc(bundle, "the Stirling closed form")
    if not isinstance(n, int) or n < 0:
        raise ValidationError(f"coefficient index must be a non-negative integer, got {n!r}")
    mu = adhoc_mu(bundle)
    if n == 0:
        return math.exp(-mu)
    mu_frac = Fraction(mu)
    delta_frac = Fraction(bundle.delta)
    acc = Fraction(0)
    dpow = Fraction(1)
    for k in range(1, n + 1):
        dpow *= delta_frac
        acc += specfun.stirling_first(n, k) * specfun._touchard_exact(k, -mu_frac) * dpow
    signed = acc if n % 2 == 0 else -acc
    return math.exp(-mu) * float(signed / math.factorial(n))


def adhoc_pbar_bessel(bundle: ScenarioBundle, n: int) -> float:
    """Improvement coefficient n from the Bessel identity (alpha = 4 only)."""
    _require_plain_adhoc(bundle, "the Bessel closed form")
    if bundle.scenario.alpha != 4.0:
        raise UnsupportedConfigError("the Bessel closed form needs alpha = 4")
    if not isinstance(n, int) or n < 0:
        raise ValidationError(f"coefficient index must be a non-negative integer, got {n!r}")
    mu = adhoc_mu(bundle)
    front = math.sqrt(2.0 * mu / math.pi)
    log_w = n * math.log(mu / 2.0) - math.lgamma(n + 1.0) if n else 0.0
    return front * math.exp(log_w) * specfun.bessel_k_half(n, mu)


@dataclass(frozen=True)
class PeakBound:
    mu: float
    index_bound: int   # the largest improvement occurs at an index <= this
    monotone: bool     # True when the improvements only ever decrease


def adhoc_peak_bound(bundle: ScenarioBundle) -> PeakBound:
    """Where the per-antenna improvements can peak, straight from mu.

    For mu < 2 the sequence decreases from the start; otherwise the peak
    index is bounded by ceil(mu^2 / 4 - 1) + 1.
    """
    _require_plain_adhoc(bundle, "the peak-location bound")
    mu = adhoc_mu(bundle)
    bound = math.ceil(mu * mu / 4.0 - 1.0) + 1
    return PeakBound(mu=mu, index_bound=max(bound, 1), monotone=mu < 2.0)
