"""Structural consequences of the series form: density response, antenna
scaling, and where the ad hoc improvements peak.

Everything here is derived from the same entry sequences as the coverage
values themselves, so these helpers double as consistency probes: the
density profile must reproduce pointwise coverage, and the per-antenna
improvement ratios must approach the decay rate.  The Stirling/Touchard
and Bessel closed forms of the ad hoc improvements live in the tests, as
the reference the series coefficients must match.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import specfun
from .errors import NumericalError, RootNotFoundError, UnsupportedConfigError, ValidationError
from .model import (ADHOC, CELLULAR, ScenarioBundle, _integral_on_half_line, _positive_integer,
                    _real)
from .analytic import _check_order, _improvements, _refuse_cellular_noise, _rounded_estimate, adhoc_mu
from .series import coeff_sum

_UNDERFLOW_FLOOR = 1e-300


# ---------------------------------------------------------------------------
# density dependence (ad hoc)

def _check_density(lam) -> float:
    lam = _real(lam, "transmitter density lambda")
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValidationError("transmitter density lambda must be positive")
    return lam


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

    Each step runs the recurrence on the whole column, j = 0 .. M-1, with
    six ufunc calls on fixed views of one buffer and two preallocated work
    arrays.  The entries with j > n + 1 are exact zeros and stay +0.0:
    (n - delta j) * 0.0 may be -0.0, but adding delta c g[j-1, n] = +0.0
    gives +0.0 again.  So adding the column to betas leaves those entries
    untouched, and every output is the float that stepping only the
    nonzero head gives.

    Raises ``NumericalError`` when a coefficient leaves the double range,
    which happens when c^j / j! overflows (large c = mu / lam with many
    antennas, or c itself infinite); the loop raises no floating-point
    warning on the way.
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

    # g[1 + j] holds g[j, n]; g[0] stays 0 so that prev[j] is g[j-1, n]
    g = np.zeros(m + 1, dtype=np.float64)
    g[1] = 1.0
    cur, prev = g[1:], g[:-1]
    term = np.empty(m, dtype=np.float64)
    carry = np.empty(m, dtype=np.float64)
    betas = np.zeros(m, dtype=np.float64)
    betas[0] = 1.0
    # positional outputs and Python float steps: the cheapest ufunc calls
    add, multiply, divide = np.add, np.multiply, np.divide
    # inf, or nan where an infinite c meets a zero, is caught below
    with np.errstate(over="ignore", invalid="ignore"):
        for n in map(float, range(m - 1)):
            add(n, slope, term)
            multiply(term, cur, term)
            multiply(shift, prev, carry)
            add(term, carry, term)
            divide(term, n + 1.0, cur)
            add(betas, cur, betas)
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

    Partial sums recover coverage: ``coverage_at(m)`` sums values[:m] and
    rounds onto [0, 1] as ``coverage`` does; at m = order it is the value
    ``coverage`` gives with m antennas, below it that value to rounding (a
    longer cellular column anchors its recurrence deeper).  The terms are
    positive and eventually decay geometrically at the rate returned by
    ``cellular_decay_rate``.
    """

    values: np.ndarray

    def coverage_at(self, m: int) -> float:
        if m != 0:  # 0 is an integer, outside the range like m > order
            m = _positive_integer(m, "antenna count")
        if not (1 <= m <= self.values.size):
            raise ValidationError(f"antenna count {m} outside the computed range")
        return _rounded_estimate(coeff_sum(self.values[:m]), m).value


def improvement_sequence(bundle: ScenarioBundle, order: int) -> ImprovementSequence:
    return ImprovementSequence(values=_improvements(bundle, order))


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
    low = np.flatnonzero(~(seq > _UNDERFLOW_FLOOR))  # nan stops it too
    keep = int(low[0]) if low.size else seq.size
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

_MAX_STEPS = 200  # evaluations _false_position may spend on one bracket
_LOG_HUGE = math.log(sys.float_info.max)

_NO_GAMMA_ROOT = (
    "no decay rate in the admissible range: the ratio-limit equation "
    "stays positive (this happens for kappa below 1 - delta, and for "
    "roots within 5e-4 of the singular endpoint)"
)


def _overflows(w: float, kappa: float, delta: float) -> bool:
    """True when one term of 2F1(kappa, -delta; 1-delta; w) is provably past the
    double range: |t_k| = delta/(k-delta) (kappa)_k w^k / k! >= delta/k (kappa w/k)^k,
    at k about kappa w / e."""
    k = max(1.0, kappa * w // math.e)
    return math.log(delta / k) + k * math.log(kappa * w / k) > _LOG_HUGE


def _rc_gamma(bundle: ScenarioBundle) -> float:
    # The generating function of the improvements has its first singularity
    # at z = 1 + h*, h* = w* theta / (tau beta), where w* in (0, 1) is the
    # root of a Gauss hypergeometric section; the improvement ratio
    # converges there.  Returns h*.
    sc = bundle.scenario
    kappa = bundle.interferer.kappa
    delta = bundle.delta
    scale = bundle.signal.scale / (sc.threshold * bundle.interferer.beta)

    # Both series are summed by specfun.GaussSeries, over ratios formed once
    # per root: up to about 96 000 terms for 2F1(kappa, -delta; 1 - delta; w)
    # at kappa = 1 and the last point of _W_GRID.  Every term of that series
    # past the first is negative, so a product that overflows makes it -inf,
    # which the search reads as "past the root".  _grid_bracket bisects
    # _W_GRID for the first point past the root (the equation decreases, so
    # that is the point a scan would stop at), and _false_position closes
    # the bracket it returns.  For kappa < 1, w > 1/2 goes through the
    # connection formula at 1 - w (DLMF 15.8.4, A&S 15.3.6),
    #   2F1 = G(1-d) G(1-k) / G(1-d-k) w^d
    #         + d / (1-k) (1-w)^(1-k) 2F1(1-d-k, 1; 2-k; 1-w),
    # whose series needs at most 59 terms at 1 - w < 1/2.
    #
    # For a = 1 - d - k >= 0 the equation decreases strictly on (0, 1) to
    # its value at w = 1, Gauss's sum G(1-d) G(1-k) / G(a) >= 0 (0 at
    # a = 0), so it has no root there and no series need be summed.
    a = 1.0 - delta - kappa
    if a >= 0.0:
        raise RootNotFoundError(_NO_GAMMA_ROOT)
    defining = specfun.GaussSeries(kappa, -delta, 1.0 - delta)
    connected = kappa < _CONNECTION_KAPPA_MAX
    if connected:
        head = math.gamma(1.0 - delta) * math.gamma(1.0 - kappa) / math.gamma(a)
        tail = specfun.GaussSeries(a, 1.0, 2.0 - kappa)

    def lhs(w: float) -> float:
        if connected and w > 0.5:
            v = 1.0 - w
            return head * w**delta + delta / (1.0 - kappa) * v ** (1.0 - kappa) * tail(v)
        if _overflows(w, kappa, delta):
            return -math.inf
        return defining(w)

    # Every term past 1 - delta kappa w / (1 - delta) is negative, so the
    # equation is at most -1 from this w on.  Below the first grid point
    # (large shapes) the bracket is [0, past] itself, where the equation is
    # finite, so false position does not start from an end at -inf or many
    # orders beyond the other.
    past = 2.0 * (1.0 - delta) / (delta * kappa)
    with np.errstate(over="ignore", under="ignore"):
        if past < _W_GRID[0]:
            lo, f_lo, hi, f_hi = 0.0, 1.0, past, lhs(past)
        else:
            lo, f_lo, hi, f_hi = _grid_bracket(lhs, past)
        lo, _, hi, _ = _false_position(lhs, lo, f_lo, hi, f_hi)
    return 0.5 * (lo + hi) * scale


def _grid_bracket(lhs, past: float) -> tuple:
    """The first point hi of _W_GRID where lhs(hi) <= 0, and the point lo
    before it (w = 0, where the root equation is 1, before the first), as
    (lo, lhs(lo), hi, lhs(hi)); ``RootNotFoundError`` if lhs stays positive.
    lhs must be at most -1 from w = ``past`` on.

    The root equation decreases strictly on (0, 1): every term of
    2F1(kappa, -delta; 1-delta; w) past the first is negative and grows in
    magnitude with w, the connection formula evaluates the same function,
    and ``_overflows``, once true at some w, stays true at every larger one.
    So its values on the grid are positive below one index and not from
    there on, and that index is at most the first one at or past ``past``.
    Bisecting the indices up to that one ends on the same two points, with
    the same two values, as a scan from the left, after at most 5
    evaluations where the scan takes up to 22.  The bound spares large
    shapes, whose root lies below the first point, the longer series of
    the points further right.
    """
    i_lo, f_lo = -1, 1.0  # index -1 stands for w = 0
    i_hi = min(bisect.bisect_left(_W_GRID, past) + 1, len(_W_GRID))
    while i_hi - i_lo > 1:
        mid = (i_lo + i_hi) // 2
        val = lhs(_W_GRID[mid])
        if val > 0.0:
            i_lo, f_lo = mid, val
        else:
            i_hi, f_hi = mid, val
    if i_hi == len(_W_GRID):
        raise RootNotFoundError(_NO_GAMMA_ROOT)
    return (_W_GRID[i_lo] if i_lo >= 0 else 0.0), f_lo, _W_GRID[i_hi], f_hi


def _false_position(lhs, lo: float, f_lo: float, hi: float, f_hi: float) -> tuple:
    """Shrink a bracket lhs(lo) = f_lo > 0 >= f_hi = lhs(hi) onto the root
    of the decreasing lhs, and return the final bracket (lo, f_lo, hi, f_hi).

    Illinois false position needs about 10 evaluations where bisection
    needs about 45.  The endpoint that stays put twice in a row has its value
    halved, so both ends converge on the (simple) root; each step lands at
    least a quarter of the final width inside the bracket, so that once
    one end sits on the root the next step closes the bracket.  An end
    where lhs is -inf (no longer defined) has no slope to follow, so the
    step toward it bisects, and so does the step after two clamped ones in
    a row: an end value many orders beyond the other keeps every step on
    the clamp.  A bracket still open after _MAX_STEPS raises
    ``RootNotFoundError``.
    """
    moved = 0  # -1 after lo moved, +1 after hi moved
    clamped = 0  # false-position steps in a row that landed on the clamp
    steps = 0
    while hi - lo > 1e-15 * hi:
        if steps == _MAX_STEPS:
            raise RootNotFoundError(
                f"the decay-rate root did not converge: after {_MAX_STEPS} steps its "
                f"bracket [{lo!r}, {hi!r}] is still wider than 1e-15 of its end"
            )
        steps += 1
        if f_hi == -math.inf or clamped == 2:
            w = 0.5 * (lo + hi)
            clamped = 0
        else:
            step = 2.5e-16 * hi
            guess = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
            w = min(max(guess, lo + step), hi - step)
            clamped = clamped + 1 if w != guess else 0
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
    return lo, f_lo, hi, f_hi


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
    # The root h* of E[1F1(-delta; 1-delta; h tau g / theta)] = 0 over the
    # interferer gain g gives the rate 1 + h*.  Returns h*.
    from scipy import special as sp  # imported on first use: only general laws need it

    sc = bundle.scenario
    law = bundle.interferer
    delta = bundle.delta
    theta = bundle.signal.scale
    if _tail_rules_out_geometric_decay(law.pdf):
        raise RootNotFoundError(
            "no geometric decay: the interferer density's tail decays slower "
            "than any exponential, so the improvement ratios have no "
            "geometric limit"
        )

    def lhs(h: float) -> float:
        rate = h * sc.threshold / theta

        # Kummer: 1F1(-delta; 1-delta; y) = e^y 1F1(1; 1-delta; -y), and the
        # second factor is bounded (about -delta / y for large y).  e^y alone
        # overflows past y = 709 while pdf(g) e^y stays finite as long as the
        # tail decays faster than e^(-rate g), so e^y joins the pdf in log form.
        def integrand(g):
            p = law.pdf(g)
            if p == 0.0:
                return 0.0
            y = rate * g
            weight = math.copysign(math.exp(math.log(abs(p)) + y), p)  # pdf(g) e^y
            return weight * sp.hyp1f1(1.0, 1.0 - delta, -y)

        try:
            return _integral_on_half_line(integrand, "decay-rate expectation")
        except (ValidationError, NumericalError, OverflowError):
            # The expectation stops existing beyond the law's exponential-moment
            # boundary, and the root always sits strictly before that boundary,
            # so a divergent evaluation counts as "past the root".
            return -math.inf

    lo, f_lo = 0.0, 1.0
    hi = theta / (sc.threshold * bundle.delta_moment ** (1.0 / delta) * 8.0)
    for _ in range(64):
        f_hi = lhs(hi)
        if f_hi <= 0.0:
            break
        lo, f_lo, hi = hi, f_hi, 2.0 * hi
    else:
        raise RootNotFoundError("could not bracket the decay-rate root in 64 doublings")
    lo, _, hi, f_hi = _false_position(lhs, lo, f_lo, hi, f_hi)
    if lo == 0.0:
        raise RootNotFoundError(
            "no geometric decay: the expectation diverges at every positive step, "
            "so the improvement ratios have no finite limit"
        )
    if f_hi == -math.inf:
        # The bracket closed on the first step that could not be evaluated,
        # not on a sign change: either the expectation stays positive up to
        # the exponential-moment boundary (no root), or the pdf underflows to
        # 0 while pdf(g) e^y is still sizeable, so its tail goes missing.
        raise RootNotFoundError(
            "no decay rate located: the ratio-limit equation stays positive up "
            f"to a rate of {1.0 + lo:.6g}, past which its expectation could not "
            "be evaluated"
        )
    return 0.5 * (lo + hi)


def cellular_decay_rate(bundle: ScenarioBundle) -> float:
    """Limit of improvement ratios p_bar[n] / p_bar[n+1] for a cellular scenario.

    Equivalently, outage decays by this factor per added antenna, which
    makes log outage asymptotically linear in the antenna count.  A rate
    1 + h* that rounds to 1 in double precision (Gamma shapes from about
    1e16 on) raises ``NumericalError``: 1 would read as no decay at all.
    So does an h* past the double range, where theta / (tau beta) overflows.
    """
    if bundle.scenario.kind != CELLULAR:
        raise ValidationError("the decay rate is defined for cellular scenarios")
    _refuse_cellular_noise(bundle)
    h = _rc_gamma(bundle) if bundle.interferer.is_gamma else _rc_general(bundle)
    if not math.isfinite(h):
        raise NumericalError(f"the decay rate 1 + h* overflows: h* = {h!r}")
    if 1.0 + h == 1.0:
        raise NumericalError(f"the decay rate 1 + {h!r} rounds to 1 in double precision")
    return 1.0 + h


# ---------------------------------------------------------------------------
# ad hoc peak location

@dataclass(frozen=True)
class PeakBound:
    mu: float
    index_bound: int   # the largest improvement occurs at an index <= this
    monotone: bool     # True when the improvements only ever decrease


def adhoc_peak_bound(bundle: ScenarioBundle) -> PeakBound:
    """Where the per-antenna improvements can peak, straight from mu.

    For mu < 2 the sequence decreases from the start; otherwise the peak
    index is bounded by ceil(mu^2 / 4 - 1) + 1.  A bound past the double
    range raises ``NumericalError``.
    """
    if bundle.scenario.kind != ADHOC:
        raise UnsupportedConfigError("the peak-location bound applies to ad hoc scenarios")
    if bundle.scenario.noise != 0.0:
        raise UnsupportedConfigError("the peak-location bound requires zero noise")
    mu = adhoc_mu(bundle)
    if not math.isfinite(mu * mu):
        raise NumericalError(f"the peak index bound overflows at mu = {mu:.6g}")
    bound = math.ceil(mu * mu / 4.0 - 1.0) + 1
    return PeakBound(mu=mu, index_bound=max(bound, 1), monotone=mu < 2.0)
