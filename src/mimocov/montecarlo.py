"""Monte Carlo reference simulator for both scenario kinds.

The simulator is deliberately naive about geometry: it scatters a Poisson
number of points uniformly in a disc around the receiver and, for cellular
scenarios, serves the nearest one, so the serving-distance law is produced
by the construction rather than assumed.  Everything the analytic engine
predicts (including the distance distribution itself) is therefore probed
by an independent mechanism.

The simulated disc has radius R.  By default (``SimConfig.window_radius``
None) it is a near disc, for every interferer law: the points inside R
are simulated exactly, and the field beyond R is replaced by its mean,
E[I_far] = 2 pi lam E[g] R^(2 - alpha) / (alpha - 2) (Campbell's theorem,
taken in anchor units as below), added to every trial's interference.
A trial covers with probability Q(M, s (x + I_far)) given the rest, with
s = tau (r / anchor)^alpha / theta and Q the regularized upper incomplete
gamma, and |d^2 Q(M, x) / dx^2| <= 1 for every integer M >= 1.  The far
field is independent of the rest, so by Taylor's theorem the mean moves
the coverage by at most 1/2 E[s^2] Var I_far, where
Var I_far = pi lam E[g^2] R^(2 - 2 alpha) / (alpha - 1).  ``auto_window``
takes the smaller of two radii: the smallest that keeps this bound within
1e-5, and the variance radius, which leaves (R / anchor)^(2 - 2 alpha) =
1e-5 of the far field's variance, floored at 200 points per trial.  So an
automatic run draws a few points per trial at low thresholds and at most
200 at alpha >= 3 (about 1500 for cellular at alpha = 2.5), where plain
truncation needs 7e3 to 7e15.  A general law's E[g] and E[g^2] come from
its pdf by quadrature, and a law with either infinite is refused.  Only an
explicit ``window_radius`` gets plain truncation: points outside R are
dropped, and nothing is added for them.

Distances are measured in the anchor, the scale of the link: r0 for ad
hoc, the median serving distance sqrt(ln 2 / (pi lam)) for cellular.  So
an ad hoc serving term is 1, the density is lam anchor^2 points per
squared anchor, the noise enters as noise anchor^alpha (formed only when
there is noise; an overflow there raises ``NumericalError``), and the
float32 positions see the same numbers at every length scale: one seed
gives one estimate whether lam is 1e-20 or 1e30.

Positions are drawn as u = d^2 / R^2, uniform on (0, 1].  In a cellular
trial with N points the nearest one is drawn directly from the law of the
minimum of N uniforms, u_min = 1 - (1 - V)^(1/N) for one uniform V, and the
other N - 1 points uniformly on (u_min, 1]: jointly this is exactly N
uniform points with the nearest one singled out, so no search for it is
needed.  Points are generated in float32 and summed per trial: by
``np.bincount`` in float64 where a trial holds fewer than ``_FEW_POINTS``
points on average, else by segmented ``np.add.reduceat`` in float32;
statistics are accumulated in float64.

No signal gain is drawn.  Given the rest, a trial covers with probability
Q(M, x) (above), x its noise and interference in anchor units times s, and
it contributes Q(M, x) itself (conditional Monte Carlo; Asmussen and
Glynn, Stochastic Simulation, 2007, ch. V), which never has more variance
than a 0/1 outcome against a drawn gain (2.2-40 times less in cellular
cases at alpha 3 and 4).  With u an interferer's squared distance in
anchors (ad hoc) or over the serving one (cellular), an alpha = 4 term is
g / u^2, their float32 sum scaled by tau / theta; any other is
exp(log(tau / theta) + log g - (alpha / 2) log u) in float32, so none
vanishes or overflows where it could decide a trial (past float32 it is
inf, Q 0; below 1.4e-45, 0).  Its relative error is a few float32 ulps of
the exponent, about 2.4e-4 at +-3000 dB, where |log(tau / theta)| ~ 690.

A simulation is a kernel and an estimator.  The kernel (``_loads``)
draws from SFC64 streams seeded from ``SeedSequence(seed)`` under fixed
spawn keys: the point counts 0 (``_counts``), the positions 1
(``_open_uniforms``), the interferer gains 2 (``_interferer_draw``) and,
for cellular runs, the nearest-point uniforms V 4.  Key 3 held the signal
gains and stays unused, so every other stream, and every trial's x, keeps
its draws.  The kernel draws the counts of one group of 2^16 trials
(``_COUNT_GROUP``) at a time, works the group in runs of at most 2^16
points (``_runs``), which reuse one workspace (``_Workspace``), and yields
the group's x.  The estimator (``simulate``) reduces each group's Q(M, x)
once and merges the groups in order (``_pooled``).  Each kind of draw
comes from its own stream in trial order, and neither the count groups
nor the redraws depend on the run size, so the runs cannot change any draw
or sum: an estimate is reproducible bit for bit from its seed, whatever
the run size.  The trials are independent, so the halfwidth of the
confidence interval is 1.96 s / sqrt(n), s the sample standard deviation
of the n trials' Q values.  The simulation runs in the calling thread, on
one core, so its run time does not hinge on whether other cores are free.

A cellular trial needs at least one point to serve from; one with none is
redrawn.  A window whose empty share, P(N = 0) = exp(-lam pi R^2), exceeds
1% is refused before anything is drawn, so the redraws stay rare and end
within a few rounds.  Every refusal comes from ``_plan``, which a caller
can run for a whole grid before the first trial.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, NumericalError, ValidationError
from .model import (CELLULAR, METHOD_MC, CoverageEstimate, ScenarioBundle, _integer,
                    _integral_on_half_line, _real)

_MAX_ENTRIES = 8_000_000  # cap on a trial's expected points
_MAX_TRIALS = 800_000_000  # cap on a simulation's trials
# most weight of one run: with the reused workspace, cellular runs of 2^16
# and 2^17 points took 7% less time than 2^15, and 2^18 3% less
_BLOCK_POINTS = 1 << 16
_COUNT_GROUP = 1 << 16  # trials whose point counts are drawn at once
# largest M whose Q is summed one exp a term (see _upper_gamma): for 2^16
# values that takes 1.8 ms at M = 8 (2.5-3.2 as a series), 3.0-6.6 ms at
# M = 16 (3.9-4.5) and 0.4-0.6 s at M = 512 (8-10 ms)
_DIRECT_SHAPES = 16
_EMPTY_BUDGET = 0.01  # share of cellular trials allowed to come up empty
_FAR_BIAS = 1e-5  # coverage bias the far-field mean may cause
# mean points per trial below which the counts are split from one Poisson
# total and a trial's terms are summed by bincount: NumPy's Poisson uses the
# multiplication method below 10, whose cost grows with the mean
_FEW_POINTS = 10.0
_LOG_HUGE = math.log(sys.float_info.max)
_MIN_POINTS = 200.0  # expected points per realization, at least
_NEAR_VARIANCE = 1e-5  # (R / anchor)^(2 - 2 alpha) left by the far-field mean
_PRODUCT_SHAPES = (1.0, 2.0, 3.0, 4.0)  # Gamma shapes drawn as -log of a product of uniforms
_RAW_WORDS = 1 << 14  # raw words per piece: one bounded 128 KiB buffer, whatever the draw's size
_SERIES_CHECK = 8  # series passes between convergence checks
_SERIES_EPS = 2.0**-56  # a term below this share of its sum ends the sum
_SHIFT = np.uint32(8)  # a float32 uniform keeps the top 24 bits of its half
_ULP = np.float32(2.0**-24)


@dataclass(frozen=True)
class SimConfig:
    """Knobs of one simulation run.

    ``window_radius`` is the radius of the simulated disc.  Leave it None
    to size the disc from the scenario (see ``auto_window``); the far field
    beyond it then enters as its mean, which moves the coverage by at most
    about 1e-5: proven where the bias radius sets the disc; where the
    variance radius does (cellular alpha <= 3 from 0 dB, alpha = 4 from
    10 dB) the exact single-antenna Rayleigh bias stayed below 1.3e-6
    (alpha 2.5-4, 0-30 dB).  A law with infinite E[g^2] needs a radius.
    An explicit radius means plain truncation: interferers beyond it are
    dropped and no far-field mean is added.  A cellular window must hold a
    point in at least 99% of the realizations, or ``simulate`` refuses it.
    The estimate averages the trials' conditional coverage Q(M, x), and
    its confidence interval comes from their sample variance, so
    ``trials`` is at least 2; it is at most 8e8.
    ``trials`` and ``seed`` are Python or numpy integers and
    ``window_radius`` a real number, none of them a bool.
    ``seed`` fixes every draw.  How the counts are drawn and the terms
    summed follows from the scenario alone (the mean points per trial; see
    the module docstring), never from the run size, so there is no knob
    for it.
    """

    trials: int = 100_000
    seed: int = 0
    window_radius: Optional[float] = None

    def __post_init__(self):
        trials, seed = _integer(self.trials), _integer(self.seed)
        if trials is None or trials < 2:
            raise ValidationError("trials must be an integer of at least 2")
        if trials > _MAX_TRIALS:
            raise ConfigurationError(f"trials must be at most {_MAX_TRIALS}")
        if seed is None or not (0 <= seed < 2**64):
            raise ValidationError("seed must be an integer in [0, 2^64)")
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "seed", seed)
        if self.window_radius is not None:
            radius = _real(self.window_radius, "window_radius")
            if not (radius > 0.0 and math.isfinite(radius)):
                raise ValidationError("window_radius must be positive")
            object.__setattr__(self, "window_radius", radius)


def _anchor(bundle: ScenarioBundle) -> float:
    """The scale of the link: r0 for ad hoc, the median serving distance
    sqrt(ln 2 / (pi lam)) for cellular."""
    sc = bundle.scenario
    if sc.kind == CELLULAR:
        return math.sqrt(math.log(2.0) / (math.pi * sc.lam))
    return sc.r0


def _gain_moments(bundle: ScenarioBundle) -> tuple:
    """log E[g] and log E[g^2] of the interferer gain: kappa beta and
    kappa (kappa + 1) beta^2 for a Gamma law, one vector quadrature of the
    pdf for a general law.  Only default windows need them, so analytic
    callers never pay for the quadrature.  A divergent moment leaves no
    far-field mean or variance, and raises ``ConfigurationError``."""
    law = bundle.interferer
    if law.is_gamma:
        log_gain = math.log(law.kappa) + math.log(law.beta)
        return log_gain, log_gain + math.log(law.kappa + 1.0) + math.log(law.beta)
    try:
        gain, gain_sq = _integral_on_half_line(lambda g: law.pdf(g) * np.array([g, g * g]),
                                               "interferer moments E[g], E[g^2]")
    except (NumericalError, ValidationError) as exc:
        raise ConfigurationError(f"the default window needs a finite E[g] and E[g^2] of the "
                                 f"interferer gain ({exc}); give a window_radius for plain "
                                 "truncation") from None
    return math.log(gain), math.log(gain_sq)


def auto_window(bundle: ScenarioBundle) -> float:
    """Radius of the disc ``simulate`` scatters points in by default.

    Distances are measured in the anchor, the scale of the link: r0 for ad
    hoc, the median serving distance for cellular.  The far field beyond R
    enters as its mean, for every interferer law.  R is the smaller of two
    radii: the bias radius, which provably keeps the coverage bias of that
    mean within 1e-5 (see ``_window``), and the variance radius, which
    makes the far field's variance relative size (R / anchor)^(2 - 2 alpha)
    = 1e-5 and holds at least ~200 points per realization on average.  So
    a run never draws more points than the variance radius holds, and far
    fewer where the threshold is low.  The bound needs E[g^2] of the
    interferer gain, which a general law's pdf gives by quadrature; a law
    with an infinite E[g] or E[g^2] raises ``ConfigurationError``.
    """
    return _window(bundle, _anchor(bundle), _gain_moments(bundle)[1])


def _window(bundle: ScenarioBundle, anchor: float, log_gain_sq: float) -> float:
    """``auto_window`` given the anchor and log E[g^2] of the interferer gain.

    The bias radius solves 1/2 E[s^2] Var I_far = _FAR_BIAS for
    rho = R / anchor, with E[s^2] = (tau / theta)^2 E[(r / anchor)^(2 alpha)]
    and, in anchor units, Var I_far = pi lam anchor^2 E[g^2]
    rho^(2 - 2 alpha) / (alpha - 1).  E[(r / anchor)^(2 alpha)] is 1 for ad
    hoc; for cellular (r / anchor)^2 is a unit exponential over ln 2, which
    gives Gamma(alpha + 1) / (ln 2)^alpha, and the disc also holds a point
    in all but ``_FAR_BIAS`` of the realizations.  Worked in logarithms, so
    no threshold or density overflows; an overflowing radius is infinite,
    and one that underflows is floored, as a larger disc only lowers the bias.
    """
    sc = bundle.scenario
    alpha = sc.alpha
    cellular = sc.kind == CELLULAR
    log_distance = math.lgamma(alpha + 1.0) - alpha * math.log(math.log(2.0)) if cellular else 0.0
    log_s2 = 2.0 * (math.log(sc.threshold) - math.log(bundle.signal.scale)) + log_distance
    log_var = (math.log(math.pi / (alpha - 1.0)) + log_gain_sq
               + math.log(sc.lam) + 2.0 * math.log(anchor))
    log_rho = (math.log(0.5 / _FAR_BIAS) + log_s2 + log_var) / (2.0 * alpha - 2.0)
    try:
        radius = max(anchor * math.exp(log_rho), sys.float_info.min)
    except OverflowError:
        radius = math.inf
    if cellular:
        radius = max(radius, math.sqrt(math.log(1.0 / _FAR_BIAS) / (math.pi * sc.lam)))
    count_radius = math.sqrt(_MIN_POINTS / (math.pi * sc.lam))
    variance_radius = anchor * (1.0 / _NEAR_VARIANCE) ** (1.0 / (2.0 * alpha - 2.0))
    return min(max(variance_radius, count_radius), radius)


def _far_field_mean(bundle: ScenarioBundle, radius: float, log_gain: float,
                    anchor: float) -> float:
    """Mean interference from the field beyond ``radius``, with distances
    measured in ``anchor``, given log E[g] of the interferer gain.

    Campbell's theorem: 2 pi lam' E[g] rho^(2 - alpha) / (alpha - 2), with
    rho = radius / anchor and lam' = lam anchor^2 the density per squared
    anchor, worked in logarithms, since rho^(2 - alpha) may pass the double
    range where the mean does not.  A mean past it raises
    ``NumericalError``.
    """
    sc = bundle.scenario
    log_mean = (math.log(2.0 * math.pi / (sc.alpha - 2.0)) + log_gain
                + math.log(sc.lam) + sc.alpha * math.log(anchor) + (2.0 - sc.alpha) * math.log(radius))
    if log_mean < _LOG_HUGE:
        return math.exp(log_mean)
    raise NumericalError(f"the mean far-field interference beyond radius {radius:.6g} overflows")


@dataclass(frozen=True)
class _Plan:
    """The disc of one run and what every trial adds for the rest."""

    anchor: float  # the length unit of the run
    radius: float  # of the simulated disc
    far_mean: float  # mean interference beyond the disc, in anchor units
    noise: float  # noise anchor^alpha: the noise in anchor units
    mean_points: float  # expected points per trial in the disc


def _plan(bundle: ScenarioBundle, config: SimConfig) -> _Plan:
    """Size one run and raise every refusal, before any stream is seeded."""
    sc = bundle.scenario
    law = bundle.interferer
    if not law.is_gamma and law.sampler is None:
        raise ConfigurationError(
            "Monte Carlo with a general interferer law needs a sampler(rng, size)"
        )
    anchor = _anchor(bundle)
    if config.window_radius is not None:
        radius, far_mean = config.window_radius, 0.0
    else:
        log_gain, log_gain_sq = _gain_moments(bundle)
        radius = _window(bundle, anchor, log_gain_sq)
        far_mean = _far_field_mean(bundle, radius, log_gain, anchor)
    noise = 0.0
    if sc.noise > 0.0:
        try:
            noise = sc.noise * anchor**sc.alpha
        except OverflowError:
            raise NumericalError("the noise in anchor units, noise anchor^alpha, overflows") from None
    mean_points = sc.lam * math.pi * radius * radius
    if mean_points > _MAX_ENTRIES:
        raise ConfigurationError(
            f"one realization needs {mean_points:.3g} points on average in a disc of "
            f"radius {radius:.6g}, more than the {_MAX_ENTRIES} a realization may hold "
            "on average; choose a smaller window_radius"
        )
    empty_share = math.exp(-mean_points)
    if sc.kind == CELLULAR and empty_share > _EMPTY_BUDGET:
        raise ConfigurationError(
            f"a disc of radius {radius:.6g} holds no point in {empty_share:.3g} of the "
            f"realizations, more than the {_EMPTY_BUDGET:.0%} budget; enlarge window_radius"
        )
    return _Plan(anchor, radius, far_mean, noise, mean_points)


def _halves(words: np.ndarray) -> np.ndarray:
    """The 32-bit halves of 64-bit words in draw order, each word's low half
    first.  The words are laid out little-endian (a byteswapped copy on a
    big-endian host, or for a big-endian array) and read as 32-bit halves,
    so the order holds on either byte order; on a little-endian host the
    halves of native words are a view of them."""
    return words.astype("<u8", copy=False).view("<u4")


def _open_uniforms(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill the float32 ``out`` with 1 - U for the ``out.size`` uniforms U
    that ``rng.random(out.size, dtype=np.float32)`` would return, leaving
    ``rng`` in the state that call leaves, and return ``out``.

    NumPy makes a float32 uniform of a 32-bit draw w as (w >> 8) 2^-24, and
    SFC64 serves its 32-bit draws as the halves of one 64-bit word, low half
    first, the high half kept in the state (``has_uint32``, ``uinteger``)
    for the next draw.  The halves are cut from ``bit_generator.random_raw``
    words by ``_halves``, which keeps that order on either byte order, at
    about two thirds of the cost of one call per value.  The words come
    ``_RAW_WORDS`` at a time, so a call of any size, a heavy trial's 8e6
    points included, holds one bounded word buffer next to its output.  A
    half left buffered by an earlier call, and the last one or two values,
    which share a word and may leave its high half buffered, come from
    ``rng.random`` itself, so the state ends as that call leaves it and a
    later call on ``rng`` continues the same stream.
    1 - U = (2^24 - k) 2^-24 is exact in float32 and lies in [2^-24, 1].
    ``rng`` must run on SFC64.
    """
    n = out.size
    bitgen = rng.bit_generator
    lead = bitgen.state["has_uint32"]
    if lead:
        rng.random(out=out[:1], dtype=np.float32)
    # the word of the values from stop on comes last; a lone value that a
    # buffered half serves is the lead, and nothing follows it
    stop = max(lead, n - 1 - (n - lead - 1) % 2)
    for lo in range(lead, stop, 2 * _RAW_WORDS):
        hi = min(stop, lo + 2 * _RAW_WORDS)
        halves = _halves(bitgen.random_raw((hi - lo) // 2))
        np.right_shift(halves, _SHIFT, out=halves)
        piece = out[lo:hi]
        piece[...] = halves.view("<i4")
        piece *= _ULP
    rng.random(out=out[stop:], dtype=np.float32)
    return np.subtract(np.float32(1.0), out, out=out)


def _interferer_draw(bundle: ScenarioBundle, rng: np.random.Generator, out: np.ndarray,
                     uniforms: np.ndarray) -> np.ndarray:
    """Fill the float32 ``out`` with interferer gains from ``rng`` and
    return it; ``uniforms`` is float32 room for kappa values per gain,
    which only a product shape kappa >= 2 uses.

    A Gamma law of integer shape kappa <= 4 is drawn by inverse transform
    (Devroye, Non-Uniform Random Variate Generation, 1986, ch. II.2 and
    IX.3): beta times -log of a product of kappa factors 1 - U_i, with U_i float32
    uniforms on [0, 1), which costs about one uniform per factor; the
    factors come straight from ``_open_uniforms``.  The uniforms are drawn
    point-major, so point i uses uniforms i kappa to i kappa + kappa - 1
    whatever the size of the call.  Each factor is at
    least 2^-24, so the product is at least 2^-96, well inside the float32
    normal range: the log never sees 0, and a draw lies in
    [0, 24 kappa ln 2 beta], about 16.6 kappa beta at most.  At kappa = 5
    the product costs as much as ``standard_gamma``, which draws every
    other shape.  A general law's sampler must return a finite,
    non-negative array of shape (size,); anything else raises
    ``ConfigurationError``.
    """
    law = bundle.interferer
    size = out.size
    if not law.is_gamma:
        gains = np.asarray(law.sampler(rng, size))
        if gains.shape != (size,):
            raise ConfigurationError(f"the interferer sampler returned shape {gains.shape} "
                                     f"for size {size}; it must return shape ({size},)")
        try:
            with np.errstate(over="ignore"):  # a gain past the float32 range is refused below
                np.copyto(out, gains, casting="same_kind")
        except TypeError:
            raise ConfigurationError(f"the interferer sampler returned {gains.dtype} values, "
                                     "not real numbers") from None
        if size and not (out.min() >= 0.0 and out.max() < np.inf):
            raise ConfigurationError("the interferer sampler returned a negative or non-finite "
                                     "gain (in float32)")
        return out
    if law.kappa in _PRODUCT_SHAPES:
        k = int(law.kappa)
        if k == 1:
            _open_uniforms(rng, out)
        else:
            u = _open_uniforms(rng, uniforms[:size * k])
            np.multiply(u[0::k], u[1::k], out=out)
            for j in range(2, k):
                out *= u[j::k]
        np.log(out, out=out)
        out *= np.float32(-law.beta)
        return out
    rng.standard_gamma(law.kappa, size, dtype=np.float32, out=out)
    if law.beta != 1.0:
        out *= np.float32(law.beta)
    return out


def _series(term: np.ndarray, factor: np.ndarray, scales, floor: float) -> np.ndarray:
    """t_0 + t_1 + ... per value, with t_0 = ``term`` and t_j = t_(j-1)
    ``factor`` scales[j - 1], terms that never grow.  A value's sum ends
    once its term falls below ``_SERIES_EPS`` (sum + ``floor``), checked
    every ``_SERIES_CHECK`` passes, after which only the values still
    running are carried on.  ``term`` and ``factor`` are overwritten."""
    out = term.copy()
    total, index = out, None  # the running sums, and where they go in out
    for j, scale in enumerate(scales, 1):
        term *= factor
        term *= scale
        total += term
        if j % _SERIES_CHECK == 0:
            live = np.flatnonzero(term > _SERIES_EPS * (total + floor))
            if index is None:
                index = live
            else:
                out[index] = total
                index = index[live]
            if not index.size:
                return out
            term, factor, total = term[live], factor[live], total[live]
    if index is not None:
        out[index] = total
    return out


def _upper_gamma(shape: int, x: np.ndarray) -> np.ndarray:
    """Q(M, x) = e^-x sum_{k<M} x^k / k!, M = ``shape``, from the positive
    Poisson terms t_k = exp(k log x - x - log k!): it holds where e^-x
    underflows (Q(512, 745.1) is about 6e-20) and needs no scipy.special.
    x is clipped to the largest double, so x = inf gives 0; x = 0 gives 1.

    Up to ``_DIRECT_SHAPES`` antennas each term is its own exp.  Beyond,
    M exps a value cost 6.3 us at M = 512, so each value starts from one
    exp at its largest end and steps by ratios (``_series``): from
    x >= M - 1, t_(M-1), t_(k-1) = t_k k / x down; below, Q = 1 - the
    sum of t_k over k >= M (at most about 1/2 there), from t_M,
    t_(k+1) = t_k x / (k + 1) up.  Either way the terms only shrink, and
    the sum ends within 2^-56 of Q (relative above, absolute below), near
    M - 1 after about 9 sqrt(M) terms and far from it after a few.  A sum
    of rounded terms can pass 1 by a few ulps, and Q cannot, so it is
    capped at 1.
    """
    x = np.minimum(x, sys.float_info.max)
    with np.errstate(divide="ignore"):  # log 0 = -inf, whose terms are 0
        log_x = np.log(x)
    if shape <= _DIRECT_SHAPES:
        q = np.exp(-x)
        term = np.empty_like(q)
        for k in range(1, shape):
            np.multiply(log_x, k, out=term)
            term -= x
            term -= math.lgamma(k + 1.0)
            q += np.exp(term, out=term)
    else:
        q = np.empty_like(x)
        above = x >= shape - 1
        top, rest = np.flatnonzero(above), np.flatnonzero(~above)
        y = x[top]
        first = np.exp((shape - 1) * log_x[top] - y - math.lgamma(shape))
        q[top] = _series(first, 1.0 / y, range(shape - 1, 0, -1), 0.0)
        y = x[rest]
        first = np.exp(shape * log_x[rest] - y - math.lgamma(shape + 1.0))
        q[rest] = 1.0 - _series(first, y, (1.0 / k for k in itertools.count(shape + 1)), 1.0)
    return np.minimum(q, 1.0, out=q)


def _pooled(moments: tuple, q: np.ndarray) -> tuple:
    """(count, mean, m2) of the values behind ``moments`` and then ``q``,
    m2 the sum of squared deviations from the mean.  Those of ``q`` are
    worked about q[0], so equal values give exactly 0, and merged by the
    pairwise update of Chan, Golub and LeVeque (1979)."""
    count, mean, m2 = moments
    d = q - q[0]
    d_mean = d.sum() / q.size
    d -= d_mean
    total = count + q.size
    delta, weight = q[0] + d_mean - mean, q.size / total
    m2 += float(np.square(d, out=d).sum()) + delta * delta * count * weight
    return total, mean + delta * weight, m2


class _Workspace:
    """The per-point buffers of one simulation, which every run reuses:
    float32 positions and interferer gains, in which the terms are worked,
    and float32 room for ``factors`` uniforms per gain (kappa for a product
    shape kappa >= 2, else 0).  Each holds ``points`` values per kind, and
    reusing them lets the runs fault almost no memory in."""

    def __init__(self, points: int, factors: int):
        self.points = points
        self.positions = np.empty(points, dtype=np.float32)
        self.gains = np.empty(points, dtype=np.float32)
        self.uniforms = np.empty(factors * points, dtype=np.float32)


def _runs(weights, budget: int):
    """Split consecutive items into runs (start, stop) of total weight at
    most ``budget``; an item heavier than that runs alone.  Items within
    the budget are one run, found without the cumulative sum, which takes
    about 14 us for 4000 items on a 2-core Xeon, 4% of a 4000-trial ad hoc
    simulation."""
    if int(weights.sum()) <= budget:
        yield 0, weights.size
        return
    ends = np.cumsum(weights)
    start = 0
    while start < ends.size:
        base = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + budget, side="right")))
        yield start, stop
        start = stop


def _counts(rng: np.random.Generator, mean_points: float, n: int,
            cellular: bool) -> np.ndarray:
    """Point counts of ``n`` consecutive trials, each empty cellular trial
    redrawn in place until it holds a point.

    Below ``_FEW_POINTS`` a trial, one Poisson(n mean_points) total is split
    among the trials by uniform labels, which gives n iid Poisson(mean_points)
    counts (Poisson colouring; Kingman, Poisson Processes, 1993) at about a
    third of the cost of NumPy's multiplication method at mean 1.3.  From
    there on each count is its own Poisson draw.
    """
    if mean_points < _FEW_POINTS:
        counts = np.bincount(rng.integers(0, n, rng.poisson(n * mean_points)), minlength=n)
    else:
        counts = rng.poisson(mean_points, n)
    if cellular:
        empty = np.flatnonzero(counts == 0)
        while empty.size:
            counts[empty] = rng.poisson(mean_points, empty.size)
            empty = empty[counts[empty] == 0]
    return counts


def _loads(bundle: ScenarioBundle, plan: _Plan, seed: int, trials: int):
    """The x = load + scale interference of ``trials`` trials, in trial
    order, one float64 array per count group of ``_COUNT_GROUP`` trials.

    Seeds the streams, draws each group's point counts (``_counts``) and
    works the group in runs (``_runs``) that weigh their trials plus their
    interferer points (a cellular trial's serving point stands in for its
    one): at most ``_BLOCK_POINTS``, unless a run holds a single trial.
    The caller runs it under ``np.errstate(over="ignore",
    divide="ignore")``: a term or load past the float range reads inf or 0
    as it should, and so does the log of a zero gain or u_min.
    """
    sc = bundle.scenario
    cellular = sc.kind == CELLULAR
    rho = plan.radius / plan.anchor  # the disc radius in anchors
    r_sq = rho * rho
    alpha_half = sc.alpha / 2.0
    fast_alpha4 = sc.alpha == 4.0
    few = plan.mean_points < _FEW_POINTS  # few points a trial: bincount sums (see _counts)
    log_scale = math.log(sc.threshold) - math.log(bundle.signal.scale)  # log(tau / theta)
    # noise and far mean enter as the load (tau / theta) (r / anchor)^alpha
    # floor, in logarithms, as the serving d^alpha passes the double range at
    # large alpha; r is the anchor for ad hoc, a cellular run adds its u_min
    floor = plan.noise + plan.far_mean
    log_load = (log_scale + math.log(floor) + (alpha_half * math.log(r_sq) if cellular else 0.0)
                if floor > 0.0 else -math.inf)
    # a positive double, so that no alpha = 4 sum of 0 or inf reads nan; any
    # positive float32 sum times the largest double gives an x where Q is 0
    scale = (min(max(sc.threshold / bundle.signal.scale, sys.float_info.min), sys.float_info.max)
             if fast_alpha4 else 1.0)

    streams = [np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(key,))))
               for key in ((0, 1, 2, 4) if cellular else (0, 1, 2))]
    count_rng, position_rng, gain_rng = streams[:3]
    nearest_rng = streams[-1]  # spawn key 4 serves cellular runs only; key 3 stays unused
    law = bundle.interferer
    factors = int(law.kappa) if law.is_gamma and law.kappa in _PRODUCT_SHAPES[1:] else 0
    ws = None
    load = np.exp(log_load)  # 0 without a floor; a cellular run works out its own
    for lo in range(0, trials, _COUNT_GROUP):
        counts = _counts(count_rng, plan.mean_points, min(_COUNT_GROUP, trials - lo), cellular)
        x = np.empty(counts.size)
        for start, stop in _runs(counts if cellular else counts + 1, _BLOCK_POINTS):
            run = counts[start:stop]
            n_run = run.size
            others = run - 1 if cellular else run
            n = int(others.sum())
            if ws is None or n > ws.points:
                # the first run sizes the workspace: to its own points if it
                # holds every trial (a 4000-trial ad hoc simulation sized to
                # the budget faulted its pages in afresh at every call and
                # took 6-8% longer), else to the budget, which every later
                # run fits but a heavier trial, which runs alone and grows it
                points = n if n_run == trials else max(n, _BLOCK_POINTS)
                ws = _Workspace(points, factors)
            u = _open_uniforms(position_rng, ws.positions[:n])  # 1 - U, in (0, 1]
            if cellular:
                # nearest of N uniform points in u = d^2 / R^2: u_min = 1 - (1 - V)^(1/N);
                # the other N - 1 are then uniform on (u_min, 1], so an interferer's
                # squared distance over the serving one is 1 + B (1 - U), B = q / u_min
                log_q = np.log1p(-nearest_rng.random(n_run)) / run
                u_min = -np.expm1(log_q)
                b_rel = (np.exp(log_q) / u_min).astype(np.float32)
                if floor > 0.0:
                    load = np.exp(log_load + alpha_half * np.log(u_min))

            interference = np.zeros(n_run)
            if n:
                g = _interferer_draw(bundle, gain_rng, ws.gains[:n], ws.uniforms)
                if cellular:
                    u *= np.repeat(b_rel, others)
                    u += np.float32(1.0)
                else:
                    u *= np.float32(r_sq)
                if fast_alpha4:
                    u *= u
                    w = np.divide(g, u, out=u)
                else:
                    # exp(log(tau / theta) + log g - (alpha / 2) log u); past float32
                    # a term reads inf, where Q is 0
                    np.log(u, out=u)
                    u *= np.float32(-alpha_half)
                    u += np.log(g, out=g)
                    u += np.float32(log_scale)
                    w = np.exp(u, out=u)
                if few:
                    # each trial's terms in point order, summed in float64
                    interference = np.bincount(np.repeat(np.arange(n_run), others), weights=w,
                                               minlength=n_run)
                else:
                    nz = others > 0
                    segments = others[nz]
                    interference[nz] = np.add.reduceat(w, np.cumsum(segments) - segments)
            x[start:stop] = load + scale * interference
        yield x


def simulate(bundle: ScenarioBundle, config: SimConfig = SimConfig()) -> CoverageEstimate:
    """Estimate coverage by simulation, for either scenario kind."""
    plan = _plan(bundle, config)
    moments = (0, 0.0, 0.0)  # count, mean and m2 of the trials' Q (see _pooled)
    with np.errstate(over="ignore", divide="ignore"):
        for x in _loads(bundle, plan, config.seed, config.trials):
            moments = _pooled(moments, _upper_gamma(bundle.signal.shape, x))
    trials, mean, m2 = moments
    return CoverageEstimate(
        value=float(mean),
        method=METHOD_MC,
        ci_halfwidth=1.96 * math.sqrt(m2 / (trials - 1) / trials),
        trials=trials,
    )
