"""Monte Carlo reference simulator for both scenario kinds.

The simulator is deliberately naive about geometry: it scatters a Poisson
number of points uniformly in a disc around the receiver and, for cellular
scenarios, serves the nearest one, so the serving-distance law is produced
by the construction rather than assumed.  Everything the analytic engine
predicts (including the distance distribution itself) is therefore probed
by an independent mechanism.

The simulated disc has radius R.  By default (``SimConfig.window_radius``
None, Gamma interferer law) it is a near disc: the points inside R are
simulated exactly, and the field beyond R is replaced by its mean,
E[I_far] = 2 pi lam E[g] R^(2 - alpha) / (alpha - 2) (Campbell's theorem,
taken in anchor units as below), added to every trial's interference.
Only a second-order bias, of the order of
Var I_far = pi lam E[g^2] R^(2 - 2 alpha) / (alpha - 1), is left, so a
disc of 200 to 1500 points per trial at alpha >= 2.5 does what plain
truncation needs 7e3 to 7e15 points for (see ``auto_window``).  An
explicit ``window_radius``, or a general law whose E[g] is unknown, gets
plain truncation: points outside R are dropped, and nothing is added for
them.

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
needed.  Points are generated in float32 and aggregated per trial with
segmented ufunc reductions; statistics are accumulated in float64.

One simulation draws from four SFC64 streams spawned once from
``SeedSequence(seed)``: Poisson counts (with the redraws of empty cellular
trials), positions, interferer gains and signal gains.  The trials are
split into a fixed 100 batches, which only partition them for the
batch-means confidence interval.  Batch by batch, the counts, the
nearest-point uniforms and the signal gains are drawn up front, then the
points chunk by chunk, each kind from its own stream in trial order, so
splitting a batch into chunks cannot change any draw.  So an estimate is
reproducible bit for bit from its seed, whatever the chunk size.  The
simulation runs in the calling thread, on one core, so its run time does
not hinge on whether other cores are free.

A cellular trial needs at least one point to serve from; one with none is
redrawn.  A window whose empty share, P(N = 0) = exp(-lam pi R^2), exceeds
1% is refused before anything is drawn, so the redraws stay rare and end
within a few rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, NumericalError, ValidationError
from .model import CELLULAR, METHOD_MC, CoverageEstimate, ScenarioBundle, _integer

_POINTS_PER_CHUNK = 8_000_000
_BATCHES = 100  # partition of the trials for the batch-means interval
_EMPTY_BUDGET = 0.01  # share of cellular trials allowed to come up empty
_MIN_POINTS = 200.0  # expected points per realization, at least
_NEAR_VARIANCE = 1e-5  # (R / anchor)^(2 - 2 alpha) left by the far-field mean
_TRUNCATION_SHARE = 1e-4  # (R / anchor)^(2 - alpha) dropped by plain truncation


@dataclass(frozen=True)
class SimConfig:
    """Knobs of one simulation run.

    ``window_radius`` is the radius of the simulated disc.  Leave it None to
    size the disc from the scenario (see ``auto_window``); with a Gamma
    interferer law the far field beyond it then enters as its mean.  An
    explicit radius means plain truncation: interferers beyond it are
    dropped and no far-field mean is added.  A cellular window must hold
    a point in at least 99% of the realizations, or ``simulate`` refuses it.
    The confidence interval comes from batch means over 100 batches, so
    ``trials`` is at least 100, and at most 100 times the points simulated
    at once, so that no per-trial array of a batch outgrows one chunk.
    ``trials`` and ``seed`` are Python or numpy integers, not bools.
    """

    trials: int = 100_000
    seed: int = 0
    window_radius: Optional[float] = None

    def __post_init__(self):
        trials, seed = _integer(self.trials), _integer(self.seed)
        if trials is None or trials < _BATCHES:
            raise ValidationError(f"trials must be an integer of at least {_BATCHES}")
        if trials > _BATCHES * _POINTS_PER_CHUNK:
            raise ConfigurationError(
                f"trials must be at most {_BATCHES * _POINTS_PER_CHUNK}, so that one "
                f"batch's per-trial arrays stay within {_POINTS_PER_CHUNK} entries"
            )
        if seed is None or not (0 <= seed < 2**64):
            raise ValidationError("seed must be an integer in [0, 2^64)")
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "seed", seed)
        if self.window_radius is not None and not (
            self.window_radius > 0.0 and math.isfinite(self.window_radius)
        ):
            raise ValidationError("window_radius must be positive")


def _anchor(bundle: ScenarioBundle) -> float:
    """The scale of the link: r0 for ad hoc, the median serving distance
    sqrt(ln 2 / (pi lam)) for cellular."""
    sc = bundle.scenario
    if sc.kind == CELLULAR:
        return math.sqrt(math.log(2.0) / (math.pi * sc.lam))
    return sc.r0


def auto_window(bundle: ScenarioBundle) -> float:
    """Radius of the disc ``simulate`` scatters points in by default.

    Distances are measured in the anchor, the scale of the link: r0 for ad
    hoc, the median serving distance for cellular.  With a Gamma interferer
    law the far field beyond R enters as its mean, which leaves a bias of
    the order of its variance, relative size (R / anchor)^(2 - 2 alpha);
    R makes that 1e-5.  A general law has no known E[g], so the far field
    is dropped, a share (R / anchor)^(2 - alpha) of the interference; R
    makes that about 1e-4.  Either way R grows as alpha falls, and is
    floored so a realization holds at least ~200 points on average.  Where
    R overflows (a general law at alpha just above 2) it is infinite, and
    ``simulate`` refuses the point count.
    """
    sc = bundle.scenario
    anchor = _anchor(bundle)
    if bundle.interferer.is_gamma:
        bias_radius = anchor * (1.0 / _NEAR_VARIANCE) ** (1.0 / (2.0 * sc.alpha - 2.0))
    else:
        try:
            bias_radius = anchor * (1.0 + 1.0 / _TRUNCATION_SHARE) ** (1.0 / (sc.alpha - 2.0))
        except OverflowError:
            bias_radius = math.inf
    count_radius = math.sqrt(_MIN_POINTS / (math.pi * sc.lam))
    return max(bias_radius, count_radius)


def _far_field_mean(bundle: ScenarioBundle, radius: float, anchor: float = 1.0) -> float:
    """Mean interference from a Gamma-law field beyond ``radius``, with
    distances measured in ``anchor``.

    Campbell's theorem: 2 pi lam' E[g] rho^(2 - alpha) / (alpha - 2), with
    rho = radius / anchor, lam' = lam anchor^2 the density per squared
    anchor, and E[g] = kappa beta.
    """
    sc = bundle.scenario
    law = bundle.interferer
    return (2.0 * math.pi * (sc.lam * anchor * anchor) * law.kappa * law.beta
            * (radius / anchor) ** (2.0 - sc.alpha) / (sc.alpha - 2.0))


def _interferer_draw(bundle: ScenarioBundle, rng: np.random.Generator, size: int) -> np.ndarray:
    law = bundle.interferer
    if law.is_gamma:
        if law.kappa == 1.0:
            g = rng.standard_exponential(size, dtype=np.float32)
        else:
            g = rng.standard_gamma(law.kappa, size, dtype=np.float32)
        if law.beta != 1.0:
            g *= np.float32(law.beta)
        return g
    if law.sampler is None:
        raise ConfigurationError(
            "Monte Carlo with a general interferer law needs a sampler(rng, size)"
        )
    return np.asarray(law.sampler(rng, size), dtype=np.float32)


def _segment_starts(counts: np.ndarray) -> np.ndarray:
    starts = np.zeros(counts.size, dtype=np.intp)
    np.cumsum(counts[:-1], out=starts[1:])
    return starts


def simulate(bundle: ScenarioBundle, config: SimConfig = SimConfig()) -> CoverageEstimate:
    """Estimate coverage by simulation, for either scenario kind."""
    sc = bundle.scenario
    anchor = _anchor(bundle)
    if config.window_radius is not None:
        radius, far_mean = config.window_radius, 0.0
    else:
        radius = auto_window(bundle)
        far_mean = _far_field_mean(bundle, radius, anchor) if bundle.interferer.is_gamma else 0.0
    noise = 0.0  # sigma^2 anchor^alpha: the noise in anchor units
    if sc.noise > 0.0:
        try:
            noise = sc.noise * anchor**sc.alpha
        except OverflowError:
            raise NumericalError("the noise in anchor units, noise anchor^alpha, overflows") from None
    mean_points = sc.lam * math.pi * radius * radius
    if mean_points > _POINTS_PER_CHUNK:
        raise ConfigurationError(
            f"one realization needs {mean_points:.3g} points on average in a disc of "
            f"radius {radius:.6g}, more than the {_POINTS_PER_CHUNK} points simulated "
            "at once; choose a smaller window_radius"
        )
    cellular = sc.kind == CELLULAR
    empty_share = math.exp(-mean_points)
    if cellular and empty_share > _EMPTY_BUDGET:
        raise ConfigurationError(
            f"a disc of radius {radius:.6g} holds no point in {empty_share:.3g} of the "
            f"realizations, more than the {_EMPTY_BUDGET:.0%} budget; enlarge window_radius"
        )
    rho = radius / anchor  # the disc radius in anchors
    r_sq = rho * rho
    alpha_half = sc.alpha / 2.0
    fast_alpha4 = sc.alpha == 4.0
    tau = sc.threshold
    # the far mean joins at the comparison: the segment reduction below
    # assigns into the interference array rather than adding to it
    floor = noise + far_mean
    theta = bundle.signal.scale
    m_ant = bundle.signal.shape

    count_rng, position_rng, gain_rng, signal_rng = (
        np.random.Generator(np.random.SFC64(child))
        for child in np.random.SeedSequence(config.seed).spawn(4)
    )
    sizes = np.full(_BATCHES, config.trials // _BATCHES)
    sizes[: config.trials % _BATCHES] += 1
    covered = np.empty(_BATCHES, dtype=np.int64)
    for b, n_batch in enumerate(sizes.tolist()):
        counts = count_rng.poisson(mean_points, n_batch)
        if cellular:
            empty = np.flatnonzero(counts == 0)
            while empty.size:
                counts[empty] = count_rng.poisson(mean_points, empty.size)
                empty = empty[counts[empty] == 0]
            # nearest of N uniform points in u = d^2 / R^2: u_min = 1 - (1 - V)^(1/N);
            # the other N - 1 are then uniform on (u_min, 1]
            log_q = np.log1p(-position_rng.random(n_batch)) / counts
            q = np.exp(log_q).astype(np.float32)  # 1 - u_min
            t_serv = -np.expm1(log_q) * r_sq
            serve_alpha = t_serv * t_serv if fast_alpha4 else t_serv**alpha_half
            others = counts - 1
        else:
            serve_alpha = 1.0  # the serving distance is the anchor
            others = counts
        gain = signal_rng.gamma(m_ant, theta, n_batch)

        interference = np.zeros(n_batch, dtype=np.float64)
        ends = np.cumsum(others)
        lo = 0
        while lo < n_batch:
            first = int(ends[lo - 1]) if lo else 0
            hi = max(lo + 1, int(np.searchsorted(ends, first + _POINTS_PER_CHUNK, side="right")))
            seg = others[lo:hi]
            u = position_rng.random(int(ends[hi - 1]) - first, dtype=np.float32)
            if u.size:
                if cellular:
                    u *= np.repeat(q[lo:hi], seg)
                np.subtract(np.float32(1.0), u, out=u)
                u *= np.float32(r_sq)
                if fast_alpha4:
                    u *= u
                else:
                    np.power(u, np.float32(alpha_half), out=u)
                w = np.divide(_interferer_draw(bundle, gain_rng, u.size), u, out=u)
                nz = seg > 0
                interference[lo:hi][nz] = np.add.reduceat(w, _segment_starts(seg[nz]))
            lo = hi

        covered[b] = np.count_nonzero(gain > tau * serve_alpha * (floor + interference))

    batch_means = covered / sizes
    halfwidth = 1.96 * float(np.std(batch_means, ddof=1)) / math.sqrt(_BATCHES)
    return CoverageEstimate(
        value=int(covered.sum()) / config.trials,
        method=METHOD_MC,
        ci_halfwidth=halfwidth,
        trials=config.trials,
    )
