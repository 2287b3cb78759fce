"""Monte Carlo reference simulator for both scenario kinds.

The simulator is deliberately naive about geometry: it scatters a Poisson
number of points uniformly in a disc around the receiver and, for cellular
scenarios, serves the nearest one, so the serving-distance law is produced
by the construction rather than assumed.  Everything the analytic engine
predicts (including the distance distribution itself) is therefore probed
by an independent mechanism.

Points are generated in float32 and aggregated per trial with segmented
ufunc reductions, which keeps million-trial runs in seconds; statistics
are accumulated in float64.  Each batch draws from its own jump of a
counter-based generator keyed by the seed, so results are reproducible
bit for bit regardless of chunk sizing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, ValidationError
from .model import CELLULAR, METHOD_MC, CoverageEstimate, ScenarioBundle

_POINTS_PER_CHUNK = 8_000_000
_MAX_REDRAW_ROUNDS = 200
_REDRAW_BUDGET = 0.01  # fraction of trials allowed to come up empty


@dataclass(frozen=True)
class SimConfig:
    """Knobs of one simulation run.

    ``window_radius`` is the radius of the simulated disc; leave it None to
    size the disc automatically from the scenario (see ``auto_window``).
    ``batches`` controls the batch-means confidence interval.
    """

    trials: int = 100_000
    seed: int = 0
    window_radius: Optional[float] = None
    batches: int = 100

    def __post_init__(self):
        if not isinstance(self.trials, int) or self.trials < 100:
            raise ValidationError("trials must be an integer of at least 100")
        if not isinstance(self.batches, int) or self.batches < 2:
            raise ValidationError("batches must be an integer of at least 2")
        if self.trials < self.batches:
            raise ValidationError("trials must be at least the number of batches")
        if not isinstance(self.seed, int) or not (0 <= self.seed < 2**64):
            raise ValidationError("seed must be an integer in [0, 2^64)")
        if self.window_radius is not None and not (
            self.window_radius > 0.0 and math.isfinite(self.window_radius)
        ):
            raise ValidationError("window_radius must be positive")


def auto_window(bundle: ScenarioBundle) -> float:
    """Disc radius that keeps truncation bias out of the statistical noise.

    The far field beyond radius R contributes a vanishing share of the
    interference at the receiver; requiring that share to be 1e-4 of the
    near-field reference (taken at the typical serving scale) gives the
    first factor.  The second keeps at least ~200 points per realization
    so segment statistics stay meaningful at low densities.
    """
    sc = bundle.scenario
    if sc.kind == CELLULAR:
        anchor = math.sqrt(math.log(2.0) / (math.pi * sc.lam))  # median serving distance
    else:
        anchor = sc.r0
    bias_radius = anchor * (1.0 + 1e4) ** (1.0 / (sc.alpha - 2.0))
    count_radius = math.sqrt(200.0 / (math.pi * sc.lam))
    return max(bias_radius, count_radius)


def _interferer_draw(bundle: ScenarioBundle, rng: np.random.Generator, size: int) -> np.ndarray:
    law = bundle.interferer
    if law.is_gamma:
        if law.kappa == 1.0:
            g = rng.standard_exponential(size, dtype=np.float32)
            if law.beta != 1.0:
                g *= np.float32(law.beta)
            return g
        return rng.gamma(law.kappa, law.beta, size).astype(np.float32)
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
    radius = config.window_radius if config.window_radius is not None else auto_window(bundle)
    mean_points = sc.lam * math.pi * radius * radius
    r_sq = radius * radius
    alpha_half = sc.alpha / 2.0
    fast_alpha4 = sc.alpha == 4.0
    cellular = sc.kind == CELLULAR
    tau = sc.threshold
    theta = bundle.signal.scale
    m_ant = bundle.signal.shape

    chunk_trials = max(1, int(_POINTS_PER_CHUNK / max(mean_points, 1.0)))
    base, extra = divmod(config.trials, config.batches)

    batch_means = np.empty(config.batches, dtype=np.float64)
    total_covered = 0
    redraws = 0

    for b in range(config.batches):
        rng = np.random.Generator(np.random.Philox(key=config.seed).jumped(b))
        n_batch = base + (1 if b < extra else 0)
        covered_batch = 0
        done = 0
        while done < n_batch:
            ct = min(chunk_trials, n_batch - done)
            counts = rng.poisson(mean_points, ct)
            if cellular:
                empty = counts == 0
                rounds = 0
                while np.any(empty):
                    n_empty = int(empty.sum())
                    redraws += n_empty
                    counts[empty] = rng.poisson(mean_points, n_empty)
                    empty = counts == 0
                    rounds += 1
                    if rounds >= _MAX_REDRAW_ROUNDS:
                        raise ConfigurationError(
                            "the window is far too small: realizations stay empty "
                            f"after {rounds} redraw rounds; enlarge window_radius"
                        )

            p_total = int(counts.sum())
            if p_total > 0:
                u = np.float32(1.0) - rng.random(p_total, dtype=np.float32)
                g = _interferer_draw(bundle, rng, p_total)
                if fast_alpha4:
                    d_alpha = u * np.float32(r_sq)
                    d_alpha *= d_alpha
                else:
                    d_alpha = (u * np.float32(r_sq)) ** np.float32(alpha_half)
                w = g / d_alpha

            if cellular:
                starts = _segment_starts(counts)
                interference = np.add.reduceat(w, starts).astype(np.float64)
                u_min = np.minimum.reduceat(u, starts)
                hits = np.flatnonzero(u == np.repeat(u_min, counts))
                trial_of_hit = np.repeat(np.arange(ct, dtype=np.intp), counts)[hits]
                _, first = np.unique(trial_of_hit, return_index=True)
                serving = hits[first]
                interference -= w[serving].astype(np.float64)
                np.maximum(interference, 0.0, out=interference)
                t_serv = u_min.astype(np.float64) * r_sq
                serve_alpha = t_serv * t_serv if fast_alpha4 else t_serv**alpha_half
            else:
                interference = np.zeros(ct, dtype=np.float64)
                if p_total > 0:
                    nz = counts > 0
                    starts = _segment_starts(counts[nz])
                    interference[nz] = np.add.reduceat(w, starts).astype(np.float64)
                serve_alpha = sc.r0**sc.alpha

            gain = rng.gamma(m_ant, theta, ct)
            covered_batch += int(np.count_nonzero(gain > tau * serve_alpha * (sc.noise + interference)))
            done += ct

        batch_means[b] = covered_batch / n_batch
        total_covered += covered_batch

    if redraws > _REDRAW_BUDGET * config.trials:
        raise ConfigurationError(
            f"{redraws} of {config.trials} realizations came up empty and were redrawn "
            f"(budget {_REDRAW_BUDGET:.0%}); enlarge window_radius"
        )

    halfwidth = 1.96 * float(np.std(batch_means, ddof=1)) / math.sqrt(config.batches)
    return CoverageEstimate(
        value=total_covered / config.trials,
        method=METHOD_MC,
        ci_halfwidth=halfwidth,
        trials=config.trials,
    )
