"""Seeded inputs and op execution for the four benchmark workloads.

A workload is a *deck*: a fixed list of ops generated from the workload
seed.  The timed loop runs the deck in whole passes, one op at a time, so
every pass does the same work and a run's throughput does not depend on
where a deadline happened to cut a pass.

Cost-driving parameters (antenna count M, threshold tau, interference
level mu) come from a fixed lattice of cells; the seed draws the position
inside each cell and every other parameter.  Every seed therefore has the
same cost skeleton, which keeps the spread between seeds small, while the
values the library sees still differ from seed to seed.  Positions inside
the cells are stratified (or antithetic, for the few heaviest ops), so
the few ops that decide a deck's total time cost about the same on every
seed.

This module imports only numpy and mimocov, so that timing the set-up
(import, input generation, bundle validation) measures the library and not
the benchmark's own oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from mimocov import analytic, insights, model, montecarlo

WORKLOADS = ("cellular-sweep", "adhoc-antennas", "mc-validate", "cli-cold")

# Cellular cells whose nominal work M * (1 + tau) exceeds this are left out:
# one such op costs more than ~0.2 s at the seed commit, and a few of them
# would dominate a 10 s run (M = 512 at 30 dB takes about 10 s).
CELLULAR_WORK_CEILING = 1.0e4
DENSITY_GRID_POINTS = 16
ALPHAS = (2.6, 3.45, 4.3, 5.15, 5.9)
KAPPAS = (0.54, 1.0, 2.0, 3.7)


@dataclass
class Op:
    """One call into the library, with everything needed to check it."""

    kind: str                      # coverage, improvement, decay_rate, density, peak_bound, simulate, cli
    bundle: object = None          # validated ScenarioBundle
    inputs: dict = field(default_factory=dict)   # plain numbers, for the failure ledger
    args: dict = field(default_factory=dict)     # call arguments beyond the bundle


def half_octave_m(j: int, u: float) -> int:
    """Antenna count in the j-th half-octave cell of [1, 512]."""
    return min(512, max(1, int(round(2.0 ** ((j + u) / 2.0)))))


def _stratified(rng, n: int):
    """n positions in [0, 1), one in each of n equal strata, in random
    order.  A row of cells then holds the same spread of positions on
    every seed, so its total cost barely moves from seed to seed.  Plain
    floats: numpy scalars would slow the library's scalar arithmetic."""
    return ((rng.permutation(n) + rng.random(n)) / n).tolist()


def _antithetic(rng, n: int):
    """n positions in [0, 1) in pairs u, 1 - u, in random order.  For a
    handful of ops whose cost is steep in the position, a pair's total
    cost barely depends on u."""
    u = rng.random((n + 1) // 2)
    return rng.permutation(np.concatenate([u, 1.0 - u])[:n]).tolist()


def _log_uniform(rng, lo, hi):
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


def _bundle(kind, *, lam, alpha, tau, m, theta=1.0, kappa=1.0, beta=1.0, r0=None, noise=0.0):
    scenario = model.NetworkScenario(kind=kind, lam=lam, alpha=alpha, threshold=tau,
                                     r0=r0, noise=noise)
    return model.validate(scenario, model.SignalGainSpec(shape=m, scale=theta),
                          model.InterfererGainSpec(kappa=kappa, beta=beta))


def _describe(bundle) -> dict:
    sc = bundle.scenario
    law = bundle.interferer
    return {"kind": sc.kind, "M": bundle.signal.shape, "tau_db": 10.0 * math.log10(sc.threshold),
            "alpha": sc.alpha, "lambda": sc.lam, "r0": sc.r0, "noise": sc.noise,
            "theta": bundle.signal.scale, "kappa": law.kappa, "beta": law.beta}


# ---------------------------------------------------------------------------
# cellular-sweep

def cellular_deck(seed: int, smoke: bool = False) -> list:
    rng = np.random.default_rng([seed, 1])
    m_cells = range(0, 18, 6) if smoke else range(18)
    tau_cells = range(0, 16, 5) if smoke else range(16)
    # positions inside the cells: M stratified along each row; tau takes
    # the antithetic position 1 - u, so a cell's cost, which rises with
    # both, barely depends on where its op sits
    m_at = {j: _stratified(rng, len(tau_cells)) for j in m_cells}
    deck = []
    for j in m_cells:
        for b, k in enumerate(tau_cells):
            m_centre = 2.0 ** ((j + 0.5) / 2.0)
            tau_centre = 10.0 ** ((-10.0 + 2.5 * (k + 0.5)) / 10.0)
            if m_centre * (1.0 + tau_centre) > CELLULAR_WORK_CEILING:
                continue
            u = m_at[j][b]
            m = half_octave_m(j, u)
            tau_db = -10.0 + 2.5 * (k + 1.0 - u)
            # alpha and kappa change an op's cost up to threefold, so they
            # sit on lattices too, spread evenly over rows and columns
            params = dict(alpha=ALPHAS[(j + 2 * k) % len(ALPHAS)] + rng.uniform(-0.1, 0.1),
                          kappa=KAPPAS[(2 * j + k) % len(KAPPAS)] * _log_uniform(rng, 0.93, 1.07),
                          beta=_log_uniform(rng, 0.9, 1.1), theta=_log_uniform(rng, 0.9, 1.1),
                          lam=_log_uniform(rng, 1e-4, 1e-1))
            if j == 0:
                # the single-antenna row uses the closed-form parameters
                params.update(alpha=4.0, kappa=1.0, beta=1.0, theta=1.0)
            bundle = _bundle(model.CELLULAR, tau=10.0 ** (tau_db / 10.0), m=m, **params)
            deck.append(Op("coverage", bundle, _describe(bundle)))
            if (j + k) % 8 == 0:
                deck.append(Op("decay_rate", bundle, _describe(bundle)))
                deck.append(Op("improvement", bundle, _describe(bundle), {"order": m}))
    # a fixed minority of points at 40 dB, where the entry series hits its cap
    for j in (range(0, 18, 9) if smoke else range(0, 18, 4)):
        m = half_octave_m(j, rng.random())
        bundle = _bundle(model.CELLULAR, tau=1e4, m=m, alpha=rng.uniform(2.5, 6.0),
                         kappa=_log_uniform(rng, 0.5, 4.0), beta=_log_uniform(rng, 0.9, 1.1),
                         theta=_log_uniform(rng, 0.9, 1.1), lam=1e-3)
        deck.append(Op("coverage", bundle, _describe(bundle)))
    return _shuffled(deck, rng)


# ---------------------------------------------------------------------------
# adhoc-antennas

def adhoc_mu_target(k: int, u: float) -> float:
    """mu in the k-th of eight log cells spanning 0.1 to 20."""
    lo, hi = math.log10(0.1), math.log10(20.0)
    return 10.0 ** (lo + (hi - lo) * (k + u) / 8.0)


def _lambda_for_mu(mu, *, alpha, tau, theta, kappa, beta, r0):
    delta = 2.0 / alpha
    moment = beta**delta * math.exp(math.lgamma(delta + kappa) - math.lgamma(kappa))
    return mu / (math.pi * r0**2 * math.gamma(1.0 - delta) * (tau / theta) ** delta * moment)


def adhoc_deck(seed: int, smoke: bool = False) -> list:
    rng = np.random.default_rng([seed, 2])
    m_cells = range(0, 18, 6) if smoke else range(18)
    mu_cells = range(0, 8, 3) if smoke else range(8)
    deck = []
    for j in m_cells:
        # M stratified along the row; the cells that also run the density
        # profile, whose cost grows fastest with M, take antithetic pairs
        profiled = [k for k in mu_cells if (j + k) % 4 == 0]
        m_profiled = iter(_antithetic(rng, len(profiled)))
        m_rest = iter(_stratified(rng, 2 * len(mu_cells) - len(profiled)))
        for k in mu_cells:
            for noisy in (False, True):
                m = half_octave_m(j, next(m_profiled if not noisy and k in profiled else m_rest))
                params = dict(alpha=rng.uniform(2.5, 6.0), kappa=_log_uniform(rng, 0.5, 4.0),
                              beta=_log_uniform(rng, 0.9, 1.1), theta=_log_uniform(rng, 0.9, 1.1),
                              r0=_log_uniform(rng, 0.5, 2.0),
                              tau=10.0 ** (rng.uniform(-5.0, 10.0) / 10.0))
                lam = _lambda_for_mu(adhoc_mu_target(k, rng.random()), **params)
                noise = 0.0
                if noisy:
                    s_noise = _log_uniform(rng, 0.01, 1.0)  # tau r0^alpha sigma^2 / theta
                    noise = s_noise * params["theta"] / (params["tau"] * params["r0"] ** params["alpha"])
                bundle = _bundle(model.ADHOC, lam=lam, m=m, noise=noise, **params)
                deck.append(Op("coverage", bundle, _describe(bundle)))
                if not noisy and k in profiled:
                    grid = list(np.geomspace(lam / 4.0, lam * 4.0, DENSITY_GRID_POINTS))
                    deck.append(Op("improvement", bundle, _describe(bundle), {"order": m}))
                    deck.append(Op("density", bundle, _describe(bundle), {"grid": grid}))
                    deck.append(Op("peak_bound", bundle, _describe(bundle)))
    return _shuffled(deck, rng)


# ---------------------------------------------------------------------------
# mc-validate

MC_LAMBDA = 1e-3
MC_ANCHOR = math.sqrt(math.log(2.0) / (math.pi * MC_LAMBDA))  # median serving distance

# name -> (bundle parameters, trials per simulate call, explicit window or None)
MC_SCENARIOS = {
    "cellular_a4_window": (dict(kind=model.CELLULAR, lam=MC_LAMBDA, alpha=4.0, kappa=1.0),
                           10_000, 30.0 * MC_ANCHOR),
    "adhoc_a4": (dict(kind=model.ADHOC, lam=0.05, alpha=4.0, r0=1.0), 4_000, None),
    "adhoc_a4_noise": (dict(kind=model.ADHOC, lam=0.05, alpha=4.0, r0=1.0, noise=0.1), 4_000, None),
    "cellular_a35_k2": (dict(kind=model.CELLULAR, lam=MC_LAMBDA, alpha=3.5, kappa=2.0), 100, None),
}


def mc_deck(seed: int, smoke: bool = False) -> list:
    rng = np.random.default_rng([seed, 3])
    deck = []
    for rep in range(1 if smoke else 2):
        for name, (params, trials, window) in MC_SCENARIOS.items():
            params = dict(params)
            kind = params.pop("kind")
            m = int(rng.integers(1, 5))
            tau = 10.0 ** (rng.uniform(-5.0, 5.0) / 10.0)
            bundle = _bundle(kind, tau=tau, m=m, **params)
            sim_seed = seed * 64 + len(deck)
            config = montecarlo.SimConfig(trials=trials, seed=sim_seed, window_radius=window)
            inputs = dict(_describe(bundle), scenario=name, trials=config.trials,
                          seed=sim_seed, window=window)
            deck.append(Op("simulate", bundle, inputs, {"config": config, "scenario": name}))
    return _shuffled(deck, rng)


def mc_points(op: Op) -> float:
    """Expected points per simulate call: trials * lambda * pi * R^2."""
    config = op.args["config"]
    radius = config.window_radius
    if radius is None:
        radius = montecarlo.auto_window(op.bundle)
    return config.trials * op.bundle.scenario.lam * math.pi * radius * radius


# ---------------------------------------------------------------------------
# cli-cold

def _fmt(x: float) -> str:
    return format(x, ".6g")


def _flags(params: dict) -> list:
    out = []
    for key, value in params.items():
        out += ["--" + key.replace("_", "-"), str(value)]
    return out


def cli_deck(seed: int, smoke: bool = False) -> list:
    """Four commands; each op is one `python -m mimocov` process."""
    rng = np.random.default_rng([seed, 4])
    alpha = _fmt(rng.uniform(3.0, 5.0))
    # kappa >= 1 keeps the decay rate defined for every alpha > 2
    kappa = _fmt(rng.uniform(1.0, 4.0))
    point = {"kind": "cellular", "alpha": alpha, "kappa": kappa,
             "m": int(rng.integers(1, 17)), "tau_db": _fmt(rng.uniform(-5.0, 15.0))}
    swept = {"kind": "cellular", "alpha": alpha, "m": int(rng.integers(1, 9))}
    rated = {"kind": "cellular", "alpha": alpha, "kappa": kappa,
             "tau_db": _fmt(rng.uniform(-5.0, 10.0))}
    simulated = {"kind": "adhoc", "alpha": "4", "r0": "1", "lambda": "0.05",
                 "m": int(rng.integers(1, 5)), "tau_db": _fmt(rng.uniform(-5.0, 5.0))}
    ratios = int(rng.integers(20, 41))
    sim_seed = seed % 10_000
    commands = [
        ("coverage", point, []),
        ("sweep", swept, ["--axis", "tau_db", "--start", "-10", "--stop", "20", "--points", "31"]),
        ("insights", rated, ["--rc", "--ratios", str(ratios)]),
        ("coverage", simulated, ["--method", "mc", "--trials", "2000", "--seed", str(sim_seed)]),
    ]
    ops = []
    for command, params, extra in commands:
        argv = [command] + _flags(params) + extra
        bundle = model.bundle_from_params(params)
        args = {"argv": argv, "params": params, "command": command}
        if command == "insights":
            args["ratios"] = ratios
        if "--method" in extra:
            args["mc"] = montecarlo.SimConfig(trials=2000, seed=sim_seed)
        ops.append(Op("cli", bundle, {"argv": " ".join(argv)}, args))
    return ops


DECKS = {
    "cellular-sweep": cellular_deck,
    "adhoc-antennas": adhoc_deck,
    "mc-validate": mc_deck,
    "cli-cold": cli_deck,
}


def build_deck(workload: str, seed: int, smoke: bool = False) -> list:
    return DECKS[workload](seed, smoke)


def _shuffled(deck, rng):
    order = rng.permutation(len(deck))
    return [deck[i] for i in order]


# ---------------------------------------------------------------------------
# execution (the timed part of an op)

def execute(op: Op):
    """Run one op and return its raw output; exceptions propagate."""
    b = op.bundle
    if op.kind == "coverage":
        return analytic.coverage(b).value
    if op.kind == "improvement":
        return insights.improvement_sequence(b, op.args["order"]).values
    if op.kind == "decay_rate":
        return insights.cellular_decay_rate(b)
    if op.kind == "density":
        profile = insights.density_profile(b)
        grid = op.args["grid"]
        return (profile.head, profile.betas,
                [profile.coverage_at(g) for g in grid],
                [profile.derivative_at(g) for g in grid])
    if op.kind == "peak_bound":
        pk = insights.adhoc_peak_bound(b)
        return (pk.mu, pk.index_bound, pk.monotone)
    if op.kind == "simulate":
        est = montecarlo.simulate(b, op.args["config"])
        return (est.value, est.ci_halfwidth, est.trials)
    raise ValueError(f"op kind {op.kind!r} is not executed in process")
