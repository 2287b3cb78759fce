"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
captured output) and enforces both the numerical gate and a wall-clock
budget, so this module doubles as a release checklist.
"""

import math
import time

import numpy as np
import pytest

from mimocov import (
    ADHOC,
    CELLULAR,
    GeneralSignalPdf,
    InterfererGainSpec,
    NetworkScenario,
    SignalGainSpec,
    adhoc_peak_bound,
    cellular_decay_rate,
    coverage,
    coverage_general_pdf,
    density_profile,
    improvement_sequence,
    outage_decay_check,
    validate,
)
from mimocov.montecarlo import SimConfig, simulate
from closed_form_oracle import adhoc_pbar_bessel, adhoc_pbar_closed_form
from toeplitz_oracle import toeplitz_coverage

_ANCHOR = math.sqrt(math.log(2.0) / (math.pi * 1e-3))  # median cellular serving distance


def _cellular(m=1, tau=1.0, alpha=4.0, lam=1e-3, theta=1.0, kappa=1.0, beta=1.0):
    scenario = NetworkScenario(kind=CELLULAR, lam=lam, alpha=alpha, threshold=tau)
    return validate(scenario, SignalGainSpec(shape=m, scale=theta),
                    InterfererGainSpec(kappa=kappa, beta=beta))


def _adhoc(m=1, tau=1.0, alpha=4.0, lam=0.05, r0=1.0, theta=1.0, kappa=1.0,
           beta=1.0, noise=0.0):
    scenario = NetworkScenario(kind=ADHOC, lam=lam, alpha=alpha, threshold=tau,
                               r0=r0, noise=noise)
    return validate(scenario, SignalGainSpec(shape=m, scale=theta),
                    InterfererGainSpec(kappa=kappa, beta=beta))


def _report(tag, problems, detail, elapsed, budget):
    ok = not problems and elapsed < budget
    print(f"acceptance {tag}: {'PASS' if ok else 'FAIL'} "
          f"({detail}; {elapsed:.2f}s of {budget:.0f}s)")
    assert not problems, f"{tag}: " + "; ".join(problems)
    assert elapsed < budget, f"{tag}: took {elapsed:.2f}s, budget {budget:.0f}s"


def test_01_single_antenna_closed_form_and_simulation():
    start = time.perf_counter()
    problems = []
    exact = 1.0 / (1.0 + math.pi / 4.0)
    for route, got in (("finite-sum", coverage(_cellular()).value),
                       ("toeplitz", toeplitz_coverage(_cellular()))):
        if abs(got - exact) > 1e-10:
            problems.append(f"{route} route off by {abs(got - exact):.2e}")
    est = simulate(_cellular(), SimConfig(trials=1_000_000, seed=2024,
                                          window_radius=40.0 * _ANCHOR))
    z = (est.value - exact) / (est.ci_halfwidth / 1.96)
    if abs(z) > 3.0:
        problems.append(f"simulation z = {z:+.2f}")
    _report("01 single-antenna closed form", problems,
            f"p_c = {exact:.6f}, simulation z = {z:+.2f} at 1e6 trials",
            time.perf_counter() - start, 30.0)


def test_02_evaluation_routes_agree():
    start = time.perf_counter()
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 17))
        tau = 10.0 ** rng.uniform(-1.0, 1.0)
        alpha = rng.uniform(2.3, 6.0)
        kappa = rng.uniform(0.4, 4.0)
        beta = 10.0 ** rng.uniform(-0.5, 0.5)
        theta = 10.0 ** rng.uniform(-0.5, 0.5)
        if rng.random() < 0.5:
            bundle = _cellular(m=m, tau=tau, alpha=alpha,
                               lam=10.0 ** rng.uniform(-4.0, 0.0),
                               theta=theta, kappa=kappa, beta=beta)
        else:
            bundle = _adhoc(m=m, tau=tau, alpha=alpha,
                            lam=10.0 ** rng.uniform(-3.0, -0.3),
                            r0=rng.uniform(0.3, 2.0), theta=theta,
                            kappa=kappa, beta=beta,
                            noise=0.0 if rng.random() < 0.7 else 0.1)
        a = coverage(bundle).value
        b = toeplitz_coverage(bundle)
        worst = max(worst, abs(a - b) / a)
    problems = [] if worst <= 1e-12 else [f"worst relative gap {worst:.2e}"]
    _report("02 route equivalence", problems,
            f"200 random bundles, worst relative gap {worst:.2e}",
            time.perf_counter() - start, 5.0)


def test_03_cellular_density_invariance():
    start = time.perf_counter()
    problems = []
    for m, tau in [(1, 1.0), (3, 0.5), (8, 4.0)]:
        values = {coverage(_cellular(m=m, tau=tau, lam=lam)).value
                  for lam in (1e-6, 1e-2, 1.0)}
        if len(values) != 1:
            problems.append(f"M={m} tau={tau} gave {len(values)} distinct values")
    _report("03 density invariance", problems,
            "bit-identical coverage across three decades of density",
            time.perf_counter() - start, 5.0)


def test_04_threshold_sweep_shape_and_simulation():
    start = time.perf_counter()
    problems = []
    m_values = (1, 2, 4, 8)
    tau_dbs = (-5.0, 0.0, 5.0, 10.0)
    exact = {(m, t): coverage(_cellular(m=m, tau=10.0 ** (t / 10.0))).value
             for m in m_values for t in tau_dbs}
    for m in m_values:
        curve = [exact[(m, t)] for t in tau_dbs]
        if not all(b <= a for a, b in zip(curve, curve[1:])):
            problems.append(f"M={m} curve not nonincreasing in the threshold")
    for lo, hi in zip(m_values, m_values[1:]):
        if not all(exact[(lo, t)] < exact[(hi, t)] for t in tau_dbs):
            problems.append(f"curves M={lo} and M={hi} not ordered")
    worst = 0.0
    for i, (m, t) in enumerate((m, t) for m in m_values for t in tau_dbs):
        bundle = _cellular(m=m, tau=10.0 ** (t / 10.0))
        est = simulate(bundle, SimConfig(trials=100_000, seed=4000 + i,
                                         window_radius=30.0 * _ANCHOR))
        z = (est.value - exact[(m, t)]) / (est.ci_halfwidth / 1.96)
        worst = max(worst, abs(z))
    if worst > 4.0:
        problems.append(f"max |z| = {worst:.2f}")
    _report("04 threshold sweep", problems,
            f"16-point grid monotone and ordered, simulation max |z| = {worst:.2f}",
            time.perf_counter() - start, 120.0)


def test_05_density_profile_reconstruction():
    start = time.perf_counter()
    problems = []
    profile = density_profile(_adhoc(m=4))
    grid = np.linspace(0.02, 2.0, 50)
    values = np.array([profile.coverage_at(g) for g in grid])
    worst = max(abs(profile.coverage_at(g) / coverage(_adhoc(m=4, lam=g)).value - 1.0)
                for g in grid)
    if worst > 1e-12:
        problems.append(f"reconstruction off by {worst:.2e}")
    if not np.all(np.diff(values) <= 0.0):
        problems.append("profile not nonincreasing on the grid")
    if not np.all(values[:-2] - 2.0 * values[1:-1] + values[2:] >= 0.0):
        problems.append("profile not convex on the grid")
    worst_d = 0.0
    for lam in (0.05, 0.4, 1.1):
        h = 1e-6 * lam
        fd = (profile.coverage_at(lam + h) - profile.coverage_at(lam - h)) / (2.0 * h)
        worst_d = max(worst_d, abs(profile.derivative_at(lam) / fd - 1.0))
    if worst_d > 1e-6:
        problems.append(f"derivative off finite differences by {worst_d:.2e}")
    _report("05 density profile", problems,
            f"50-point reconstruction within {worst:.1e}, convex, "
            f"derivative within {worst_d:.1e} of finite differences",
            time.perf_counter() - start, 5.0)


def test_06_outage_decay_rate():
    start = time.perf_counter()
    problems = []
    bundle = _cellular()
    rc = cellular_decay_rate(bundle)
    ratio80 = outage_decay_check(bundle, order=82).ratios[-1]
    gap = abs(ratio80 / rc - 1.0)
    if gap > 0.01:
        problems.append(f"ratio at n=80 off the rate by {gap:.2e}")
    seq = improvement_sequence(bundle, order=170).values
    tail = np.cumsum(seq[::-1])[::-1]
    ms = np.arange(20, 81)
    log_outage = np.log10(tail[20:81])
    slope, intercept = np.polyfit(ms, log_outage, 1)
    fitted = slope * ms + intercept
    r2 = 1.0 - float(np.sum((log_outage - fitted) ** 2)
                     / np.sum((log_outage - log_outage.mean()) ** 2))
    if r2 < 0.999:
        problems.append(f"log-outage fit R^2 = {r2:.6f}")
    slope_gap = abs(slope / -math.log10(rc) - 1.0)
    if slope_gap > 0.01:
        problems.append(f"fit slope off -log10(rate) by {slope_gap:.2e}")
    _report("06 outage decay rate", problems,
            f"ratio gap {gap:.1e}, slope gap {slope_gap:.1e}, R^2 = {r2:.10f}",
            time.perf_counter() - start, 10.0)


def test_07_closed_form_triple_agreement():
    start = time.perf_counter()
    worst = 0.0
    for mu in (0.5, 1.0, 2.0, 5.0):
        bundle = _adhoc(lam=2.0 * mu / math.pi**2)
        seq = improvement_sequence(bundle, order=31).values
        for n in range(31):
            stirling = adhoc_pbar_closed_form(bundle, n)
            bessel = adhoc_pbar_bessel(bundle, n)
            worst = max(worst, abs(stirling / seq[n] - 1.0),
                        abs(bessel / seq[n] - 1.0))
    problems = [] if worst <= 1e-9 else [f"worst relative gap {worst:.2e}"]
    _report("07 closed-form agreement", problems,
            f"both identities within {worst:.1e} of the recursion, n <= 30",
            time.perf_counter() - start, 5.0)


def test_08_improvement_peak_location():
    start = time.perf_counter()
    problems = []
    for mu in (2.5, 3.0, 4.0, 6.0):
        bundle = _adhoc(lam=2.0 * mu / math.pi**2)
        bound = adhoc_peak_bound(bundle).index_bound
        peak = int(np.argmax(improvement_sequence(bundle, order=60).values))
        if peak > bound:
            problems.append(f"mu={mu}: peak {peak} above bound {bound}")
    for mu in (0.5, 1.2, 1.9):
        seq = improvement_sequence(_adhoc(lam=2.0 * mu / math.pi**2), order=60).values
        if not np.all(np.diff(seq) < 0.0):
            problems.append(f"mu={mu}: sequence not strictly decreasing")
    _report("08 peak location", problems,
            "peaks inside the bound, small-mu sequences strictly decreasing",
            time.perf_counter() - start, 5.0)


def test_09_signal_mixture_reduction():
    start = time.perf_counter()
    worst = 0.0
    for m in (1, 2, 4):
        for theta in (1.0, 1.3):
            bundle = _cellular(m=m, theta=theta)
            pdf = GeneralSignalPdf(terms=(
                (m - 1, 1.0 / theta, 1.0 / (theta**m * math.gamma(m))),
            ))
            via_mixture = coverage_general_pdf(bundle, pdf).value
            direct = coverage(bundle).value
            worst = max(worst, abs(via_mixture / direct - 1.0))
    problems = [] if worst <= 1e-10 else [f"worst relative gap {worst:.2e}"]
    _report("09 mixture reduction", problems,
            f"single-term mixture within {worst:.1e} of the gamma branch",
            time.perf_counter() - start, 5.0)


def test_10_dipole_scaling_duality():
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(20):
        lam = 10.0 ** rng.uniform(-3.0, -0.5)
        r0 = 10.0 ** rng.uniform(-0.5, 0.5)
        r_new = 10.0 ** rng.uniform(-0.5, 0.5)
        m = int(rng.integers(1, 9))
        tau = 10.0 ** rng.uniform(-0.5, 0.5)
        alpha = rng.uniform(2.5, 5.0)
        a = coverage(_adhoc(m=m, tau=tau, alpha=alpha, lam=lam, r0=r0)).value
        b = coverage(_adhoc(m=m, tau=tau, alpha=alpha,
                            lam=lam * r0**2 / r_new**2, r0=r_new)).value
        worst = max(worst, abs(a / b - 1.0))
    problems = [] if worst <= 1e-12 else [f"worst relative gap {worst:.2e}"]
    _report("10 dipole scaling", problems,
            f"20 scaled pairs within {worst:.1e}",
            time.perf_counter() - start, 2.0)
