"""Cross-checking the series engine against a direct simulation.

The simulator scatters actual Poisson points in a disc, draws fading for
each interferer, serves the nearest point (cellular) or the dedicated
dipole transmitter (ad hoc), and averages each trial's chance of coverage
given its interference, Q(M, x) = e^-x sum_{k<M} x^k / k! for the
Gamma(M) signal gain of M antennas.  Nothing about the analytic
derivation is reused, so agreement here exercises the whole pipeline end
to end.  Estimates carry confidence intervals from the independent trials.
By default the simulator scatters points only in a near disc and adds the
mean interference of the field beyond it (Campbell's theorem).  The disc
is the smaller of the one whose far-field mean provably moves coverage by
at most 1e-5 and the one that leaves 1e-5 of the far field's variance
with at least 200 points per trial, so the bias stays far below the
statistical noise.
"""

import math
import time

from mimocov import (
    ADHOC,
    CELLULAR,
    InterfererGainSpec,
    NetworkScenario,
    SignalGainSpec,
    coverage,
    validate,
)
from mimocov.montecarlo import SimConfig, auto_window, simulate

law = InterfererGainSpec(kappa=1.0, beta=1.0)

print("== cellular, two antennas ==")
cell = validate(NetworkScenario(kind=CELLULAR, lam=1e-3, alpha=4.0, threshold=1.0),
                SignalGainSpec(shape=2), law)
median_link = math.sqrt(math.log(2.0) / (math.pi * 1e-3))
print(f"near disc radius: {auto_window(cell):.1f} "
      f"(vs median serving distance {median_link:.2f})")
exact = coverage(cell).value
start = time.perf_counter()
est = simulate(cell, SimConfig(trials=50_000, seed=1))
elapsed = time.perf_counter() - start
z = (est.value - exact) / (est.ci_halfwidth / 1.96)
print(f"analytic  : {exact:.6f}")
print(f"simulated : {est.value:.6f} +- {est.ci_halfwidth:.6f} "
      f"({est.trials} trials, {elapsed:.1f}s)")
print(f"z-score   : {z:+.2f}")

print()
print("== ad hoc, three antennas, with noise ==")
noisy = validate(NetworkScenario(kind=ADHOC, lam=0.05, alpha=4.0, threshold=1.0,
                                 r0=1.0, noise=0.2),
                 SignalGainSpec(shape=3), law)
exact = coverage(noisy).value
est = simulate(noisy, SimConfig(trials=50_000, seed=2))
z = (est.value - exact) / (est.ci_halfwidth / 1.96)
print(f"analytic  : {exact:.6f}")
print(f"simulated : {est.value:.6f} +- {est.ci_halfwidth:.6f}")
print(f"z-score   : {z:+.2f}")

print()
print("== same seed, same answer: runs are reproducible bit for bit ==")
again = simulate(noisy, SimConfig(trials=50_000, seed=2))
print(f"repeat    : {again.value:.6f} (identical: {again.value == est.value})")
