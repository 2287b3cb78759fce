"""Beyond gamma fading: general gain laws.

Two extensions of the baseline model, both running through the same
series machinery.  Interferer gains can follow any density with a finite
fractional moment.  Signal gains can follow exponential-polynomial mixtures,
whose coverage is a weighted combination of plain gamma coverages.  The
simulator takes a general interferer law too, given a sampler: its default
window reads E[g] and E[g^2] from the pdf, as it reads them from a gamma
law's closed forms.
"""

import math

import numpy as np

from mimocov import (
    CELLULAR,
    GeneralSignalPdf,
    InterfererGainSpec,
    NetworkScenario,
    SignalGainSpec,
    SimConfig,
    coverage,
    coverage_general_pdf,
    simulate,
    validate,
)

scenario = NetworkScenario(kind=CELLULAR, lam=1e-3, alpha=4.0, threshold=1.0)
signal = SignalGainSpec(shape=2)

print("== a general interferer law, checked against its gamma twin ==")
# the sampler serves the simulator only: it draws -log(1 - U) from float32
# uniforms, as the gamma law's kappa = 1 draw does, so both see the same gains
as_pdf = InterfererGainSpec(
    pdf=lambda g: math.exp(-g) if g >= 0.0 else 0.0,
    sampler=lambda rng, size: -np.log(np.float32(1.0) - rng.random(size, dtype=np.float32)),
)
as_gamma = InterfererGainSpec(kappa=1.0, beta=1.0)
via_pdf = coverage(validate(scenario, signal, as_pdf)).value
via_gamma = coverage(validate(scenario, signal, as_gamma)).value
print(f"quadrature over the pdf : {via_pdf:.12f}")
print(f"gamma closed form       : {via_gamma:.12f}")
print(f"difference              : {abs(via_pdf - via_gamma):.2e}")

print()
print("== signal gain as a hyperexponential mixture ==")
# two exponential branches, rates 1 and 2, equal probability:
# f(u) = 0.5 e^{-u} + 1.0 e^{-2u}
mix = GeneralSignalPdf(terms=((0, 1.0, 0.5), (0, 2.0, 1.0)))
bundle = validate(scenario, SignalGainSpec(shape=1), as_gamma)
mixed = coverage_general_pdf(bundle, mix).value
fast = coverage(validate(scenario, SignalGainSpec(shape=1, scale=1.0), as_gamma)).value
slow = coverage(validate(scenario, SignalGainSpec(shape=1, scale=0.5), as_gamma)).value
print(f"mixture coverage        : {mixed:.12f}")
print(f"branch average          : {0.5 * fast + 0.5 * slow:.12f}")
print("(the mixture is exactly the probability-weighted branch average)")

print()
print("== the general law simulated on the default window, beside its gamma twin ==")
config = SimConfig(trials=20_000, seed=1)
for label, law in (("pdf and sampler", as_pdf), ("gamma(1, 1)", as_gamma)):
    est = simulate(validate(scenario, signal, law), config)
    print(f"{label:18s}: p_c = {est.value:.5f} +- {est.ci_halfwidth:.5f}")
print(f"{'analytic':18s}: p_c = {via_gamma:.5f}")
