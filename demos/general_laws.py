"""Beyond gamma fading: general gain laws and irregular deployments.

Three extensions of the baseline model, all running through the same
series machinery.  Interferer gains can follow any density with a finite
fractional moment.  Signal gains can follow exponential-polynomial mixtures,
whose coverage is a weighted combination of plain gamma coverages.  And
non-Poisson deployments are approximated by a horizontal SIR shift.
"""

import math

from mimocov import (
    CELLULAR,
    GeneralSignalPdf,
    InterfererGainSpec,
    NetworkScenario,
    SignalGainSpec,
    coverage,
    coverage_general_pdf,
    coverage_non_poisson,
    validate,
)

scenario = NetworkScenario(kind=CELLULAR, lam=1e-3, alpha=4.0, threshold=1.0)
signal = SignalGainSpec(shape=2)

print("== a general interferer law, checked against its gamma twin ==")
as_pdf = InterfererGainSpec(pdf=lambda g: math.exp(-g) if g >= 0.0 else 0.0)
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
print("== a more regular deployment shifts the SIR curve sideways ==")
bundle = validate(scenario, SignalGainSpec(shape=4), as_gamma)
for gain_db in (0.0, 1.0, 2.0):
    gain = 10.0 ** (gain_db / 10.0)
    pc = coverage_non_poisson(bundle, deployment_gain=gain).value
    label = "Poisson baseline" if gain_db == 0.0 else f"gain {gain_db:.0f} dB"
    print(f"{label:18s}: p_c = {pc:.6f}")
