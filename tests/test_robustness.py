"""Every valid input gives a finite answer or fails in one of two ways.

Scenarios are drawn by a seeded generator over ranges far past any
deployment: alpha from 2 + 1e-12 to 2 + 10^2.5, densities 1e+-30,
thresholds +-3000 dB, up to 512 antennas, gain scales 1e+-10, interferer
shapes 1e-3 to 1e8, dipole distances 1e+-20, and for half the ad hoc
draws a noise power 1e+-300.  Each library evaluator either returns a
finite value (a coverage in [0, 1]) or raises a ``ValidationError`` or a
``NumericalError``; the command line exits 0, 2 or 3, never with a
traceback.  Warnings are errors under the pytest configuration, so a
RuntimeWarning on the way fails a draw too.  Malformed result types are
refused with a ``ValidationError`` as well, and a seeded agreement arm
holds simulated estimates to the series on default windows.
"""

import csv
import io
import math
import time
import warnings

import numpy as np
import pytest

import mimocov
from mimocov import (
    ADHOC,
    CELLULAR,
    CoverageEstimate,
    DensityProfile,
    EntrySequence,
    ImprovementSequence,
    InterfererGainSpec,
    MimocovError,
    NetworkScenario,
    NumericalError,
    SimConfig,
    SignalGainSpec,
    ValidationError,
    adhoc_peak_bound,
    bundle_from_params,
    cellular_decay_rate,
    coverage,
    density_profile,
    improvement_sequence,
    outage_decay_check,
    simulate,
    validate,
)
from mimocov.cli import main
from mimocov.montecarlo import _plan

SEED = 777
DRAWS = 500
CLI_DRAWS = 100
EXP_LAW = InterfererGainSpec(pdf=lambda g: math.exp(-g),
                             sampler=lambda rng, size: rng.standard_exponential(size))


def _log_uniform(rng, low, high):
    return float(10.0 ** rng.uniform(low, high))


def draw_scenarios(seed: int, count: int) -> list:
    """``count`` parameter mappings (the keys of a config file), half of
    them cellular, half ad hoc, half of those with noise."""
    rng = np.random.default_rng(seed)
    scenarios = []
    for _ in range(count):
        params = {
            "kind": CELLULAR if rng.random() < 0.5 else ADHOC,
            "alpha": 2.0 + _log_uniform(rng, -12.0, 2.5),
            "lambda": _log_uniform(rng, -30.0, 30.0),
            "tau_db": float(rng.uniform(-3000.0, 3000.0)),
            "m": int(rng.integers(1, 513)),
            "theta": _log_uniform(rng, -10.0, 10.0),
            "beta": _log_uniform(rng, -10.0, 10.0),
            "kappa": _log_uniform(rng, -3.0, 8.0),
            "r0": _log_uniform(rng, -20.0, 20.0),
            "noise": _log_uniform(rng, -300.0, 300.0),
        }
        if params["kind"] == CELLULAR:
            del params["r0"], params["noise"]
        elif rng.random() < 0.5:
            params["noise"] = 0.0
        scenarios.append(params)
    return scenarios


def _finite_coverage(value) -> None:
    assert math.isfinite(value) and 0.0 <= value <= 1.0, value


def _finite(*values) -> None:
    assert all(math.isfinite(v) for v in values), values


def _evaluations(bundle):
    """(name, call, check) for each library evaluator that applies."""
    m = bundle.signal.shape
    calls = [
        ("coverage", lambda: coverage(bundle), lambda est: _finite_coverage(est.value)),
        ("improvement_sequence", lambda: improvement_sequence(bundle, m),
         lambda seq: (_finite(*seq.values), _finite_coverage(seq.coverage_at(m)))),
        ("outage_decay_check", lambda: outage_decay_check(bundle),
         lambda diag: _finite(*diag.ratios)),
        ("montecarlo._plan", lambda: _plan(bundle, SimConfig()),
         lambda plan: _finite(plan.anchor, plan.radius, plan.far_mean, plan.noise,
                              plan.mean_points)),
    ]
    if bundle.scenario.kind == CELLULAR:
        calls.append(("cellular_decay_rate", lambda: cellular_decay_rate(bundle), _finite))
    else:
        calls += [
            ("density_profile", lambda: density_profile(bundle),
             lambda profile: _finite(profile.head, *profile.betas)),
            ("adhoc_peak_bound", lambda: adhoc_peak_bound(bundle),
             lambda peak: _finite(peak.mu, peak.index_bound)),
        ]
    return calls


def outcomes(params: dict) -> list:
    """(call, outcome) for every evaluation of one drawn scenario: "ok",
    or the refusal itself.  Any other exception, or a value that is not
    finite, propagates."""
    try:
        bundle = bundle_from_params(params)
    except ValidationError as exc:
        return [("bundle_from_params", exc)]
    results = []
    for name, call, check in _evaluations(bundle):
        try:
            value = call()
        except (ValidationError, NumericalError) as exc:
            results.append((name, exc))
            continue
        check(value)
        results.append((name, "ok"))
    return results


def _cli_argv(params: dict, index: int) -> list:
    """``coverage``, or ``insights`` with the diagnostics of the kind, on
    the drawn parameters; flags as ``--key=value``, so that argparse never
    takes a negative value for an option."""
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in params.items()]
    if index % 2 == 0:
        return ["coverage", *flags]
    if params["kind"] == CELLULAR:
        return ["insights", *flags, "--rc", "--ratios", "40"]
    return ["insights", *flags, "--density-profile", "--peak-bound"]


def test_every_error_class_is_one_of_two_kinds():
    classes = [getattr(mimocov, name) for name in mimocov.__all__]
    errors = {c for c in classes if isinstance(c, type) and issubclass(c, BaseException)}
    assert errors == {MimocovError, ValidationError, NumericalError}
    assert set(MimocovError.__subclasses__()) == {ValidationError, NumericalError}
    assert ValidationError.__subclasses__() == NumericalError.__subclasses__() == []


def test_drawn_scenarios_are_finite_or_refused():
    start = time.perf_counter()
    seen = set()
    for params in draw_scenarios(SEED, DRAWS):
        for _, outcome in outcomes(params):
            seen.add(outcome if outcome == "ok" else
                     ValidationError if isinstance(outcome, ValidationError) else NumericalError)
    assert time.perf_counter() - start < 60.0  # a loose ceiling on a search of about 1 s
    # the ranges reach answers and both kinds of refusal
    assert seen == {"ok", ValidationError, NumericalError}


@pytest.mark.parametrize("index, params",
                         list(enumerate(draw_scenarios(SEED, DRAWS)[:CLI_DRAWS])))
def test_drawn_commands_exit_0_2_or_3(capsys, index, params):
    code = main(_cli_argv(params, index))
    out, err = capsys.readouterr()
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    if code:
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("numerical error: " if code == 3 else "error: ")
    elif index % 2 == 0:
        _finite_coverage(float(next(csv.DictReader(io.StringIO(out)))["p_c"]))


def _general_law_validation(pdf):
    scenario = NetworkScenario(kind=ADHOC, lam=0.05, alpha=4.0, threshold=1.0, r0=1.0)
    return validate(scenario, SignalGainSpec(shape=1), InterfererGainSpec(pdf=pdf))


@pytest.mark.parametrize("make, message", [
    (lambda: DensityProfile(head=-1.0, betas=[]), "non-empty 1-D"),
    (lambda: DensityProfile(head=-1.0, betas=[[1.0, 2.0]]), "non-empty 1-D"),
    (lambda: DensityProfile(head="x", betas=[1.0]), "head must be a real number"),
    (lambda: ImprovementSequence(values=["a"]), "real numbers"),
    (lambda: ImprovementSequence(values=[]), "non-empty 1-D"),
    (lambda: CoverageEstimate(value="0.5", method="finite-sum"), "must be a real number"),
    (lambda: CoverageEstimate(value=0.5, method="monte-carlo", ci_halfwidth="0.1", trials=10),
     "must be a real number"),
    (lambda: EntrySequence(values=["a"], flavor="cellular"), "real numbers"),
    (lambda: _general_law_validation(lambda g: "x"), "pdf must map a gain to a real number"),
], ids=["profile-empty", "profile-2d", "profile-head", "improvements-str",
        "improvements-empty", "estimate-value", "estimate-halfwidth", "entries-str", "pdf-str"])
def test_malformed_results_are_refused(make, message):
    with pytest.raises(ValidationError, match=message):
        make()


def test_an_improvement_sequence_takes_any_real_column():
    assert ImprovementSequence(values=[0.5, 0.2]).coverage_at(2) == 0.7
    values = np.array([0.5, 0.2])
    assert ImprovementSequence(values=values).values is values


class TestSeededAgreementSweep:
    # random valid scenarios on their default windows, drawn from one fixed
    # seed; each estimate must sit within 5 binomial standard deviations of
    # the series.  The first 16 draws: alpha 2.2-600, tau +-1000 dB, theta
    # 1e+-10, Gamma shapes 1, 2 and 2.5, M 1-8, so most coverages are 0 or
    # 1.  The next 32 hold tau / theta within +-30 dB, with alpha 2.2-600,
    # theta 1e+-10 and M log-uniform over 1-512, and every other pair of
    # them runs on the general law e^-g, so most coverages lie inside (0, 1)
    @staticmethod
    def _draws():
        rng = np.random.default_rng(2718)
        for i in range(16):
            alpha = 2.2 * (600.0 / 2.2) ** rng.random()
            tau = 10.0 ** (rng.uniform(-1000.0, 1000.0) / 10.0)
            theta = 10.0 ** rng.uniform(-10.0, 10.0)
            kappa = float(rng.choice([1.0, 2.0, 2.5]))
            m = int(rng.integers(1, 9))
            yield i, ("cellular", "adhoc")[i % 2], dict(alpha=alpha, tau=tau, theta=theta,
                                                         kappa=kappa, m=m)
        for i in range(16, 48):
            alpha = 2.2 * (600.0 / 2.2) ** rng.random()
            theta = 10.0 ** rng.uniform(-10.0, 10.0)
            tau = theta * 10.0 ** (rng.uniform(-30.0, 30.0) / 10.0)
            kappa = float(rng.choice([1.0, 2.0, 2.5]))
            m = int(round(512.0 ** rng.random()))
            law = dict(interferer=EXP_LAW) if i // 2 % 2 else dict(kappa=kappa)
            yield i, ("cellular", "adhoc")[i % 2], dict(alpha=alpha, tau=tau, theta=theta,
                                                         m=m, **law)

    def test_estimates_agree_with_the_series(self, request):
        trials, checked, inside = 3000, 0, 0
        for seed, kind, params in self._draws():
            bundle = request.getfixturevalue(f"{kind}_bundle")(**params)
            config = SimConfig(trials=trials, seed=seed)
            try:
                _plan(bundle, config)
            except MimocovError:
                continue
            exact = coverage(bundle).value
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                est = simulate(bundle, config)
            spread = 5.0 * math.sqrt(exact * (1.0 - exact) / trials)
            assert abs(est.value - exact) <= spread, (kind, params, est.value, exact)
            checked += 1
            inside += 1e-3 < exact < 1.0 - 1e-3
        assert checked >= 44
        assert inside >= 20
