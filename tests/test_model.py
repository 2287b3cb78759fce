import math
from fractions import Fraction

import numpy as np
import pytest

from mimocov import (
    ADHOC,
    CELLULAR,
    CoverageEstimate,
    DensityProfile,
    GeneralSignalPdf,
    InterfererGainSpec,
    NetworkScenario,
    NumericalError,
    SignalGainSpec,
    ValidationError,
    bundle_from_params,
    cellular_decay_rate,
    coverage,
    density_profile,
    improvement_sequence,
    parse_config,
    simulate,
    validate,
)
from mimocov.model import (
    METHOD_MC,
    METHOD_RECURSION,
    _integral_on_half_line,
    load_config,
    resolve_threshold,
)
from mimocov.montecarlo import SimConfig


def _scenario(**kw):
    base = dict(kind=CELLULAR, lam=1e-3, alpha=4.0, threshold=1.0, r0=None, noise=0.0)
    base.update(kw)
    return NetworkScenario(**base)


GAMMA_LAW = InterfererGainSpec(kappa=1.0, beta=1.0)
SIGNAL = SignalGainSpec(shape=1, scale=1.0)


# parameters that each type holds exactly, so its bundle must equal the
# float64 one; Python ints and numpy integers get integer values
_FRACTIONAL = dict(lam=0.0625, alpha=5.25, threshold=2.0, r0=1.5, noise=0.0, theta=0.75,
                   kappa=1.5, beta=0.5)
_INTEGRAL = dict(lam=1, alpha=4, threshold=1, r0=1, noise=0, theta=1, kappa=2, beta=1)
EXACT_INPUTS = [
    pytest.param(np.float32, _FRACTIONAL, id="float32"),
    pytest.param(np.float16, _FRACTIONAL, id="float16"),
    pytest.param(Fraction, _FRACTIONAL, id="Fraction"),
    pytest.param(np.int64, _INTEGRAL, id="int64"),
    pytest.param(int, _INTEGRAL, id="int"),
]


def _typed_bundle(kind, cast, values):
    v = {key: cast(value) for key, value in values.items()}
    scenario = NetworkScenario(kind=kind, lam=v["lam"], alpha=v["alpha"], threshold=v["threshold"],
                               r0=v["r0"] if kind == ADHOC else None, noise=v["noise"])
    return validate(scenario, SignalGainSpec(shape=np.int64(3), scale=v["theta"]),
                    InterfererGainSpec(kappa=v["kappa"], beta=v["beta"]))


def _density_profile():
    return density_profile(validate(_scenario(kind=ADHOC, lam=0.05, r0=1.0),
                                    SignalGainSpec(shape=2, scale=1.0), GAMMA_LAW))


class TestValidate:
    def test_delta_is_cached(self):
        bundle = validate(_scenario(alpha=5.0), SIGNAL, GAMMA_LAW)
        assert bundle.delta == pytest.approx(0.4)

    def test_delta_moment_is_cached(self):
        # E[g^delta] of Gamma(kappa, beta) is beta^delta Gamma(kappa+delta)/Gamma(kappa),
        # in closed form for the gamma law and by quadrature for its pdf
        kappa, beta, delta = 2.5, 0.7, 0.4
        expected = beta**delta * math.gamma(kappa + delta) / math.gamma(kappa)
        gamma = validate(_scenario(alpha=5.0), SIGNAL, InterfererGainSpec(kappa=kappa, beta=beta))
        law = InterfererGainSpec(pdf=lambda g: math.exp(
            (kappa - 1.0) * math.log(g) - g / beta - math.lgamma(kappa) - kappa * math.log(beta)))
        general = validate(_scenario(alpha=5.0), SIGNAL, law)
        assert gamma.delta_moment == pytest.approx(expected, rel=1e-14)
        assert general.delta_moment == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("kappa", [1e3, 1e6, 1e10, 1e15])
    def test_delta_moment_at_large_shapes(self, kappa):
        # a difference of lgamma values cancels here: at kappa = 1e15 it put
        # this ad hoc coverage at 0.92475 instead of 0.75698
        mp = pytest.importorskip("mpmath")
        delta = 0.5
        with mp.workdps(50):
            k = mp.mpf(kappa)
            expected = float(k**-delta * mp.exp(mp.loggamma(k + delta) - mp.loggamma(k)))
        bundle = validate(_scenario(kind=ADHOC, lam=0.05, alpha=2.0 / delta, r0=1.0), SIGNAL,
                          InterfererGainSpec(kappa=kappa, beta=1.0 / kappa))
        assert bundle.delta_moment == pytest.approx(expected, rel=1e-14)
        mu = math.pi * 0.05 * math.gamma(1.0 - delta) * expected
        assert coverage(bundle).value == pytest.approx(math.exp(-mu), rel=1e-14)

    def test_delta_moment_where_gamma_of_the_shape_overflows(self):
        # Gamma(1e-310) is past the double range; Gamma(kappa) = 1/kappa there
        kappa, delta = 1e-310, 0.5
        bundle = validate(_scenario(alpha=2.0 / delta), SIGNAL, InterfererGainSpec(kappa=kappa, beta=1.0))
        assert bundle.delta_moment == pytest.approx(math.gamma(delta) * kappa, rel=1e-12)

    @pytest.mark.parametrize("kw,fragment", [
        (dict(kind="mesh"), "kind"),
        (dict(lam=0.0), "lambda"),
        (dict(lam=-1.0), "lambda"),
        (dict(lam=10**400), "lambda must be positive"),
        (dict(alpha=2.0), "alpha must exceed 2"),
        (dict(alpha=1.5), "alpha must exceed 2"),
        (dict(threshold=0.0), "tau"),
        (dict(noise=-0.1), "noise"),
        (dict(r0=1.0), "no dipole distance"),
    ])
    def test_bad_scenario(self, kw, fragment):
        with pytest.raises(ValidationError, match=fragment):
            validate(_scenario(**kw), SIGNAL, GAMMA_LAW)

    @pytest.mark.parametrize("build,name", [
        pytest.param(lambda: validate(_scenario(lam="1e-3"), SIGNAL, GAMMA_LAW), "lambda",
                     id="lambda-str"),
        pytest.param(lambda: validate(_scenario(alpha=np.True_), SIGNAL, GAMMA_LAW), "alpha",
                     id="alpha-numpy-bool"),
        pytest.param(lambda: validate(_scenario(threshold=None), SIGNAL, GAMMA_LAW), "tau",
                     id="tau-none"),
        pytest.param(lambda: validate(_scenario(noise="0"), SIGNAL, GAMMA_LAW), "noise power",
                     id="noise-str"),
        pytest.param(lambda: validate(_scenario(kind=ADHOC, r0="1"), SIGNAL, GAMMA_LAW), "r0",
                     id="r0-str"),
        pytest.param(lambda: validate(_scenario(), SignalGainSpec(shape=1, scale="1"), GAMMA_LAW),
                     "theta", id="theta-str"),
        pytest.param(lambda: validate(_scenario(), SignalGainSpec(shape=1, scale=True), GAMMA_LAW),
                     "theta", id="theta-bool"),
        pytest.param(lambda: validate(_scenario(), SIGNAL, InterfererGainSpec(kappa="1", beta=1.0)),
                     "kappa", id="kappa-str"),
        pytest.param(lambda: validate(_scenario(), SIGNAL, InterfererGainSpec(kappa=1.0, beta=1j)),
                     "beta", id="beta-complex"),
        pytest.param(lambda: SimConfig(window_radius="300"), "window_radius", id="window-str"),
        pytest.param(lambda: SimConfig(window_radius=True), "window_radius", id="window-bool"),
        pytest.param(lambda: GeneralSignalPdf(terms=((None, 1.0, 1.0),)), "exponent q",
                     id="pdf-q-none"),
        pytest.param(lambda: GeneralSignalPdf(terms=((0, "1", 1.0),)), "decay rate phi",
                     id="pdf-phi-str"),
        pytest.param(lambda: GeneralSignalPdf(terms=((0, 1.0, "1"),)), "coefficient varphi",
                     id="pdf-varphi-str"),
        pytest.param(lambda: GeneralSignalPdf(terms=((True, 1.0, 1.0),)), "exponent q",
                     id="pdf-q-bool"),
        pytest.param(lambda: GeneralSignalPdf(terms=((0, True, 1.0),)), "decay rate phi",
                     id="pdf-phi-bool"),
        pytest.param(lambda: GeneralSignalPdf(terms=((0, 1.0, True),)), "coefficient varphi",
                     id="pdf-varphi-bool"),
        *(pytest.param(lambda at=at, lam=lam: getattr(_density_profile(), at)(lam),
                       "transmitter density lambda", id=f"{at}-{lam!r}")
          for at in ("coverage_at", "derivative_at") for lam in ("0.05", None, 1j, True)),
    ])
    def test_non_real_parameters_are_refused(self, build, name):
        # each was a bare TypeError, or a bool read as 1.0
        with pytest.raises(ValidationError, match=f"{name} must be a real number"):
            build()

    def test_adhoc_needs_r0(self):
        with pytest.raises(ValidationError, match="dipole distance"):
            validate(_scenario(kind=ADHOC, r0=None), SIGNAL, GAMMA_LAW)
        with pytest.raises(ValidationError, match="dipole distance"):
            validate(_scenario(kind=ADHOC, r0=-2.0), SIGNAL, GAMMA_LAW)

    @pytest.mark.parametrize("signal,fragment", [
        (SignalGainSpec(shape=0), "antenna count"),
        (SignalGainSpec(shape=1.0), "antenna count"),
        (SignalGainSpec(shape=2, scale=0.0), "theta"),
        (SignalGainSpec(shape=True), "antenna count"),
        (SignalGainSpec(shape=np.True_), "antenna count"),
    ])
    def test_bad_signal(self, signal, fragment):
        with pytest.raises(ValidationError, match=fragment):
            validate(_scenario(), signal, GAMMA_LAW)

    def test_numpy_integer_antenna_count_is_stored_as_int(self):
        bundle = validate(_scenario(), SignalGainSpec(shape=np.int64(4)), GAMMA_LAW)
        assert type(bundle.signal.shape) is int and bundle.signal.shape == 4

    @pytest.mark.parametrize("kind", [CELLULAR, ADHOC])
    @pytest.mark.parametrize("cast,values", EXACT_INPUTS)
    def test_bundle_holds_python_numbers(self, cast, values, kind):
        bundle = _typed_bundle(kind, cast, values)
        sc, law = bundle.scenario, bundle.interferer
        reals = [sc.lam, sc.alpha, sc.threshold, sc.noise, bundle.signal.scale, law.kappa,
                 law.beta, bundle.delta, bundle.delta_moment]
        assert [type(x) for x in reals] == [float] * len(reals)
        assert type(bundle.signal.shape) is int and type(sc.kind) is str
        assert sc.r0 is None if kind == CELLULAR else type(sc.r0) is float
        assert bundle == _typed_bundle(kind, float, values)

    @pytest.mark.parametrize("kind", [CELLULAR, ADHOC])
    @pytest.mark.parametrize("cast,values", EXACT_INPUTS)
    def test_outputs_match_float64_inputs_bit_for_bit(self, cast, values, kind):
        # under NumPy 2 a float32 parameter kept float32 arithmetic going
        # (np.float32 * float is float32), and every output moved
        def outputs(bundle, lam):
            got = [coverage(bundle).value, improvement_sequence(bundle, 3).values.tobytes().hex()]
            if kind == CELLULAR:
                got.append(cellular_decay_rate(bundle))
            else:
                got.append(density_profile(bundle).coverage_at(lam))
            estimate = simulate(bundle, SimConfig(trials=200, seed=5))
            got += [estimate.value, estimate.ci_halfwidth]
            return [x if type(x) is str else x.hex() for x in got]

        assert (outputs(_typed_bundle(kind, cast, values), cast(values["lam"]))
                == outputs(_typed_bundle(kind, float, values), float(values["lam"])))

    @pytest.mark.parametrize("law,fragment", [
        (InterfererGainSpec(kappa=0.0, beta=1.0), "kappa"),
        (InterfererGainSpec(kappa=1.0, beta=-1.0), "beta"),
        (InterfererGainSpec(), "kappa and beta"),
        (InterfererGainSpec(kappa=1.0, beta=1.0, pdf=lambda g: math.exp(-g)), "not both"),
        # a vector pdf took the vector quadrature: a bare ValueError for two
        # components, a bare TypeError at the delta-moment check for one
        (InterfererGainSpec(pdf=lambda g: np.array([math.exp(-g)] * 2)),
         "pdf must map a gain to a real number"),
        (InterfererGainSpec(pdf=lambda g: np.array([math.exp(-g)])),
         "pdf must map a gain to a real number"),
    ])
    def test_bad_interferer(self, law, fragment):
        with pytest.raises(ValidationError, match=fragment):
            validate(_scenario(), SIGNAL, law)

    def test_sampler_only_law_is_refused(self):
        law = InterfererGainSpec(sampler=lambda rng, size: rng.standard_exponential(size))
        with pytest.raises(ValidationError, match="callable pdf"):
            validate(_scenario(), SIGNAL, law)

    def test_general_law_accepted(self):
        law = InterfererGainSpec(pdf=lambda g: math.exp(-g))
        bundle = validate(_scenario(), SIGNAL, law)
        assert not bundle.interferer.is_gamma
        assert bundle.interferer is law and type(bundle.delta_moment) is float
        # a 0-d array is a real scalar
        assert type(validate(_scenario(), SIGNAL, InterfererGainSpec(
            pdf=lambda g: np.asarray(math.exp(-g)))).delta_moment) is float
        # light tails whose mass lies far out: their block ratios climb above
        # one for a while but never settle there, so they are not divergent
        for pdf in (lambda g: math.exp(-g / 50.0) / 50.0,
                    lambda g: math.exp(-g / 100.0) / 100.0,
                    lambda g: math.exp(99.0 * math.log(g) - g - math.lgamma(100.0))):
            validate(_scenario(), SIGNAL, InterfererGainSpec(pdf=pdf))

    def test_law_with_mass_only_far_out(self):
        # every block up to g = 4 is zero; the sum must not stop there
        def uniform(g):
            return 0.01 if 100.0 < g < 200.0 else 0.0

        validate(_scenario(), SIGNAL, InterfererGainSpec(pdf=uniform))
        mean = _integral_on_half_line(lambda g: g * uniform(g), "mean")
        assert mean == pytest.approx(150.0, abs=1e-9)

    def test_scalar_quadrature_failure_is_reported(self):
        # sin(1/g)/g oscillates without bound toward g = 0, which QUADPACK
        # cannot resolve; the failure must raise, not warn and return
        with pytest.raises(NumericalError, match="oscillating"):
            _integral_on_half_line(lambda g: math.sin(1.0 / g) / g, "oscillating")

    def test_identically_zero_integrand_finishes(self):
        got = _integral_on_half_line(lambda g: np.zeros(3), "zero")
        assert np.array_equal(got, np.zeros(3))

    def test_general_law_must_normalize(self):
        law = InterfererGainSpec(pdf=lambda g: 2.0 * math.exp(-g))
        with pytest.raises(ValidationError, match="integrate to 1"):
            validate(_scenario(), SIGNAL, law)

    def test_divergent_delta_moment_rejected(self):
        # pdf 0.25 (1+g)^{-1.25} is normalized but E[g^{1/2}] diverges
        law = InterfererGainSpec(pdf=lambda g: 0.25 * (1.0 + g) ** -1.25)
        with pytest.raises(ValidationError, match="delta-moment"):
            validate(_scenario(alpha=4.0), SIGNAL, law)


class TestGeneralSignalPdf:
    def test_gamma_term_weights(self):
        m, theta = 3, 0.8
        pdf = GeneralSignalPdf(terms=((m - 1, 1.0 / theta, 1.0 / (theta**m * math.gamma(m))),))
        ((order, scale, weight),) = pdf.weights()
        assert order == m
        assert scale == pytest.approx(theta)
        assert weight == pytest.approx(1.0, rel=1e-12)

    def test_mixture_weights_sum_to_one(self):
        pdf = GeneralSignalPdf(terms=((0, 2.0, 0.8), (0, 0.5, 0.3)))
        total = sum(w for _, _, w in pdf.weights())
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_normalization_enforced(self):
        with pytest.raises(ValidationError, match="integrate to 1"):
            GeneralSignalPdf(terms=((0, 1.0, 1.5),))
        with pytest.raises(ValidationError, match="integrate to 1"):
            GeneralSignalPdf(terms=((200, 1.0, 1.0),))

    def test_term_validation(self):
        with pytest.raises(ValidationError):
            GeneralSignalPdf(terms=())
        for q in (-1, 2.5, math.inf, math.nan):
            with pytest.raises(ValidationError, match="non-negative integer"):
                GeneralSignalPdf(terms=((q, 1.0, 1.0),))
        assert GeneralSignalPdf(terms=((2.0, 1.0, 0.5),)).terms == ((2, 1.0, 0.5),)
        with pytest.raises(ValidationError, match="phi"):
            GeneralSignalPdf(terms=((0, 0.0, 1.0),))
        with pytest.raises(ValidationError, match=r"\(q, phi, varphi\)"):
            GeneralSignalPdf(terms=((0, 0, 1.0, 1.0),))
        for varphi in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValidationError, match="varphi must be finite"):
                GeneralSignalPdf(terms=((0, 1.0, varphi),))

    @pytest.mark.parametrize("u", [0.0, 5.0, 40.0])
    def test_high_order_term_pdf(self, u):
        # normalized Gamma(201, 1/30): u^200 alone overflows at u = 40
        from scipy import stats

        q, phi = 200, 30.0
        varphi = math.exp((q + 1) * math.log(phi) - math.lgamma(q + 1))
        pdf = GeneralSignalPdf(terms=((q, phi, varphi),))
        assert pdf.pdf(u) == pytest.approx(float(stats.gamma.pdf(u, q + 1, scale=1.0 / phi)),
                                           rel=1e-11, abs=0.0)


class TestCoverageEstimate:
    def test_range_enforced(self):
        with pytest.raises(NumericalError, match=r"outside \[0, 1\]"):
            CoverageEstimate(value=1.0000001, method=METHOD_RECURSION)
        with pytest.raises(NumericalError, match=r"outside \[0, 1\]"):
            CoverageEstimate(value=-0.1, method=METHOD_RECURSION)

    def test_interval_only_for_simulation(self):
        with pytest.raises(ValidationError):
            CoverageEstimate(value=0.5, method=METHOD_RECURSION, ci_halfwidth=0.01)
        est = CoverageEstimate(value=0.5, method=METHOD_MC, ci_halfwidth=0.01, trials=1000)
        assert est.trials == 1000

    @pytest.mark.parametrize("halfwidth", [-0.01, math.nan, math.inf])
    def test_halfwidth_must_be_finite_and_non_negative(self, halfwidth):
        # nan passed a bare halfwidth < 0 check
        with pytest.raises(ValidationError, match="ci_halfwidth"):
            CoverageEstimate(value=0.5, method=METHOD_MC, ci_halfwidth=halfwidth, trials=10)

    def test_unknown_method(self):
        with pytest.raises(ValidationError):
            CoverageEstimate(value=0.5, method="guesswork")

    @pytest.mark.parametrize("trials", ["5", 2.5, True, 1, -3, None])
    def test_monte_carlo_trials_must_be_an_integer_of_at_least_2(self, trials):
        # each was accepted and stored as given
        with pytest.raises(ValidationError, match="trials must be an integer of at least 2"):
            CoverageEstimate(value=0.5, method=METHOD_MC, ci_halfwidth=0.01, trials=trials)

    @pytest.mark.parametrize("trials", [False, 0.0, 5])
    def test_series_estimates_take_zero_trials(self, trials):
        with pytest.raises(ValidationError, match="Monte Carlo estimates only"):
            CoverageEstimate(value=0.5, method=METHOD_RECURSION, trials=trials)

    def test_fields_are_stored_as_python_numbers(self):
        est = CoverageEstimate(value=np.float32(0.75), method=METHOD_MC,
                               ci_halfwidth=Fraction(1, 64), trials=np.int64(2))
        assert (type(est.value), type(est.ci_halfwidth), type(est.trials)) == (float, float, int)
        assert (est.value, est.ci_halfwidth, est.trials) == (0.75, 1 / 64, 2)
        assert type(CoverageEstimate(value=1, method=METHOD_RECURSION).value) is float


class TestDensityProfileInputs:
    def test_float32_head_evaluates_as_its_float64_value(self):
        # exp(np.float32 head * lam) was a float32 product, 7e-9 off
        got, want = (DensityProfile(head=head, betas=[1.0, 0.5, 0.125])
                     for head in (np.float32(-1.5), -1.5))
        assert type(got.head) is float
        for lam in (0.1, np.float32(0.25), Fraction(3, 4)):
            assert got.coverage_at(lam).hex() == want.coverage_at(float(lam)).hex()
            assert got.derivative_at(lam).hex() == want.derivative_at(float(lam)).hex()


class TestConfig:
    def test_parse_basics(self):
        text = """
        # scenario
        kind = cellular
        alpha = 4.0   # path loss
        tau_db = 3.0

        m = 2
        """
        params = parse_config(text)
        assert params == {"kind": "cellular", "alpha": "4.0", "tau_db": "3.0", "m": "2"}

    @pytest.mark.parametrize("line,fragment", [
        ("alpha 4", "key = value"),
        ("speed = 9", "unknown key"),
        ("alpha =", "empty value"),
    ])
    def test_parse_errors(self, line, fragment):
        with pytest.raises(ValidationError, match=fragment):
            parse_config(line)

    def test_load_config(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("kind = adhoc\nalpha = 3.5\nr0 = 0.5\n")
        assert load_config(str(path))["r0"] == "0.5"

    def test_threshold_resolution(self):
        assert resolve_threshold({"tau": "2.5"}) == pytest.approx(2.5)
        assert resolve_threshold({"tau_db": "10"}) == pytest.approx(10.0)
        assert resolve_threshold({"tau": "2.0", "tau_db": "10"}) == pytest.approx(2.0)
        assert resolve_threshold({}) == 1.0

    @pytest.mark.parametrize("tau_db", ["4000", "-4000", "inf", "nan"])
    def test_threshold_outside_double_range(self, tau_db):
        # 10^(4000/10) overflows a double; 10^(-4000/10) underflows to zero
        with pytest.raises(ValidationError, match="tau_db"):
            resolve_threshold({"tau_db": tau_db})
        assert resolve_threshold({"tau_db": "3000"}) == pytest.approx(1e300)

    def test_bundle_defaults(self):
        bundle = bundle_from_params({"kind": "cellular", "alpha": "4"})
        sc = bundle.scenario
        assert (sc.lam, sc.threshold, sc.noise) == (1e-3, 1.0, 0.0)
        assert bundle.signal.shape == 1
        assert bundle.interferer.kappa == 1.0

    def test_bundle_requires_kind_and_alpha(self):
        with pytest.raises(ValidationError, match="kind is required"):
            bundle_from_params({"alpha": "4"})
        with pytest.raises(ValidationError, match="alpha is required"):
            bundle_from_params({"kind": "adhoc", "r0": "1"})

    def test_bundle_rejects_unknown_and_bad_values(self):
        with pytest.raises(ValidationError, match="unknown parameters"):
            bundle_from_params({"kind": "cellular", "alpha": "4", "color": "red"})
        with pytest.raises(ValidationError, match="must be a number"):
            bundle_from_params({"kind": "cellular", "alpha": "wide"})
        with pytest.raises(ValidationError, match="integer"):
            bundle_from_params({"kind": "cellular", "alpha": "4", "m": "2.5"})

    def test_bundle_full_adhoc(self):
        bundle = bundle_from_params({
            "kind": "adhoc", "alpha": 3.0, "r0": 0.7, "lambda": 0.2,
            "tau_db": 3.0, "m": 4, "theta": 2.0, "kappa": 0.5, "beta": 1.5,
            "noise": 0.1,
        })
        assert bundle.scenario.threshold == pytest.approx(10 ** 0.3)
        assert bundle.delta == pytest.approx(2.0 / 3.0)
        assert bundle.signal.shape == 4
