import math

import numpy as np
import pytest

from mimocov import (
    ADHOC,
    CELLULAR,
    CoverageEstimate,
    CoverageRangeError,
    GeneralSignalPdf,
    InterfererGainSpec,
    NetworkScenario,
    SignalGainSpec,
    ValidationError,
    bundle_from_params,
    parse_config,
    validate,
)
from mimocov.model import METHOD_MC, METHOD_RECURSION, load_config, resolve_threshold


def _scenario(**kw):
    base = dict(kind=CELLULAR, lam=1e-3, alpha=4.0, threshold=1.0, r0=None, noise=0.0)
    base.update(kw)
    return NetworkScenario(**base)


GAMMA_LAW = InterfererGainSpec(kappa=1.0, beta=1.0)
SIGNAL = SignalGainSpec(shape=1, scale=1.0)


class TestValidate:
    def test_delta_is_cached(self):
        bundle = validate(_scenario(alpha=5.0), SIGNAL, GAMMA_LAW)
        assert bundle.delta == pytest.approx(0.4)

    @pytest.mark.parametrize("kw,fragment", [
        (dict(kind="mesh"), "kind"),
        (dict(lam=0.0), "lambda"),
        (dict(lam=-1.0), "lambda"),
        (dict(alpha=2.0), "alpha must exceed 2"),
        (dict(alpha=1.5), "alpha must exceed 2"),
        (dict(threshold=0.0), "tau"),
        (dict(noise=-0.1), "noise"),
        (dict(r0=1.0), "no dipole distance"),
    ])
    def test_bad_scenario(self, kw, fragment):
        with pytest.raises(ValidationError, match=fragment):
            validate(_scenario(**kw), SIGNAL, GAMMA_LAW)

    def test_adhoc_needs_r0(self):
        with pytest.raises(ValidationError, match="dipole distance"):
            validate(_scenario(kind=ADHOC, r0=None), SIGNAL, GAMMA_LAW)
        with pytest.raises(ValidationError, match="dipole distance"):
            validate(_scenario(kind=ADHOC, r0=-2.0), SIGNAL, GAMMA_LAW)

    @pytest.mark.parametrize("signal,fragment", [
        (SignalGainSpec(shape=0), "antenna count"),
        (SignalGainSpec(shape=1.0), "antenna count"),
        (SignalGainSpec(shape=2, scale=0.0), "theta"),
    ])
    def test_bad_signal(self, signal, fragment):
        with pytest.raises(ValidationError, match=fragment):
            validate(_scenario(), signal, GAMMA_LAW)

    @pytest.mark.parametrize("law,fragment", [
        (InterfererGainSpec(kappa=0.0, beta=1.0), "kappa"),
        (InterfererGainSpec(kappa=1.0, beta=-1.0), "beta"),
        (InterfererGainSpec(), "kappa and beta"),
        (InterfererGainSpec(kappa=1.0, beta=1.0, pdf=lambda g: math.exp(-g)), "not both"),
    ])
    def test_bad_interferer(self, law, fragment):
        with pytest.raises(ValidationError, match=fragment):
            validate(_scenario(), SIGNAL, law)

    def test_general_law_accepted(self):
        law = InterfererGainSpec(pdf=lambda g: math.exp(-g))
        bundle = validate(_scenario(), SIGNAL, law)
        assert not bundle.interferer.is_gamma
        # light tails whose mass lies far out: their block ratios climb above
        # one for a while but never settle there, so they are not divergent
        for pdf in (lambda g: math.exp(-g / 50.0) / 50.0,
                    lambda g: math.exp(-g / 100.0) / 100.0,
                    lambda g: math.exp(99.0 * math.log(g) - g - math.lgamma(100.0))):
            validate(_scenario(), SIGNAL, InterfererGainSpec(pdf=pdf))

    def test_general_law_must_normalize(self):
        law = InterfererGainSpec(pdf=lambda g: 2.0 * math.exp(-g))
        with pytest.raises(ValidationError, match="integrate to 1"):
            validate(_scenario(), SIGNAL, law)

    def test_divergent_delta_moment_rejected(self):
        # pdf 0.25 (1+g)^{-1.25} is normalized but E[g^{1/2}] diverges
        law = InterfererGainSpec(pdf=lambda g: 0.25 * (1.0 + g) ** -1.25)
        with pytest.raises(ValidationError, match="delta-moment"):
            validate(_scenario(alpha=4.0), SIGNAL, law)

    def test_divergent_moment_skipped_with_override(self):
        # a supplied delta_moment bypasses the quadrature probe entirely
        law = InterfererGainSpec(pdf=lambda g: 0.25 * (1.0 + g) ** -1.25,
                                 delta_moment=lambda d: 1.0)
        bundle = validate(_scenario(alpha=4.0), SIGNAL, law)
        assert bundle.interferer.delta_moment(0.5) == 1.0


class TestGeneralSignalPdf:
    def test_gamma_term_weights(self):
        m, theta = 3, 0.8
        pdf = GeneralSignalPdf(terms=((0, m - 1, 1.0 / theta, 1.0 / (theta**m * math.gamma(m))),))
        ((order, scale, weight),) = pdf.weights()
        assert order == m
        assert scale == pytest.approx(theta)
        assert weight == pytest.approx(1.0, rel=1e-12)

    def test_mixture_weights_sum_to_one(self):
        pdf = GeneralSignalPdf(terms=((0, 0, 2.0, 0.8), (1, 0, 0.5, 0.3)))
        total = sum(w for _, _, w in pdf.weights())
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_normalization_enforced(self):
        with pytest.raises(ValidationError, match="integrate to 1"):
            GeneralSignalPdf(terms=((0, 0, 1.0, 1.5),))

    def test_term_validation(self):
        with pytest.raises(ValidationError):
            GeneralSignalPdf(terms=())
        with pytest.raises(ValidationError, match="non-negative integer"):
            GeneralSignalPdf(terms=((0, -1, 1.0, 1.0),))
        with pytest.raises(ValidationError, match="phi"):
            GeneralSignalPdf(terms=((0, 0, 0.0, 1.0),))


class TestCoverageEstimate:
    def test_range_enforced(self):
        with pytest.raises(CoverageRangeError):
            CoverageEstimate(value=1.0000001, method=METHOD_RECURSION)
        with pytest.raises(CoverageRangeError):
            CoverageEstimate(value=-0.1, method=METHOD_RECURSION)

    def test_interval_only_for_simulation(self):
        with pytest.raises(ValidationError):
            CoverageEstimate(value=0.5, method=METHOD_RECURSION, ci_halfwidth=0.01)
        est = CoverageEstimate(value=0.5, method=METHOD_MC, ci_halfwidth=0.01, trials=1000)
        assert est.trials == 1000

    def test_unknown_method(self):
        with pytest.raises(ValidationError):
            CoverageEstimate(value=0.5, method="guesswork")


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
