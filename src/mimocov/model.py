"""Scenario, gain-law, and estimate types shared by every evaluation path.

The analytic engine, the insight helpers, and the Monte Carlo simulator all
consume the same validated ``ScenarioBundle``, so parameter checking lives
here and nowhere else.  Bundles are plain frozen dataclasses; they can be
built directly, from a key = value configuration file, or from CLI flags
(flags override file values).
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import CoverageRangeError, NumericalError, ValidationError

CELLULAR = "cellular"
ADHOC = "adhoc"

METHOD_RECURSION = "finite-sum"
METHOD_MC = "monte-carlo"

_NORMALIZATION_TOL = 1e-9


def _integer(value) -> Optional[int]:
    """``value`` as a plain int if it is a Python or numpy integer, but not
    a bool; otherwise None.  Antenna counts, series orders, trial counts and
    seeds all pass through here."""
    if isinstance(value, (bool, np.bool_)):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def _real(value, what: str) -> float:
    """``value`` as a float if it is a Python or numpy real number other
    than a bool (an integer past the double range gives +-inf); otherwise a
    ValidationError naming ``what``.  Every real parameter of a scenario,
    a Gamma law, a signal pdf term and a simulation window, and the density
    a density profile is evaluated at, passes through here."""
    if isinstance(value, float):
        return float(value)
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            return math.inf if value > 0 else -math.inf
    raise ValidationError(f"{what} must be a real number, got {value!r}")


def _positive_integer(value, what: str) -> int:
    """``value`` as a plain int if it is a positive integer (see
    ``_integer``); otherwise a ValidationError naming ``what``."""
    count = _integer(value)
    if count is None or count < 1:
        raise ValidationError(f"{what} must be a positive integer")
    return count


def _gamma_ratio(kappa: float, delta: float) -> float:
    """Gamma(q)/Gamma(kappa), q = kappa+delta, 0 < delta < 1.  Below q = 20 a
    quotient of math.gamma values (within 6e-15), with Gamma(kappa) = 1/kappa
    below 1e-300, where that is exact in double precision and math.gamma
    overflows soon after; above q = 20, q^delta times the exponential of the
    difference of Stirling's series for log Gamma (DLMF 5.11.1) to z^-7,
    paired so that nothing cancels (within 8e-16 up to kappa = 1e200).  An
    lgamma difference cancels: 7e-13 off at kappa = 1e3, 72% at 1e15."""
    q = kappa + delta
    if q < 20.0:
        return math.gamma(q) / math.gamma(kappa) if kappa > 1e-300 else math.gamma(q) * kappa
    stirling = sum(c * (q**-k - kappa**-k)
                   for c, k in ((1 / 12, 1), (-1 / 360, 3), (1 / 1260, 5), (-1 / 1680, 7)))
    return q**delta * math.exp((kappa - 0.5) * math.log1p(delta / kappa) - delta + stirling)


def _integral_on_half_line(f, context: str):
    """Adaptive quadrature of f over (0, inf) by geometric blocks.

    f may return a scalar or a 1-D array, and every component is judged
    converged relative to its own size.  Vector integrands take two passes
    of ``quad_vec``; the second rescales each component by its first-pass
    magnitude, so components decades below the largest one are not left
    at the absolute error floor.
    """
    from scipy import integrate  # imported on first use: only general laws integrate

    if np.ndim(f(1.0)) == 0:
        def quad(lo, hi, epsabs):
            out = integrate.quad(f, lo, hi, epsabs=epsabs, epsrel=1e-11, limit=200,
                                 full_output=1)
            if len(out) > 3:  # a failure message follows the info dict
                raise NumericalError(f"{context}: {out[3]}")
            return np.array([out[0]])

        return float(_sum_blocks(quad, context)[0])

    def rescaled_quad(scale):
        def quad(lo, hi, epsabs):
            val, _, info = integrate.quad_vec(lambda g: f(g) * scale, lo, hi, epsabs=epsabs,
                                              epsrel=1e-11, norm="max", limit=200,
                                              full_output=True)
            if not info.success:
                raise NumericalError(f"{context}: {info.message}")
            return val

        return quad

    size = np.abs(_sum_blocks(rescaled_quad(1.0), context))
    scale = 1.0 / np.where(size > 1e-300, size, 1.0)  # components below are zero in effect
    return _sum_blocks(rescaled_quad(scale), context) / scale


def _sum_blocks(quad, context: str) -> np.ndarray:
    """Sum quad over (0, 1) and the blocks (4^k, 4^(k+1)), per component.

    A component is done once a block stops mattering to it, or once its
    block ratio settles below one and the geometric remainder gives the
    same total twice.  Blocks count only from the first one that leaves
    some component nonzero, since mass may start far out; components still
    at zero then finish with the rest, and if every block is zero the zero
    total is returned after the last one.  A divergent tail g^-p has the
    constant block ratio 4^(1-p) >= 1, so three settled ratios at or above
    one raise ValidationError; a ratio still moving is a light tail with
    mass far out.
    """
    total = quad(0.0, 1.0, 1e-12)
    lo = 1.0
    prev_block = prev_ratio = prev_estimate = np.full(total.shape, np.nan)
    rising = np.zeros(total.shape, dtype=int)
    seen = False
    for _ in range(120):
        hi = 4.0 * lo
        block = quad(lo, hi, 1e-13)
        total = total + block
        if not np.all(np.isfinite(total)):
            raise ValidationError(f"{context}: integral is not finite")
        seen = seen or bool(np.any(total != 0.0))
        if not seen:
            lo = hi
            continue
        small = np.abs(block) <= 1e-14 * np.maximum(np.abs(total), 1e-300)
        if np.all(small):
            return total
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # nan wherever the previous block was zero or absent: no verdict;
            # a fast-growing tail may overflow the estimate it then discards
            ratio = np.where(prev_block != 0.0, np.abs(block) / np.abs(prev_block), np.nan)
            settled = np.abs(ratio - prev_ratio) <= 0.05 * prev_ratio
            rising = np.where((ratio >= 0.999) & settled, rising + 1, 0)
            if np.any(rising >= 3):
                raise ValidationError(
                    f"{context}: integral appears divergent (tail blocks do not decay)"
                )
            estimate = np.where(ratio <= 0.98, total + block * ratio / (1.0 - ratio), np.nan)
            still = np.abs(estimate - prev_estimate) <= 1e-12 * np.maximum(np.abs(estimate), 1e-300)
        if np.all(small | still):
            return np.where(small, total, estimate)
        prev_estimate = np.where(np.isnan(estimate), prev_estimate, estimate)
        prev_block, prev_ratio = block, ratio
        lo = hi
    if not seen:
        return total
    raise ValidationError(f"{context}: could not establish convergence of the tail integral")


@dataclass(frozen=True)
class SignalGainSpec:
    """Gamma(shape, scale) law for the serving-link power gain.

    ``shape`` is the antenna count M of the maximum-ratio combined link;
    the coverage probability is then a sum of the first ``shape`` power
    series coefficients.
    """

    shape: int
    scale: float = 1.0


@dataclass(frozen=True)
class GeneralSignalPdf:
    """Signal gain density of the form sum_k varphi_k u^q_k e^{-phi_k u}.

    ``terms`` holds (q, phi, varphi) tuples.  The class of
    exponential-polynomial mixtures covers gamma mixtures and phase-type
    laws; coverage for such a law is a weighted combination of plain
    gamma-signal coverages, see ``analytic.coverage_general_pdf``.
    """

    terms: tuple

    def __post_init__(self):
        if not self.terms:
            raise ValidationError("general signal pdf needs at least one term")
        clean = []
        for item in self.terms:
            try:
                q, phi, varphi = item
            except (TypeError, ValueError):
                raise ValidationError("each signal pdf term must be (q, phi, varphi)") from None
            q = _real(q, "signal pdf exponent q")
            phi = _real(phi, "signal pdf decay rate phi")
            varphi = _real(varphi, "signal pdf coefficient varphi")
            if not (math.isfinite(q) and q >= 0.0 and q == int(q)):
                raise ValidationError("signal pdf exponent q must be a non-negative integer")
            if not (phi > 0.0 and math.isfinite(phi)):
                raise ValidationError("signal pdf decay rate phi must be positive and finite")
            if not math.isfinite(varphi):
                raise ValidationError("signal pdf coefficient varphi must be finite")
            clean.append((int(q), phi, varphi))
        object.__setattr__(self, "terms", tuple(clean))
        mass = sum(w for _, _, w in self.weights())
        if not abs(mass - 1.0) <= _NORMALIZATION_TOL:
            raise ValidationError(
                f"signal pdf must integrate to 1 within {_NORMALIZATION_TOL:g}, got {mass!r}"
            )

    def pdf(self, u: float) -> float:
        """Density at u >= 0.  Each term is varphi exp(q ln u - phi u), so u^q
        cannot overflow where e^(-phi u) brings the product back into range."""
        log_u = math.log(u) if u > 0.0 else -math.inf
        return sum(varphi * math.exp((q * log_u if q else 0.0) - phi * u)
                   for q, phi, varphi in self.terms)

    def weights(self):
        """(order, scale, weight) per term: the term contributes ``weight``
        times the coverage of a Gamma(order, scale) signal law.  The weight
        is the term's mass, varphi q! / phi^(q+1), so the weights sum to the
        mass of the pdf."""
        out = []
        for q, phi, varphi in self.terms:
            log_mass = math.lgamma(q + 1) - (q + 1) * math.log(phi)
            # past e^709, q! / phi^(q+1) overflows; no normal varphi brings it back to 1
            if log_mass < 709.0:
                w = varphi * math.exp(log_mass)
            else:
                w = math.copysign(math.inf, varphi)
            out.append((q + 1, 1.0 / phi, w))
        return out


@dataclass(frozen=True)
class InterfererGainSpec:
    """Interferer power-gain law.

    Either a Gamma(kappa, beta) law, which unlocks the closed-form entry
    path, or a general law given by its ``pdf`` on (0, inf).  Everything
    analytic about a general law comes from the pdf by adaptive quadrature:
    ``validate`` checks its mass and caches E[g^delta], the cellular
    entries integrate incomplete gamma functions against it (see
    ``analytic.cellular_entries_general``), and the decay rate integrates a
    confluent hypergeometric section.  ``sampler(rng, size)`` draws the
    gains, and only Monte Carlo runs need it; on the default window they
    also integrate E[g] and E[g^2] from the pdf, and refuse a law whose
    E[g^2] is infinite.
    """

    kappa: Optional[float] = None
    beta: Optional[float] = None
    pdf: Optional[Callable[[float], float]] = None
    sampler: Optional[Callable[[np.random.Generator, int], np.ndarray]] = None

    @property
    def is_gamma(self) -> bool:
        return self.pdf is None and self.sampler is None


@dataclass(frozen=True)
class NetworkScenario:
    """Geometry and threshold of one coverage question.

    ``kind`` is "cellular" (receiver served by its nearest transmitter of a
    Poisson field) or "adhoc" (receiver at fixed distance r0 from its
    transmitter, the whole field interfering).  ``threshold`` is the linear
    SIR/SINR threshold.
    """

    kind: str
    lam: float
    alpha: float
    threshold: float
    r0: Optional[float] = None
    noise: float = 0.0


@dataclass(frozen=True)
class ScenarioBundle:
    scenario: NetworkScenario
    signal: SignalGainSpec
    interferer: InterfererGainSpec
    delta: float  # 2 / alpha, cached by validate()
    delta_moment: float  # E[g^delta] of the interferer gain, cached by validate()


@dataclass(frozen=True)
class CoverageEstimate:
    value: float
    method: str
    ci_halfwidth: float = 0.0
    trials: int = 0

    def __post_init__(self):
        if self.method not in (METHOD_RECURSION, METHOD_MC):
            raise ValidationError(f"unknown estimate method {self.method!r}")
        if not (0.0 <= self.value <= 1.0):
            raise CoverageRangeError(
                f"coverage value {self.value!r} is outside [0, 1]; refusing to clamp"
            )
        if self.method != METHOD_MC and (self.ci_halfwidth != 0.0 or self.trials != 0):
            raise ValidationError("confidence intervals apply to Monte Carlo estimates only")
        if not (0.0 <= self.ci_halfwidth < math.inf):  # false for nan too
            raise ValidationError("ci_halfwidth must be finite and non-negative")


def validate(scenario: NetworkScenario, signal: SignalGainSpec,
             interferer: InterfererGainSpec) -> ScenarioBundle:
    """Check every scenario invariant and return the bundle with delta and
    the interferer's E[g^delta] cached.

    Each violated invariant raises a ValidationError naming the offending
    parameter, so CLI users see exactly what to fix.
    """
    if scenario.kind not in (CELLULAR, ADHOC):
        raise ValidationError(f"kind must be '{CELLULAR}' or '{ADHOC}', got {scenario.kind!r}")
    lam = _real(scenario.lam, "transmitter density lambda")
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValidationError("transmitter density lambda must be positive")
    alpha = _real(scenario.alpha, "alpha")
    if not (alpha > 2.0 and math.isfinite(alpha)):
        raise ValidationError("alpha must exceed 2")
    threshold = _real(scenario.threshold, "threshold tau")
    if not (threshold > 0.0 and math.isfinite(threshold)):
        raise ValidationError("threshold tau must be positive")
    noise = _real(scenario.noise, "noise power")
    if not (noise >= 0.0 and math.isfinite(noise)):
        raise ValidationError("noise power must be non-negative")
    if scenario.kind == CELLULAR:
        if scenario.r0 is not None:
            raise ValidationError("cellular scenarios take no dipole distance r0 "
                                  "(the serving distance is random)")
    else:
        r0 = None if scenario.r0 is None else _real(scenario.r0, "dipole distance r0")
        if r0 is None or not (r0 > 0.0 and math.isfinite(r0)):
            raise ValidationError("ad hoc scenarios require a positive dipole distance r0")

    m = _positive_integer(signal.shape, "antenna count M")
    if type(signal.shape) is not int:
        signal = replace(signal, shape=m)
    scale = _real(signal.scale, "signal gain scale theta")
    if not (scale > 0.0 and math.isfinite(scale)):
        raise ValidationError("signal gain scale theta must be positive")

    delta = 2.0 / scenario.alpha

    if interferer.is_gamma:
        if interferer.kappa is None or interferer.beta is None:
            raise ValidationError("gamma interferer law requires both kappa and beta")
        kappa = _real(interferer.kappa, "interferer gamma shape kappa")
        if not (kappa > 0.0 and math.isfinite(kappa)):
            raise ValidationError("interferer gamma shape kappa must be positive")
        beta = _real(interferer.beta, "interferer gamma scale beta")
        if not (beta > 0.0 and math.isfinite(beta)):
            raise ValidationError("interferer gamma scale beta must be positive")
        moment = interferer.beta**delta * _gamma_ratio(interferer.kappa, delta)
    else:
        if interferer.kappa is not None or interferer.beta is not None:
            raise ValidationError("specify either a gamma interferer law or a general law, not both")
        if not callable(interferer.pdf):
            raise ValidationError("general interferer law requires a callable pdf")
        mass = _integral_on_half_line(interferer.pdf, "interferer pdf normalization")
        if abs(mass - 1.0) > _NORMALIZATION_TOL:
            raise ValidationError(
                f"interferer pdf must integrate to 1 within {_NORMALIZATION_TOL:g}, got {mass!r}"
            )
        # The 2/alpha-th moment must exist for the interference to be almost
        # surely finite; a divergent tail raises here.
        moment = _integral_on_half_line(lambda g: g**delta * interferer.pdf(g),
                                        "interferer delta-moment")
    if not (moment > 0.0 and math.isfinite(moment)):
        raise ValidationError(f"interferer delta-moment E[g^delta] must be positive and finite, "
                              f"got {moment!r}")

    return ScenarioBundle(scenario=scenario, signal=signal, interferer=interferer, delta=delta,
                          delta_moment=moment)


# ---------------------------------------------------------------------------
# configuration files

_CONFIG_KEYS = ("kind", "lambda", "alpha", "r0", "noise", "tau", "tau_db",
                "m", "theta", "kappa", "beta")


def parse_config(text: str) -> dict:
    """Parse key = value lines; '#' starts a comment, blank lines are ignored."""
    params = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ValidationError(f"config line {lineno}: unknown key {key!r}")
        if not value:
            raise ValidationError(f"config line {lineno}: empty value for {key!r}")
        params[key] = value
    return params


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"config file {path!r} is not UTF-8 text: {exc}") from None
    return parse_config(text)


def _as_float(params: dict, key: str, default: Optional[float]) -> Optional[float]:
    if key not in params or params[key] is None:
        return default
    try:
        return float(params[key])
    except (TypeError, ValueError):
        raise ValidationError(f"parameter {key!r} must be a number, got {params[key]!r}") from None


def resolve_threshold(params: dict) -> float:
    """Linear threshold from 'tau' (preferred) or the 'tau_db' convenience key."""
    if params.get("tau") is not None:
        return _as_float(params, "tau", 1.0)
    if params.get("tau_db") is not None:
        tau_db = _as_float(params, "tau_db", 0.0)
        try:
            tau = 10.0 ** (tau_db / 10.0)
        except OverflowError:
            tau = math.inf
        if not 0.0 < tau < math.inf:
            # 10^(x/10) is a positive finite double for x in about [-3233, 3082]
            raise ValidationError(
                "tau_db must lie within about -3233 to 3082 dB, where the linear "
                f"threshold is positive and finite; got {tau_db!r}"
            )
        return tau
    return 1.0


def bundle_from_params(params: dict) -> ScenarioBundle:
    """Build and validate a bundle from a flat parameter mapping.

    Values may be strings (from a config file) or numbers (from CLI flags).
    Required: kind and alpha.  Defaults: lambda 1e-3, tau 1 (0 dB), M 1,
    theta 1, kappa 1, beta 1, noise 0.
    """
    unknown = set(params) - set(_CONFIG_KEYS)
    if unknown:
        raise ValidationError(f"unknown parameters: {sorted(unknown)}")
    kind = params.get("kind")
    if kind is None:
        raise ValidationError("kind is required (cellular or adhoc)")
    if "alpha" not in params or params["alpha"] is None:
        raise ValidationError("alpha is required")

    m_raw = params.get("m", 1)
    try:
        m = int(str(m_raw))
    except ValueError:
        raise ValidationError(f"antenna count m must be an integer, got {m_raw!r}") from None

    scenario = NetworkScenario(
        kind=str(kind).strip().lower(),
        lam=_as_float(params, "lambda", 1e-3),
        alpha=_as_float(params, "alpha", None),
        threshold=resolve_threshold(params),
        r0=_as_float(params, "r0", None),
        noise=_as_float(params, "noise", 0.0),
    )
    signal = SignalGainSpec(shape=m, scale=_as_float(params, "theta", 1.0))
    interferer = InterfererGainSpec(
        kappa=_as_float(params, "kappa", 1.0),
        beta=_as_float(params, "beta", 1.0),
    )
    return validate(scenario, signal, interferer)
