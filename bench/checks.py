"""Output checks.  Each returns None when the output passes, or a short
message naming what is wrong.

The oracles here share no code with the library's evaluation paths: a
triangular Toeplitz solve (cellular) or a matrix exponential (ad hoc) of the
entries the library returns, closed forms where they exist, the incomplete
beta form of the cellular entries, an independent root of the decay-rate
equation, and a z-test of Monte Carlo estimates against the analytic value.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
from scipy import linalg, optimize, special

from mimocov import analytic, insights, model, montecarlo

REL_TOL = 1e-12          # the acceptance suite's route-equivalence tolerance
ENTRY_LOG_TOL = 1e-10    # incomplete-beta identity, in log|entry|
ENTRY_SAMPLE = 8         # entries checked per bundle
DECAY_REL_TOL = 1e-9
DERIVATIVE_REL_TOL = 1e-6
Z_LIMIT = 4.0            # the `validate` subcommand's limit

POINT_HEADER = ["kind", "tau_db", "lambda", "alpha", "r0", "noise", "M",
                "theta", "kappa", "beta", "method", "p_c", "ci_halfwidth",
                "trials", "seed"]
INSIGHT_HEADER = ["quantity", "value"]


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _probability(value) -> str | None:
    if not isinstance(value, float) or not math.isfinite(value):
        return f"value {value!r} is not a finite float"
    if not 0.0 <= value <= 1.0:
        return f"value {value!r} is outside [0, 1]"
    return None


def _toeplitz(first_column: np.ndarray) -> np.ndarray:
    row = np.zeros_like(first_column)
    row[0] = first_column[0]
    return linalg.toeplitz(first_column, row)


def cellular_head(entries: np.ndarray) -> np.ndarray:
    """Coefficients of 1 / C(z) by a triangular solve."""
    e0 = np.zeros(entries.size)
    e0[0] = 1.0
    return linalg.solve_triangular(_toeplitz(entries), e0, lower=True)


def adhoc_head(entries: np.ndarray) -> np.ndarray:
    """Coefficients of exp(A(z)) by a matrix exponential.

    The diagonal stays in the matrix: factoring e^{a_0} out leaves a
    nilpotent part whose exponential scipy computes about 1e-12 off at
    M ~ 400, while the full matrix stays within a few ulps."""
    return linalg.expm(_toeplitz(entries))[:, 0]


def oracle_head(bundle, order: int) -> np.ndarray:
    """The first `order` coefficients whose sum is the coverage."""
    if bundle.scenario.kind == model.CELLULAR:
        return cellular_head(analytic.cellular_entries(bundle, order).values)
    return adhoc_head(analytic.adhoc_entries(bundle, order).values)


def own_mu(bundle) -> float:
    sc, law, delta = bundle.scenario, bundle.interferer, 2.0 / bundle.scenario.alpha
    moment = law.beta**delta * special.gamma(delta + law.kappa) / special.gamma(law.kappa)
    return (math.pi * sc.lam * sc.r0**2 * special.gamma(1.0 - delta)
            * (sc.threshold / bundle.signal.scale) ** delta * moment)


def closed_form(bundle) -> float | None:
    """Single-antenna closed forms, where they exist."""
    sc, law = bundle.scenario, bundle.interferer
    if bundle.signal.shape != 1:
        return None
    if (sc.kind == model.CELLULAR and sc.alpha == 4.0 and law.kappa == 1.0
            and law.beta == 1.0 and bundle.signal.scale == 1.0):
        root = math.sqrt(sc.threshold)
        return 1.0 / (1.0 + root * math.atan(root))
    if sc.kind == model.ADHOC and sc.noise == 0.0:
        return math.exp(-own_mu(bundle))
    return None


def entry_identity_gaps(bundle, entries: np.ndarray, sample: int = ENTRY_SAMPLE) -> list:
    """(n, |log gap|) for sampled cellular entries n >= 1, against

    2F1(n+k, n-d; n+1-d; -x) = (1+x)^-b b w^-b B(b, k+d) I_w(b, k+d),
    b = n - d, w = x / (1 + x),

    skipping entries where I_w underflows."""
    kappa, delta = bundle.interferer.kappa, 2.0 / bundle.scenario.alpha
    x = bundle.scenario.threshold * bundle.interferer.beta / bundle.signal.scale
    w = x / (1.0 + x)
    ns = np.unique(np.linspace(1, entries.size - 1, min(sample, entries.size - 1)).astype(int))
    gaps = []
    for n in ns:
        b = n - delta
        inc = special.betainc(b, kappa + delta, w)
        if not inc > 1e-290:
            continue
        log_f = (-b * math.log1p(x) + math.log(b) - b * math.log(w)
                 + special.betaln(b, kappa + delta) + math.log(inc))
        log_entry = (math.log(delta / b) + special.gammaln(kappa + n) - special.gammaln(kappa)
                     - special.gammaln(n + 1.0) + n * math.log(x) + log_f)
        if log_entry < math.log(1e-290):
            continue
        got = -entries[n]
        gaps.append((int(n), abs(math.log(got) - log_entry) if got > 0.0 else math.inf))
    return gaps


def own_decay_rate(bundle) -> float | None:
    """Root of 2F1(kappa, -delta; 1 - delta; w) on (0, 1), mapped to the rate."""
    sc, law = bundle.scenario, bundle.interferer
    delta = 2.0 / sc.alpha

    def f(w):
        return special.hyp2f1(law.kappa, -delta, 1.0 - delta, w)

    hi = 1.0 - 2.0**-11
    if f(hi) > 0.0:
        return None
    w_star = optimize.brentq(f, 0.0, hi, xtol=1e-16, rtol=1e-15)
    return 1.0 + w_star * bundle.signal.scale / (sc.threshold * law.beta)


# ---------------------------------------------------------------------------
# per op kind

def check_coverage(op, value) -> str | None:
    problem = _probability(value)
    if problem:
        return problem
    exact = closed_form(op.bundle)
    if exact is not None and _rel_gap(value, exact) > REL_TOL:
        return f"closed form {exact!r} differs by {_rel_gap(value, exact):.2e} relative"
    m = op.bundle.signal.shape
    if op.bundle.scenario.kind == model.CELLULAR:
        entries = analytic.cellular_entries(op.bundle, m).values
        head = cellular_head(entries)
        bad = [(n, gap) for n, gap in entry_identity_gaps(op.bundle, entries) if gap > ENTRY_LOG_TOL]
        if bad:
            return f"cellular entries off the incomplete-beta identity at (n, log gap) {bad[:3]}"
    else:
        head = adhoc_head(analytic.adhoc_entries(op.bundle, m).values)
    reference = float(np.sum(head))
    if _rel_gap(value, reference) > REL_TOL:
        return f"matrix oracle {reference!r} differs by {_rel_gap(value, reference):.2e} relative"
    return None


def check_improvement(op, values) -> str | None:
    values = np.asarray(values, dtype=float)
    if values.shape != (op.args["order"],) or not np.all(np.isfinite(values)):
        return "improvement sequence has the wrong shape or non-finite terms"
    if np.any(values < 0.0):
        return "improvement sequence has negative terms"
    reference = float(np.sum(oracle_head(op.bundle, values.size)))
    total = float(np.sum(values))
    if _rel_gap(total, reference) > REL_TOL:
        return f"improvements sum to {total!r}, oracle {reference!r}"
    return None


def check_decay_rate(op, rate) -> str | None:
    if not (isinstance(rate, float) and math.isfinite(rate) and rate > 1.0):
        return f"decay rate {rate!r} is not a finite number above 1"
    reference = own_decay_rate(op.bundle)
    if reference is None:
        return "no root of the decay-rate equation below 1 - 2^-11, yet a rate was returned"
    if _rel_gap(rate, reference) > DECAY_REL_TOL:
        return f"decay rate {rate!r} differs from the independent root {reference!r}"
    return None


def check_density(op, output) -> str | None:
    head, betas, values, derivs = output
    grid = op.args["grid"]
    if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values):
        return "density profile gives values outside [0, 1]"
    if any(later > earlier for earlier, later in zip(values, values[1:])):
        return "density profile is not nonincreasing on the grid"
    if not all(math.isfinite(d) and d <= 0.0 for d in derivs):
        return "density derivative is not finite and nonpositive"
    lam = op.bundle.scenario.lam
    m = op.bundle.signal.shape
    poly = float(np.polynomial.polynomial.polyval(lam, betas))
    reference = float(np.sum(oracle_head(op.bundle, m)))
    at_lam = math.exp(head * lam) * poly
    if _rel_gap(at_lam, reference) > REL_TOL:
        return f"profile at the scenario density {at_lam!r}, oracle {reference!r}"
    mid = len(grid) // 2
    g = grid[mid]
    h = 1e-6 * g
    profile = insights.DensityProfile(head=head, betas=np.asarray(betas))
    fd = (profile.coverage_at(g + h) - profile.coverage_at(g - h)) / (2.0 * h)
    if fd != 0.0 and _rel_gap(derivs[mid], fd) > DERIVATIVE_REL_TOL:
        return f"derivative {derivs[mid]!r} off the finite difference {fd!r}"
    return None


def check_peak_bound(op, output) -> str | None:
    mu, index_bound, monotone = output
    reference = own_mu(op.bundle)
    if _rel_gap(mu, reference) > REL_TOL:
        return f"mu {mu!r} differs from {reference!r}"
    expected = max(math.ceil(reference * reference / 4.0 - 1.0) + 1, 1)
    if index_bound != expected or monotone != (reference < 2.0):
        return f"peak bound ({index_bound}, {monotone}) differs from ({expected}, {reference < 2.0})"
    return None


def check_simulate(op, output) -> str | None:
    value, halfwidth, trials = output
    problem = _probability(value)
    if problem:
        return problem
    if trials != op.args["config"].trials or not halfwidth > 0.0:
        return f"estimate reports {trials} trials and half-width {halfwidth!r}"
    exact = analytic.coverage(op.bundle).value
    z = (value - exact) / (halfwidth / 1.96)
    if abs(z) > Z_LIMIT:
        return f"simulation z = {z:+.2f} against the analytic {exact!r}"
    return None


def _g12(x: float) -> str:
    return format(float(x), ".12g")


def check_cli(op, output) -> str | None:
    returncode, stdout = output
    if returncode != 0:
        return f"exit code {returncode}"
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows:
        return "no CSV output"
    header, data = rows[0], rows[1:]
    command = op.args["command"]
    expected_header = INSIGHT_HEADER if command == "insights" else POINT_HEADER
    if header != expected_header:
        return f"CSV header {header!r}"
    if command == "insights":
        diag = insights.outage_decay_check(op.bundle, order=op.args["ratios"])
        want = [["decay_rate", _g12(insights.cellular_decay_rate(op.bundle))]]
        want += [[f"improvement_ratio_{n}", _g12(r)] for n, r in enumerate(diag.ratios)]
        return None if data == want else "insight rows differ from the in-process values"
    if command == "sweep":
        params = dict(op.args["params"])
        want = []
        for tau_db in np.linspace(-10.0, 20.0, 31):
            params["tau_db"] = tau_db
            want.append(_g12(analytic.coverage(model.bundle_from_params(params)).value))
    elif "mc" in op.args:
        want = [_g12(montecarlo.simulate(op.bundle, op.args["mc"]).value)]
    else:
        want = [_g12(analytic.coverage(op.bundle).value)]
    got = [dict(zip(header, row)).get("p_c") for row in data]
    if got != want:
        return f"p_c {got[:3]} differs from the in-process {want[:3]}"
    return None


CHECKS = {
    "coverage": check_coverage,
    "improvement": check_improvement,
    "decay_rate": check_decay_rate,
    "density": check_density,
    "peak_bound": check_peak_bound,
    "simulate": check_simulate,
    "cli": check_cli,
}


def check(op, output) -> str | None:
    return CHECKS[op.kind](op, output)
