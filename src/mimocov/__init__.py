"""Coverage probability of multi-antenna Poisson wireless networks.

The coverage probability of a maximum-ratio combined link with M antennas
reduces to the head of a single power series built from the interference
geometry; this package evaluates that series exactly (by a coefficient
recursion and a Newton doubling, which the tests check against the
Toeplitz matrix route), simulates the same networks from scratch for
validation, and exposes the structural consequences (density response,
per-antenna decay, where the improvements peak).

``import mimocov`` runs ``errors`` and ``model`` only.  The evaluators load
on first use (PEP 562): the first lookup of a public name of ``analytic``,
``insights`` or ``montecarlo`` (``mimocov.coverage``, or ``from mimocov
import simulate``) imports its module, and ``analytic`` brings ``series``
and ``specfun`` with it.  The ``mimocov`` command likewise imports only
what a subcommand runs: ``coverage`` and ``sweep`` load ``analytic``
(an analytic ``sweep --axis antennas`` also ``insights``), ``insights`` loads
``insights`` and ``analytic``, ``validate`` loads ``analytic`` and
``montecarlo``, and ``--method mc`` loads ``montecarlo`` in place of
``analytic``.
"""

from .errors import (
    ConfigurationError,
    CoverageRangeError,
    DomainError,
    MimocovError,
    NumericalError,
    RootNotFoundError,
    UnsupportedConfigError,
    ValidationError,
)
from .model import (
    ADHOC,
    CELLULAR,
    METHOD_MC,
    METHOD_RECURSION,
    CoverageEstimate,
    GeneralSignalPdf,
    InterfererGainSpec,
    NetworkScenario,
    ScenarioBundle,
    SignalGainSpec,
    bundle_from_params,
    load_config,
    parse_config,
    validate,
)
# each public name of the evaluators, by the module that defines it
_LAZY = {
    "EntrySequence": "analytic",
    "adhoc_entries": "analytic",
    "adhoc_mu": "analytic",
    "cellular_entries": "analytic",
    "coverage": "analytic",
    "coverage_general_pdf": "analytic",
    "DecayDiagnostics": "insights",
    "DensityProfile": "insights",
    "ImprovementSequence": "insights",
    "PeakBound": "insights",
    "adhoc_peak_bound": "insights",
    "cellular_decay_rate": "insights",
    "density_profile": "insights",
    "improvement_sequence": "insights",
    "outage_decay_check": "insights",
    "SimConfig": "montecarlo",
    "auto_window": "montecarlo",
    "simulate": "montecarlo",
}


def __getattr__(name: str):
    """A public name of ``analytic``, ``insights`` or ``montecarlo``,
    imported on first use and then bound here."""
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    # ``from .<module> import <name>``: unlike importlib.import_module, the
    # import statement's route is the one ``python -X importtime`` reports
    value = getattr(__import__(module, globals(), fromlist=(name,), level=1), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"

__all__ = [
    "ADHOC",
    "CELLULAR",
    "METHOD_MC",
    "METHOD_RECURSION",
    "ConfigurationError",
    "CoverageEstimate",
    "CoverageRangeError",
    "DecayDiagnostics",
    "DensityProfile",
    "DomainError",
    "EntrySequence",
    "GeneralSignalPdf",
    "ImprovementSequence",
    "InterfererGainSpec",
    "MimocovError",
    "NetworkScenario",
    "NumericalError",
    "PeakBound",
    "RootNotFoundError",
    "ScenarioBundle",
    "SignalGainSpec",
    "SimConfig",
    "UnsupportedConfigError",
    "ValidationError",
    "adhoc_entries",
    "adhoc_mu",
    "adhoc_peak_bound",
    "auto_window",
    "bundle_from_params",
    "cellular_decay_rate",
    "cellular_entries",
    "coverage",
    "coverage_general_pdf",
    "density_profile",
    "improvement_sequence",
    "load_config",
    "outage_decay_check",
    "parse_config",
    "simulate",
    "validate",
]
