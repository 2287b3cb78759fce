"""Coverage probability of multi-antenna Poisson wireless networks.

The coverage probability of a maximum-ratio combined link with M antennas
reduces to the head of a single power series built from the interference
geometry; this package evaluates that series exactly (by a coefficient
recursion and a Newton doubling, which the tests check against the
Toeplitz matrix route), simulates the same networks from scratch for
validation, and exposes the structural consequences (density response,
per-antenna decay, where the improvements peak).
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
from .analytic import (
    EntrySequence,
    adhoc_entries,
    adhoc_mu,
    cellular_entries,
    coverage,
    coverage_general_pdf,
)
from .insights import (
    DecayDiagnostics,
    DensityProfile,
    ImprovementSequence,
    PeakBound,
    adhoc_peak_bound,
    cellular_decay_rate,
    density_profile,
    improvement_sequence,
    outage_decay_check,
)
from .montecarlo import SimConfig, auto_window, simulate

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
