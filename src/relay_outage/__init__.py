"""Outage probability of multi-hop MIMO decode-and-forward relay chains.

The library draws complex Gaussian channels, bounds the per-hop
log-determinant through eigenvalue pairing, approximates the per-hop
mutual information as Gaussian, and folds per-hop outage probabilities
into the chain outage — with a Monte Carlo path alongside for
verification.  The ``relay-outage`` command drives scenario files; see
:mod:`relay_outage.cli`.
"""
from .mutual_info import (
    DuplexMode,
    HopConfig,
    HopMoments,
    PairedLogdetSamples,
    estimate_hop_moments,
    fiedler_bounds,
    hop_mi_samples,
    mi_fd_approx,
    mi_fd_exact,
    mi_hd_exact,
    midpoint_logdet,
    sample_logdet_pairs,
)
from .outage import (
    ANALYTICAL,
    MONTECARLO,
    NetworkConfig,
    OutageCurve,
    build_outage_curve,
    hop_outage,
    network_outage_analytical,
    network_outage_montecarlo,
    q_function,
    sample_min_mutual_info,
)
from .randmat import (
    WishartParams,
    descending_spectra,
    hermitian_spectrum,
    receive_gram,
    sample_channel,
    sample_channels,
    wishart_from_channel,
)
from .rng import (
    STREAM_DISTRIBUTION,
    STREAM_HOP_MOMENTS,
    STREAM_NETWORK_MC,
    STREAM_VALIDATION,
    substream,
)
from .scenario import (
    Scenario,
    ScenarioError,
    load_preset,
    parse_scenario,
    parse_scenario_text,
    preset_names,
)
from .validation import CheckResult, ValidationReport, run_validation
from .wishart_stats import (
    expected_logdet,
    integration_cutoff,
    laguerre,
    logdet_from_spectrum,
    marginal_eigen_density,
)

__version__ = "0.2.0"

__all__ = [
    "ANALYTICAL",
    "MONTECARLO",
    "CheckResult",
    "DuplexMode",
    "HopConfig",
    "HopMoments",
    "NetworkConfig",
    "OutageCurve",
    "PairedLogdetSamples",
    "STREAM_DISTRIBUTION",
    "STREAM_HOP_MOMENTS",
    "STREAM_NETWORK_MC",
    "STREAM_VALIDATION",
    "Scenario",
    "ScenarioError",
    "ValidationReport",
    "WishartParams",
    "__version__",
    "build_outage_curve",
    "descending_spectra",
    "estimate_hop_moments",
    "expected_logdet",
    "fiedler_bounds",
    "hermitian_spectrum",
    "hop_mi_samples",
    "hop_outage",
    "integration_cutoff",
    "laguerre",
    "load_preset",
    "logdet_from_spectrum",
    "marginal_eigen_density",
    "mi_fd_approx",
    "mi_fd_exact",
    "mi_hd_exact",
    "midpoint_logdet",
    "network_outage_analytical",
    "network_outage_montecarlo",
    "parse_scenario",
    "parse_scenario_text",
    "preset_names",
    "q_function",
    "receive_gram",
    "run_validation",
    "sample_channel",
    "sample_channels",
    "sample_logdet_pairs",
    "sample_min_mutual_info",
    "substream",
    "wishart_from_channel",
]
