"""Outage probability of multi-hop MIMO decode-and-forward relay chains.

The library draws complex Gaussian channels, bounds the per-hop
log-determinant through eigenvalue pairing, approximates the per-hop
mutual information as Gaussian, and folds per-hop outage probabilities
into the chain outage — with a Monte Carlo path alongside for
verification.  The ``relay-outage`` command drives scenario files; see
:mod:`relay_outage.cli`.
"""
from .mutual_info import HopConfig
from .outage import DuplexMode, NetworkConfig, analytical_outage, montecarlo_outage
from .rng import substream
from .scenario import Scenario, ScenarioError, load_preset, parse_scenario, preset_names

__version__ = "0.2.0"

__all__ = [
    "DuplexMode",
    "HopConfig",
    "NetworkConfig",
    "Scenario",
    "ScenarioError",
    "__version__",
    "analytical_outage",
    "load_preset",
    "montecarlo_outage",
    "parse_scenario",
    "preset_names",
    "substream",
]
