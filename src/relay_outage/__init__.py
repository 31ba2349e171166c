"""Outage probability of multi-hop MIMO decode-and-forward relay chains.

The library draws the Wishart Gram forms of complex Gaussian channels,
bounds the per-hop log-determinant through eigenvalue pairing,
approximates the per-hop mutual information as Gaussian, and folds
per-hop outage probabilities into the chain outage — with a Monte Carlo
path alongside for verification.  The ``relay-outage`` command drives scenario files; see
:mod:`relay_outage.cli`.

The public names below are bound on first use (PEP 562), so that
``import relay_outage`` loads no numpy: the CLI must choose numpy's BLAS
thread count before numpy loads, and ``python -m relay_outage.cli`` runs
this module first.
"""
import importlib

__version__ = "0.13.0"

# Each public name and the submodule that defines it.
_EXPORTS = {
    "HopConfig": "mutual_info",
    "DuplexMode": "outage",
    "NetworkConfig": "outage",
    "chain_moments": "outage",
    "gaussian_chain_outage": "outage",
    "montecarlo_outage": "outage",
    "substream": "rng",
    "Scenario": "scenario",
    "ScenarioError": "scenario",
    "load_preset": "scenario",
    "parse_scenario": "scenario",
    "preset_names": "scenario",
}
__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
