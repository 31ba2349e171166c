"""Network outage probability: Gaussian closed form and Monte Carlo oracle.

A multi-hop decode-and-forward chain is in outage when any hop's mutual
information falls below the target rate, so the network outage is
``1 - prod_k (1 - p_k)`` with per-hop outage probabilities ``p_k``.  The
closed form models each hop's mutual information as Gaussian with sampled
moments; the Monte Carlo path recomputes the exact per-hop mutual
information per realization and therefore stands as an independent check
on both the Gaussian assumption and the midpoint approximation.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .mutual_info import (
    EXACT_MI,
    HD_TIME_SHARE,
    DuplexMode,
    HopConfig,
    HopMoments,
    estimate_hop_moments,
    sample_hop_chunk,
)
from .rng import CHUNK_SIZE, run_chunks

MIN_MC_REALIZATIONS = 1000

_SQRT_HALF = math.sqrt(0.5)

ANALYTICAL = "analytical"
MONTECARLO = "montecarlo"


@dataclass(frozen=True)
class NetworkConfig:
    """Ordered hop configurations plus the duplex mode of the whole chain."""

    hops: tuple[HopConfig, ...]
    mode: DuplexMode

    def __post_init__(self) -> None:
        if len(self.hops) < 1:
            raise ValueError("a network needs at least one hop")
        for k, hop in enumerate(self.hops[:-1]):
            nxt = self.hops[k + 1]
            if (
                hop.has_rsi
                and hop.rsi_tx_antennas is not None
                and hop.rsi_tx_antennas != nxt.tx_antennas
            ):
                raise ValueError(
                    f"hop {k + 1}: rsi_tx_antennas={hop.rsi_tx_antennas} does "
                    f"not match hop {k + 2} tx_antennas={nxt.tx_antennas}"
                )
        if self.mode is DuplexMode.HALF_DUPLEX and any(
            hop.has_rsi for hop in self.hops
        ):
            raise ValueError("half-duplex hops cannot carry self-interference")

    @property
    def n_hops(self) -> int:
        return len(self.hops)


@dataclass(frozen=True)
class OutageCurve:
    """Outage probability versus target rate, from one evaluation method."""

    rates: np.ndarray
    probabilities: np.ndarray
    method: str
    std_errors: np.ndarray | None = None


def q_function(x):
    """Upper-tail probability of the standard normal distribution.

    Computed through the complementary error function; absolute error
    well below 1e-12 for ``|x| <= 8``.  Accepts arrays.
    """
    x = np.asarray(x, dtype=float)
    out = 0.5 * erfc(x * _SQRT_HALF)
    return out if out.ndim else float(out)


def hop_outage(moments: HopMoments, rate: float) -> float:
    """Gaussian outage probability of a single hop at the target rate.

    Probability that a normal variable with the given moments falls below
    ``rate``.  Degenerate (zero-variance) moments give a step function and
    raise a warning.
    """
    if moments.variance == 0.0:
        warnings.warn(
            "zero-variance hop moments: outage degenerates to a step function",
            stacklevel=2,
        )
        return 0.0 if rate < moments.mean else 1.0
    p = q_function((moments.mean - rate) / moments.std)
    return float(min(max(p, 0.0), 1.0))


def network_outage_analytical(
    cfg: NetworkConfig, moments: list[HopMoments], rate: float
) -> float:
    """Closed-form chain outage from per-hop Gaussian moments."""
    if len(moments) != cfg.n_hops:
        raise ValueError(
            f"need one HopMoments per hop: got {len(moments)} for "
            f"{cfg.n_hops} hops"
        )
    success = 1.0
    for hop_moments in moments:
        success *= 1.0 - hop_outage(hop_moments, rate)
    return float(min(max(1.0 - success, 0.0), 1.0))


def sample_min_mutual_info(
    cfg: NetworkConfig,
    n_realizations: int,
    rng: np.random.Generator,
    chunk_size: int = CHUNK_SIZE,
) -> np.ndarray:
    """Weakest-hop exact mutual information per channel realization.

    Every hop (and its self-interference channel, when present in
    full-duplex mode) is redrawn independently per realization.  Each hop
    owns a fixed substream per chunk, drawn desired channel first, so
    configurations differing only in interference level share their
    desired-channel realizations.
    """
    fd = cfg.mode is DuplexMode.FULL_DUPLEX

    def chunk(stream: np.random.Generator, count: int):
        hop_streams = stream.spawn(cfg.n_hops)
        min_mi = None
        for hop, hop_stream in zip(cfg.hops, hop_streams):
            (mi,) = sample_hop_chunk(
                hop_stream,
                count,
                hop.rx_antennas,
                hop.tx_antennas,
                hop.eta,
                hop.rho if fd else 0.0,
                (EXACT_MI,),
                hop.rsi_tx_antennas,
            )
            min_mi = mi if min_mi is None else np.minimum(min_mi, mi)
        return (min_mi,)

    (samples,) = run_chunks(n_realizations, rng, chunk, chunk_size)
    return samples if fd else HD_TIME_SHARE * samples


def _empirical_outage(samples: np.ndarray, rate) -> tuple[np.ndarray, np.ndarray]:
    """Fraction of ``samples`` strictly below each rate, and its binomial SE.

    Counted by binary search in the sorted samples, so memory stays
    O(samples + rates) instead of O(samples * rates).
    """
    rate = np.asarray(rate, dtype=float)
    below = np.searchsorted(np.sort(samples), rate, side="left")
    p = below / samples.size
    se = np.sqrt(p * (1.0 - p) / samples.size)
    return p, se


def _check_rate_grid(rates: np.ndarray) -> np.ndarray:
    rates = np.asarray(rates, dtype=float)
    if rates.ndim != 1 or rates.size < 1:
        raise ValueError("rate grid must be a non-empty 1-d array")
    if rates.size > 1 and np.any(np.diff(rates) <= 0.0):
        raise ValueError("rate grid must be strictly ascending")
    return rates


def build_outage_curve(
    cfg: NetworkConfig,
    rates: np.ndarray,
    method: str,
    rng: np.random.Generator,
    n_moment_samples: int = 10_000,
    n_realizations: int = 10_000,
    chunk_size: int = CHUNK_SIZE,
) -> OutageCurve:
    """Outage curve over a rate grid by either evaluation method.

    The analytical method estimates each hop's moments once (one substream
    per hop) and reuses them across the grid; the Monte Carlo method draws
    one set of realizations and reads the empirical weakest-hop CDF off
    it.
    """
    rates = _check_rate_grid(rates)
    if method == ANALYTICAL:
        hop_streams = rng.spawn(cfg.n_hops)
        moments = [
            estimate_hop_moments(hop, cfg.mode, n_moment_samples, stream, chunk_size)
            for hop, stream in zip(cfg.hops, hop_streams)
        ]
        probs = np.array(
            [network_outage_analytical(cfg, moments, r) for r in rates]
        )
        return OutageCurve(rates=rates, probabilities=probs, method=ANALYTICAL)
    if method == MONTECARLO:
        if n_realizations < MIN_MC_REALIZATIONS:
            raise ValueError(
                f"need at least {MIN_MC_REALIZATIONS} realizations, got "
                f"{n_realizations}"
            )
        samples = sample_min_mutual_info(cfg, n_realizations, rng, chunk_size)
        probs, errs = _empirical_outage(samples, rates)
        return OutageCurve(
            rates=rates, probabilities=probs, method=MONTECARLO, std_errors=errs
        )
    raise ValueError(f"unknown method {method!r} (expected 'analytical' or 'montecarlo')")
