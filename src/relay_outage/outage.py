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
from enum import Enum

import numpy as np

from .mutual_info import EXACT_MI, HopConfig, estimate_hop_moments, sample_hop_chunk
from .rng import run_chunks

MIN_MC_REALIZATIONS = 1000

# Half-duplex spends half the channel uses per hop on each phase.
HD_TIME_SHARE = 0.5

_SQRT_HALF = math.sqrt(0.5)
_erfc = np.frompyfunc(math.erfc, 1, 1)


class DuplexMode(Enum):
    FULL_DUPLEX = "fd"
    HALF_DUPLEX = "hd"

    @classmethod
    def parse(cls, text: str) -> "DuplexMode":
        for mode in cls:
            if mode.value == text:
                return mode
        raise ValueError(f"unknown duplex mode {text!r} (expected 'fd' or 'hd')")


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

    @property
    def time_share(self) -> float:
        """Share of the channel uses each hop transmits in, which scales its rate.

        Half-duplex hops carry no self-interference (checked above), so
        scaling the full-duplex form of the mutual information by this
        share is the whole of the half-duplex policy.
        """
        return HD_TIME_SHARE if self.mode is DuplexMode.HALF_DUPLEX else 1.0


def q_function(x):
    """Upper-tail probability of the standard normal distribution.

    Computed through the complementary error function, one ``math.erfc``
    call per element; absolute error well below 1e-12 for ``|x| <= 8``.
    Accepts arrays.
    """
    x = np.asarray(x, dtype=float)
    out = 0.5 * np.asarray(_erfc(x * _SQRT_HALF), dtype=float)
    return out if out.ndim else float(out)


def sample_min_mutual_info(
    cfg: NetworkConfig, n_realizations: int, rng: np.random.Generator
) -> np.ndarray:
    """Weakest-hop exact mutual information per channel realization.

    Every hop (and its self-interference channel, when present) is redrawn
    independently per realization.  Each hop owns a fixed substream per
    chunk, drawn desired channel first, so configurations differing only
    in interference level share their desired-channel realizations.
    """

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
                hop.rho,
                (EXACT_MI,),
                hop.rsi_tx_antennas,
            )
            min_mi = mi if min_mi is None else np.minimum(min_mi, mi)
        return (min_mi,)

    (samples,) = run_chunks(n_realizations, rng, chunk)
    samples *= cfg.time_share
    return samples


def _gaussian_outage(mean, variance, rates: np.ndarray) -> np.ndarray:
    """Chain outage at each rate from per-hop Gaussian moments.

    Hop ``k`` is in outage with the probability ``p_k`` that a normal
    variable of mean ``mean[k]`` and variance ``variance[k]`` falls below
    the rate; the chain is in outage with ``1 - prod_k (1 - p_k)``, summed
    in log space so that probabilities far below 1e-16 survive.  A
    zero-variance hop is a step at its mean and raises a warning.
    """
    mean = np.asarray(mean, dtype=float)[:, np.newaxis]
    std = np.sqrt(np.asarray(variance, dtype=float))[:, np.newaxis]
    step = std == 0.0
    if step.any():
        warnings.warn(
            "zero-variance hop moments: outage degenerates to a step function",
            stacklevel=2,
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.clip(q_function((mean - rates) / std), 0.0, 1.0)
    p = np.where(step, rates >= mean, p)
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf, folded to exactly 1
        log_success = np.sum(np.log1p(-p), axis=0)
    # 0.0 - x rather than -x: a chain that never fails reads 0.0, not -0.0
    return 0.0 - np.expm1(log_success)


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


def analytical_outage(
    cfg: NetworkConfig, rates: np.ndarray, rng: np.random.Generator, n_samples: int
) -> np.ndarray:
    """Gaussian closed-form chain outage at each rate.

    Each hop's moments are estimated once from ``n_samples`` draws on its
    own substream of ``rng``, scaled by the chain's time share, and reused
    across the grid.
    """
    rates = _check_rate_grid(rates)
    moments = [
        estimate_hop_moments(hop, n_samples, stream)
        for hop, stream in zip(cfg.hops, rng.spawn(cfg.n_hops))
    ]
    share = cfg.time_share
    return _gaussian_outage(
        [share * m.mean for m in moments],
        [share * share * m.variance for m in moments],
        rates,
    )


def montecarlo_outage(
    cfg: NetworkConfig,
    rates: np.ndarray,
    rng: np.random.Generator,
    n_realizations: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Empirical chain outage at each rate and its binomial standard error.

    One set of ``n_realizations`` realizations is drawn from ``rng`` and
    the weakest-hop empirical CDF is read off it at every rate.
    """
    rates = _check_rate_grid(rates)
    if n_realizations < MIN_MC_REALIZATIONS:
        raise ValueError(
            f"need at least {MIN_MC_REALIZATIONS} realizations, got "
            f"{n_realizations}"
        )
    return _empirical_outage(sample_min_mutual_info(cfg, n_realizations, rng), rates)
