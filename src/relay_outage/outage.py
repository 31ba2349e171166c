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
from dataclasses import dataclass, replace
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
    """Ordered hop configurations plus the duplex mode of the whole chain.

    The chain owns the interferer size: an RSI hop's ``rsi_tx_antennas`` is
    the next hop's ``tx_antennas`` (the terminal hop's own) when omitted, and
    must equal it when given.  A hop without self-interference keeps none.
    """

    hops: tuple[HopConfig, ...]
    mode: DuplexMode

    def __post_init__(self) -> None:
        if len(self.hops) < 1:
            raise ValueError("a network needs at least one hop")
        hops = tuple(
            replace(hop, rsi_tx_antennas=(hop.rsi_tx_antennas or nxt.tx_antennas) if hop.has_rsi else None)
            for hop, nxt in zip(self.hops, self.hops[1:] + self.hops[-1:])
        )
        object.__setattr__(self, "hops", hops)
        for k, (hop, nxt) in enumerate(zip(hops, hops[1:])):
            if hop.has_rsi and hop.rsi_tx_antennas != nxt.tx_antennas:
                raise ValueError(
                    f"hop {k + 1}: rsi_tx_antennas={hop.rsi_tx_antennas} does "
                    f"not match hop {k + 2} tx_antennas={nxt.tx_antennas}"
                )
        if self.mode is DuplexMode.HALF_DUPLEX and any(hop.has_rsi for hop in hops):
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
    cfg: NetworkConfig, stream: np.random.Generator, count: int
) -> np.ndarray:
    """Weakest-hop exact mutual information of one chunk of ``count`` realizations.

    Every hop (and its interference channel, when the hop has RSI) is
    redrawn independently per realization.  Each hop owns a fixed child of
    the chunk's ``stream``, drawn desired channel first, so configurations
    differing only in interference level share their desired-channel
    realizations.  Scaled by the chain's time share.
    """
    min_mi = None
    for hop, hop_stream in zip(cfg.hops, stream.spawn(cfg.n_hops)):
        (mi,) = sample_hop_chunk(hop, hop_stream, count, (EXACT_MI,))
        min_mi = mi if min_mi is None else np.minimum(min_mi, mi)
    min_mi *= cfg.time_share
    return min_mi


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

    One set of ``n_realizations`` realizations is drawn from ``rng``; a
    realization is in outage at a rate its weakest hop falls strictly
    below.  Each chunk counts its own outages at every rate, by binary
    search in its sorted samples, and the counts are added into one integer
    total as chunks finish, so memory is O(``CHUNK_SIZE``) per running chunk
    plus O(rates).
    """
    rates = _check_rate_grid(rates)
    if n_realizations < MIN_MC_REALIZATIONS:
        raise ValueError(
            f"need at least {MIN_MC_REALIZATIONS} realizations, got "
            f"{n_realizations}"
        )

    def count_below(stream: np.random.Generator, count: int) -> np.ndarray:
        samples = sample_min_mutual_info(cfg, stream, count)
        samples.sort()
        return np.searchsorted(samples, rates, side="left")

    below = run_chunks(n_realizations, rng, count_below, np.add)
    p = below / n_realizations
    se = np.sqrt(p * (1.0 - p) / n_realizations)
    return p, se
