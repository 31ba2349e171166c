"""Network outage probability: Gaussian closed form and Monte Carlo oracle.

A multi-hop decode-and-forward chain is in outage when any hop's mutual
information falls below the target rate, so the network outage is
``1 - prod_k (1 - p_k)`` with per-hop outage probabilities ``p_k``.  The
closed form models each hop's mutual information as Gaussian, with moments
by quadrature where that converges and sampled elsewhere
(:func:`chain_moments`); the Monte Carlo path recomputes the exact per-hop
mutual information per realization and therefore stands as an independent
check on both the Gaussian assumption and the midpoint approximation.
Both sample each hop on its own child of their stream, through
:func:`~relay_outage.mutual_info.hop_chunks`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .mutual_info import (
    APPROX_MI,
    EXACT_MI,
    HopConfig,
    HopMoments,
    check_sample_count,
    hop_chunks,
    sampled_moments,
)
from .wishart_stats import quadrature_hop_moments

MIN_MC_REALIZATIONS = 1000

# Half-duplex spends half the channel uses per hop on each phase.
HD_TIME_SHARE = 0.5

_SQRT_HALF = math.sqrt(0.5)
_erfc = np.frompyfunc(math.erfc, 1, 1)


class DuplexMode(Enum):
    FULL_DUPLEX = "fd"
    HALF_DUPLEX = "hd"

    @classmethod
    def _missing_(cls, value):
        raise ValueError(f"unknown duplex mode {value!r} (expected 'fd' or 'hd')")


@dataclass(frozen=True)
class NetworkConfig:
    """Ordered hop configurations plus the duplex mode of the whole chain.

    The chain owns the interferer size: an RSI hop's ``rsi_tx_antennas`` is
    the next hop's ``tx_antennas``, and the terminal hop's is its own.  It
    is set when omitted and must equal that size when given in code, on
    every hop; a scenario file has no key for it.  A hop without
    self-interference keeps none.
    """

    hops: tuple[HopConfig, ...]
    mode: DuplexMode

    def __post_init__(self) -> None:
        if not isinstance(self.mode, DuplexMode):
            raise ValueError(f"mode must be a DuplexMode, got {self.mode!r}")
        if len(self.hops) < 1:
            raise ValueError("a network needs at least one hop")
        for k, hop in enumerate(self.hops):
            if not isinstance(hop, HopConfig):
                raise ValueError(f"hops: hop {k + 1} must be a HopConfig, got {hop!r}")
        hops = []
        for k, hop in enumerate(self.hops):
            j = min(k + 1, len(self.hops) - 1)  # the terminal hop's interferer is its own
            size = self.hops[j].tx_antennas
            if hop.rsi_tx_antennas not in (None, size):
                raise ValueError(
                    f"hop {k + 1}: rsi_tx_antennas={hop.rsi_tx_antennas} does "
                    f"not match hop {j + 1} tx_antennas={size}"
                )
            hops.append(replace(hop, rsi_tx_antennas=size if hop.has_rsi else None))
        object.__setattr__(self, "hops", tuple(hops))
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


def check_rate_grid(rates: np.ndarray) -> np.ndarray:
    """``rates`` as a float array, if a non-empty, finite, strictly ascending 1-d grid."""
    rates = np.asarray(rates, dtype=float)
    if rates.ndim != 1 or rates.size < 1:
        raise ValueError("rate grid must be a non-empty 1-d array")
    if np.any(np.diff(rates) <= 0.0):
        raise ValueError("rate grid must be strictly ascending")
    if not np.all(np.isfinite(rates)):
        raise ValueError("rate grid must be finite")
    return rates


def chain_moments(
    cfg: NetworkConfig, rng: np.random.Generator, n_samples: int
) -> list[HopMoments]:
    """Each hop's Gaussian moments, scaled by the chain's time share.

    By quadrature (:func:`~relay_outage.wishart_stats.quadrature_hop_moments`),
    which needs no draws, wherever it converges; otherwise the
    :func:`~relay_outage.mutual_info.sampled_moments` of ``APPROX_MI`` over
    ``n_samples`` draws on the hop's own substream of ``rng``.  The sample
    minimum holds whether or not any hop samples.  The quadrature runs once
    per distinct hop (a scenario's ``[hop]`` section repeats one over the
    relays); each sampled hop still draws on its own substream.
    """
    check_sample_count(n_samples)
    share = cfg.time_share
    by_quadrature = {hop: quadrature_hop_moments(hop) for hop in dict.fromkeys(cfg.hops)}
    moments = []
    for hop, stream in zip(cfg.hops, rng.spawn(cfg.n_hops)):
        m = by_quadrature[hop]
        if m is None:
            m = HopMoments(*sampled_moments(hop, n_samples, stream, APPROX_MI), n_samples)
        moments.append(replace(m, mean=share * m.mean, variance=share * share * m.variance))
    return moments


def gaussian_chain_outage(moments: list[HopMoments], rates: np.ndarray) -> np.ndarray:
    """Chain outage at each rate from per-hop Gaussian moments (see ``chain_moments``).

    Hop ``k`` is in outage with the probability ``p_k`` that a normal
    variable of its mean and variance falls below the rate; the chain is
    in outage with ``1 - prod_k (1 - p_k)``, summed in log space so that
    probabilities far below 1e-16 survive.  A zero-variance hop is in
    outage at rates strictly above its mean, as Monte Carlo counts.
    """
    rates = check_rate_grid(rates)
    mean = np.array([m.mean for m in moments], dtype=float)[:, np.newaxis]
    std = np.sqrt(np.array([m.variance for m in moments], dtype=float))[:, np.newaxis]
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(std == 0.0, rates > mean, q_function((mean - rates) / std))
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf, folded to exactly 1
        log_success = np.sum(np.log1p(-p), axis=0)
    # 0.0 - x rather than -x: a chain that never fails reads 0.0, not -0.0
    return 0.0 - np.expm1(log_success)


def montecarlo_outage(
    cfg: NetworkConfig,
    rates: np.ndarray,
    rng: np.random.Generator,
    n_realizations: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Empirical chain outage at each rate and its binomial standard error.

    One set of ``n_realizations`` realizations is drawn from ``rng``; a
    realization is in outage at a rate its weakest hop falls strictly
    below.  Each hop draws its exact mutual information through
    ``hop_chunks`` on its own child of ``rng``, desired link first, so
    chains differing only in interference level share their desired-link
    realizations.  The hops advance in lockstep: each other hop's chunk is
    folded into the first hop's in turn, in place by ``np.minimum``, so one
    hop's chunk is in hand beside the running minimum, whatever the hop
    count.  Scaled by the chain's time share, each chunk counts its own
    outages at every rate, by binary search in its sorted samples, and the
    counts are added into one integer total chunk by chunk, so memory is
    O(``CHUNK_SIZE``) plus O(rates).
    """
    rates = check_rate_grid(rates)
    if n_realizations < MIN_MC_REALIZATIONS:
        raise ValueError(
            f"need at least {MIN_MC_REALIZATIONS} realizations, got "
            f"{n_realizations}"
        )
    first, *rest = (
        hop_chunks(hop, n_realizations, stream, (EXACT_MI,))
        for hop, stream in zip(cfg.hops, rng.spawn(cfg.n_hops))
    )
    below = np.zeros(rates.shape, dtype=np.intp)
    for (samples,) in first:
        for it in rest:
            np.minimum(samples, next(it)[0], out=samples)
        samples *= cfg.time_share
        samples.sort()
        below += np.searchsorted(samples, rates, side="left")
    p = below / n_realizations
    se = np.sqrt(p * (1.0 - p) / n_realizations)
    return p, se
