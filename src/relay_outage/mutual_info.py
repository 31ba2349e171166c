"""Per-hop mutual information of MIMO links through a full-duplex relay.

Full-duplex mutual information through a self-interfering relay is

    I = log2 det(I + rho*Wbar + eta*W) - log2 det(I + rho*Wbar)

with ``W`` the desired-link and ``Wbar`` the self-interference Gram
matrices.  The additive form above is the numerically stable rearrangement
of the matrix-quotient expression; no inversion is ever performed.  A
half-duplex hop is the same link with ``rho = 0``, scaled by the time
share that :class:`~relay_outage.outage.NetworkConfig` owns.

The log-determinant of the two-matrix sum admits eigenvalue-pairing
bounds: with both spectra sorted descending, pairing same ranks gives a
lower bound and pairing opposite ranks an upper bound on
``log2 det(I + rho*Wbar + eta*W)``.  Their midpoint is the approximation
used for moment estimation; sampled moments feed the Gaussian outage
closed form in :mod:`relay_outage.outage`.

Every sampled per-hop quantity comes from one chunk kernel,
:func:`sample_hop_chunk`, which draws the channels and computes only the
fields its caller names (``HOP_FIELDS``).  Receive Gram forms of at most
two rows -- every shipped preset -- are evaluated in closed form
(:class:`~relay_outage.randmat.SmallGram`); larger ones fall back to the
batched eigensolver and Cholesky routes.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .randmat import (
    MAX_CLOSED_FORM_RX,
    SmallGram,
    descending_spectra,
    receive_gram,
    sample_channels,
)
from .rng import run_chunks

LN2 = math.log(2.0)

MIN_MOMENT_SAMPLES = 100

# Per-draw fields of the hop kernel, all in bits.
EXACT = "exact"  # log2 det(I + rho*Wbar + eta*W)
LOWER = "lower"  # same-rank pairing bound on EXACT
UPPER = "upper"  # opposite-rank pairing bound on EXACT
MIDPOINT = "midpoint"  # (LOWER + UPPER) / 2
RSI_LOGDET = "rsi_logdet"  # log2 det(I + rho*Wbar)
EXACT_MI = "exact_mi"  # EXACT - RSI_LOGDET, the exact mutual information
HOP_FIELDS = (EXACT, LOWER, UPPER, MIDPOINT, RSI_LOGDET, EXACT_MI)


@dataclass(frozen=True)
class HopConfig:
    """Antenna counts and power parameters of one hop.

    ``snr_db`` is the desired-link SNR; ``rsi_snr_db`` the residual
    self-interference power ratio at the receiving node (``None`` means no
    self-interference).  ``rsi_tx_antennas`` is the antenna count of the
    interfering transmitter (the next stage); defaults to ``tx_antennas``.
    """

    tx_antennas: int
    rx_antennas: int
    snr_db: float
    rsi_snr_db: float | None = None
    rsi_tx_antennas: int | None = None

    def __post_init__(self) -> None:
        if self.tx_antennas < 1 or self.rx_antennas < 1:
            raise ValueError(
                f"antenna counts must be >= 1, got "
                f"{self.tx_antennas}x{self.rx_antennas}"
            )
        if self.rsi_tx_antennas is not None and self.rsi_tx_antennas < 1:
            raise ValueError(
                f"rsi_tx_antennas must be >= 1, got {self.rsi_tx_antennas}"
            )

    @property
    def eta(self) -> float:
        """Per-antenna power ratio of the desired link."""
        return 10.0 ** (self.snr_db / 10.0) / self.tx_antennas

    @property
    def rho(self) -> float:
        """Per-antenna power ratio of the self-interference link (0 if none)."""
        if self.rsi_snr_db is None:
            return 0.0
        m_next = self.rsi_tx_antennas or self.tx_antennas
        return 10.0 ** (self.rsi_snr_db / 10.0) / m_next

    @property
    def has_rsi(self) -> bool:
        return self.rsi_snr_db is not None


@dataclass(frozen=True)
class HopMoments:
    """Sample mean and unbiased variance of one hop's mutual information."""

    mean: float
    variance: float
    n_samples: int

    def __post_init__(self) -> None:
        if self.variance < 0.0:
            raise ValueError(f"variance must be >= 0, got {self.variance}")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")


def logdet2_psd(a: np.ndarray) -> np.ndarray | float:
    """``log2 det(A)`` for Hermitian positive definite ``A`` via Cholesky.

    The hop kernel uses it above ``MAX_CLOSED_FORM_RX`` receive antennas,
    and the tests use it as the reference for the closed form below that.
    Stacked matrices allowed.
    """
    chol = np.linalg.cholesky(np.asarray(a))
    diag = np.diagonal(chol, axis1=-2, axis2=-1).real
    out = 2.0 * np.log(diag).sum(axis=-1) / LN2
    return out if out.ndim else float(out)


def logdet_from_spectrum(spectrum: np.ndarray, scale: float):
    """``sum_i log2(1 + scale * lambda_i)`` along the last axis.

    Equals ``log2 det(I + scale W)`` for the matrix the spectrum came
    from.  Accepts stacked spectra.
    """
    return np.log1p(scale * np.asarray(spectrum)).sum(axis=-1) / LN2


def _check_scales(eta: float, rho: float) -> None:
    if eta < 0.0:
        raise ValueError(f"eta must be non-negative, got {eta}")
    if rho < 0.0:
        raise ValueError(f"rho must be non-negative, got {rho}")


def _closed_form_fields(
    h: np.ndarray, hbar: np.ndarray | None, eta: float, rho: float, wanted: set
) -> dict[str, np.ndarray]:
    """Hop fields for receive Gram forms of at most two rows.

    With ``M = rho*Wbar + eta*W``, ``det(I + M) = 1 + tr M + det M`` and
    ``det M = rho^2 det Wbar + eta^2 det W + rho*eta*tr(adj(Wbar) W)``.
    The pairing bounds replace ``det M`` by the product of paired
    eigenvalue sums, so all three share the ``1 + tr M`` part.
    """
    gram = SmallGram.of(h)
    if hbar is None:
        exact = np.log1p(eta * gram.trace + eta * eta * gram.det) / LN2
        return dict.fromkeys((EXACT, LOWER, UPPER, MIDPOINT, EXACT_MI), exact) | {
            RSI_LOGDET: np.zeros_like(exact)
        }
    rsi = SmallGram.of(hbar)
    rsi_growth = rho * rsi.trace + rho * rho * rsi.det  # det(I + rho*Wbar) - 1
    out = {}
    if RSI_LOGDET in wanted:
        out[RSI_LOGDET] = np.log1p(rsi_growth) / LN2
    if wanted & {EXACT, EXACT_MI}:
        # det(I + M) - det(I + rho*Wbar), a sum of non-negative terms
        gain = eta * gram.trace + eta * eta * gram.det + rho * eta * gram.cross(rsi)
        if EXACT in wanted:
            out[EXACT] = np.log1p(rsi_growth + gain) / LN2
        if EXACT_MI in wanted:
            out[EXACT_MI] = np.log1p(gain / (1.0 + rsi_growth)) / LN2
    if wanted & {LOWER, UPPER, MIDPOINT}:
        trace_m = rho * rsi.trace + eta * gram.trace
        if h.shape[-2] == 1:  # one eigenvalue each: both pairings are exact
            same = opposite = 0.0
        else:
            beta_max, beta_min = gram.spectrum()
            alpha_max, alpha_min = rsi.spectrum()
            same = (rho * alpha_max + eta * beta_max) * (rho * alpha_min + eta * beta_min)
            opposite = (rho * alpha_max + eta * beta_min) * (rho * alpha_min + eta * beta_max)
        out[LOWER] = np.log1p(trace_m + same) / LN2
        out[UPPER] = np.log1p(trace_m + opposite) / LN2
        out[MIDPOINT] = 0.5 * (out[LOWER] + out[UPPER])
    return out


def _lapack_fields(
    h: np.ndarray, hbar: np.ndarray | None, eta: float, rho: float, wanted: set
) -> dict[str, np.ndarray]:
    """Hop fields through batched eigensolver and Cholesky calls (any size)."""
    w = receive_gram(h)
    base = np.eye(w.shape[-1])
    if hbar is not None:
        wbar = receive_gram(hbar)
        base = base + rho * wbar
    out = {}
    if wanted & {EXACT, EXACT_MI}:
        out[EXACT] = logdet2_psd(base + eta * w)
        out[EXACT_MI] = out[EXACT] - logdet2_psd(base) if hbar is not None else out[EXACT]
    if wanted & {LOWER, UPPER, MIDPOINT, RSI_LOGDET}:
        beta = descending_spectra(w)
        alpha = descending_spectra(wbar) if hbar is not None else np.zeros_like(beta)
        # same-rank pairing gives the lower bound, opposite-rank the upper
        out[LOWER] = np.log1p(rho * alpha + eta * beta).sum(axis=-1) / LN2
        out[UPPER] = np.log1p(rho * alpha + eta * beta[..., ::-1]).sum(axis=-1) / LN2
        out[MIDPOINT] = 0.5 * (out[LOWER] + out[UPPER])
        out[RSI_LOGDET] = logdet_from_spectrum(alpha, rho)
    return out


def hop_fields(
    h: np.ndarray,
    hbar: np.ndarray | None,
    eta: float,
    rho: float,
    fields: tuple[str, ...],
) -> tuple[np.ndarray, ...]:
    """Per-draw hop fields from stacked desired and interference channels.

    ``h`` holds the ``(n, rx, tx)`` desired channels and ``hbar`` the
    ``(n, rx, rsi_tx)`` interference channels, or ``None`` when there is
    no self-interference (``rho`` is then ignored).  Returns one length-``n``
    array per name in ``fields`` (see ``HOP_FIELDS``), in that order.
    Receive dimensions up to ``MAX_CLOSED_FORM_RX`` use the closed form;
    larger ones the eigensolver and Cholesky routes.
    """
    wanted = set(fields)
    unknown = wanted.difference(HOP_FIELDS)
    if unknown:
        raise ValueError(f"unknown hop fields {sorted(unknown)}; expected {HOP_FIELDS}")
    if h.shape[-2] <= MAX_CLOSED_FORM_RX:
        out = _closed_form_fields(h, hbar, eta, rho, wanted)
    else:
        out = _lapack_fields(h, hbar, eta, rho, wanted)
    return tuple(out[name] for name in fields)


def sample_hop_chunk(
    stream: np.random.Generator,
    count: int,
    rx_antennas: int,
    tx_antennas: int,
    eta: float,
    rho: float,
    fields: tuple[str, ...],
    rsi_tx_antennas: int | None = None,
) -> tuple[np.ndarray, ...]:
    """The per-hop sampling kernel: draw ``count`` channels, return ``fields``.

    The desired channel is drawn first, then (only if ``rho > 0``) the
    interference channel, so runs that differ only in the interference
    level share the desired-channel realizations.
    """
    h = sample_channels(count, rx_antennas, tx_antennas, stream)
    hbar = None
    if rho > 0.0:
        m_rsi = rsi_tx_antennas or tx_antennas
        hbar = sample_channels(count, rx_antennas, m_rsi, stream)
    return hop_fields(h, hbar, eta, rho, fields)


def sample_hop_fields(
    n_samples: int,
    rx_antennas: int,
    tx_antennas: int,
    eta: float,
    rho: float,
    rng: np.random.Generator,
    fields: tuple[str, ...],
    rsi_tx_antennas: int | None = None,
) -> tuple[np.ndarray, ...]:
    """``sample_hop_chunk`` over one substream per chunk of ``CHUNK_SIZE`` draws."""
    _check_scales(eta, rho)
    chunk = functools.partial(
        sample_hop_chunk,
        rx_antennas=rx_antennas,
        tx_antennas=tx_antennas,
        eta=eta,
        rho=rho,
        fields=fields,
        rsi_tx_antennas=rsi_tx_antennas,
    )
    return run_chunks(n_samples, rng, chunk)


def estimate_hop_moments(
    hop: HopConfig, n_samples: int, rng: np.random.Generator
) -> HopMoments:
    """Monte Carlo mean and variance of one hop's mutual information.

    Samples use the midpoint approximation (the quantity whose Gaussian
    moments drive the closed-form outage), in full-duplex form; a chain
    scales them by its time share.  The midpoint and interference terms
    inside each sample share the same interference spectrum, so their
    correlation is kept intact.
    """
    if n_samples < MIN_MOMENT_SAMPLES:
        raise ValueError(
            f"need at least {MIN_MOMENT_SAMPLES} samples for moment "
            f"estimation, got {n_samples}"
        )
    midpoint, rsi_logdet = sample_hop_fields(
        n_samples,
        hop.rx_antennas,
        hop.tx_antennas,
        hop.eta,
        hop.rho,
        rng,
        (MIDPOINT, RSI_LOGDET),
        hop.rsi_tx_antennas,
    )
    samples = midpoint - rsi_logdet
    return HopMoments(
        mean=float(samples.mean()),
        variance=float(samples.var(ddof=1)),
        n_samples=n_samples,
    )
