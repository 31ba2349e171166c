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
``log2 det(I + rho*Wbar + eta*W)``.  Their midpoint minus
``log2 det(I + rho*Wbar)``, a sum of :func:`pair_gain` terms, is the
approximated mutual information whose moments feed the Gaussian outage
closed form in :mod:`relay_outage.outage`: by quadrature
(:func:`~relay_outage.wishart_stats.quadrature_hop_moments`) for hops of
at most two receive antennas, else sampled (:func:`sampled_moments`).

Every sampled per-hop quantity comes from one chunk kernel,
:func:`sample_hop_chunk`, which draws a :class:`HopConfig`'s receive Gram
forms (the interference one only when the hop has RSI) and computes only
the fields its caller names (``HOP_FIELDS``), each once.  Every caller
reaches it through :func:`hop_chunks`, which yields them for each chunk in
turn, each from its own substream of the hop's stream, so only what the
caller's loop keeps outlives a chunk: :func:`sampled_moments` keeps a
running count, mean and centred sum of squares, the Monte Carlo a running
minimum over the hops, and only :func:`sample_hop_fields`, for
``distribution``, joins every draw.  Every field depends on the channels
only through their Gram forms, which
:func:`~relay_outage.randmat.sample_gram` draws directly.  Those of at
most two rows -- every shipped preset -- come as entries and
are evaluated in closed form (:class:`~relay_outage.randmat.SmallGram`),
the desired form in the eigenframe of the interference one: ``W``'s law is
unitarily invariant and independent of ``Wbar``, so its entries there are
drawn directly, and only ``Wbar``'s eigenvalues enter
(:func:`_closed_form_exact`).
Larger ones come as their factor ``L`` of ``W = L L^+``: their spectra
come from the small side ``L^+ L``, and their exact log-dets from the
``R`` of one QR of the stacked ``[S; I]``, ``S = [sqrt(rho) Lbar,
sqrt(eta) L]``, by Sylvester's identity ``det(I + S^+ S) = det(I +
rho*Wbar + eta*W)``.  Neither ``W`` nor ``I + rho*Wbar`` is formed;
:func:`_factor_exact` gives why each ``|R_jj| >= 1`` and why QR, not a
Cholesky factor.  :func:`hop_fields` picks a form's spectrum and exact
log-det routines once, by its type; the two log-det routines share one
signature, so its interference-free path and its general one each make one
log-det call, whatever the form.
"""
from __future__ import annotations

import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .randmat import SmallGram, descending_spectra, sample_gram
from .rng import chunk_streams

LN2 = math.log(2.0)

MIN_MOMENT_SAMPLES = 100

# Largest |dB| of a hop's powers; NaN and +-inf fail the same test.  Within it
# eta, rho <= 1e100, so eta^2, rho^2, rho*eta <= 1e200, and their products with
# Gram entries (sums of tx unit-mean draws) stay far below the float max 1.8e308.
MAX_POWER_DB = 1000.0

# Per-draw fields of the hop kernel, all in bits.
EXACT = "exact"  # log2 det(I + rho*Wbar + eta*W)
LOWER = "lower"  # same-rank pairing bound on EXACT
UPPER = "upper"  # opposite-rank pairing bound on EXACT
MIDPOINT = "midpoint"  # (LOWER + UPPER) / 2
EXACT_MI = "exact_mi"  # EXACT - log2 det(I + rho*Wbar), the exact mutual information
APPROX_MI = "approx_mi"  # MIDPOINT - log2 det(I + rho*Wbar), the approximated one
HOP_FIELDS = (EXACT, LOWER, UPPER, MIDPOINT, EXACT_MI, APPROX_MI)


@dataclass(frozen=True)
class HopConfig:
    """Antenna counts and power parameters of one hop.

    ``snr_db`` is the desired-link SNR, ``rsi_snr_db`` the residual
    self-interference power ratio at the receiving node (``None`` for none),
    both in ``[-MAX_POWER_DB, MAX_POWER_DB]`` dB.  ``rsi_tx_antennas`` is
    the antenna count of the interfering transmitter, the next stage, whose
    size the :class:`~relay_outage.outage.NetworkConfig` of the chain owns.
    """

    tx_antennas: int
    rx_antennas: int
    snr_db: float
    rsi_snr_db: float | None = None
    rsi_tx_antennas: int | None = None

    def __post_init__(self) -> None:
        # a bool passes as a number (rsi_snr_db=False would be RSI at 0 dB), so refuse it
        for name, value in vars(self).items():
            if isinstance(value, (bool, np.bool_)):
                raise ValueError(f"{name} must not be a bool, got {value!r}")
        counts = {"tx_antennas": self.tx_antennas, "rx_antennas": self.rx_antennas}
        if self.rsi_tx_antennas is not None:
            counts["rsi_tx_antennas"] = self.rsi_tx_antennas
        for name, count in counts.items():
            if not isinstance(count, numbers.Integral) or count < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {count!r}")
        powers = {"snr_db": self.snr_db}
        if self.rsi_snr_db is not None:
            powers["rsi_snr_db"] = self.rsi_snr_db
        for name, db in powers.items():
            if not isinstance(db, numbers.Real):
                raise ValueError(f"{name} must be a real number of dB, got {db!r}")
        if not all(abs(db) <= MAX_POWER_DB for db in powers.values()):
            raise ValueError(
                f"powers must lie in [-{MAX_POWER_DB:g}, {MAX_POWER_DB:g}] dB, "
                f"got {self.snr_db}, {self.rsi_snr_db} dB"
            )

    @property
    def eta(self) -> float:
        """Per-antenna power ratio of the desired link."""
        return 10.0 ** (self.snr_db / 10.0) / self.tx_antennas

    @property
    def interferer_antennas(self) -> int:
        """Transmit antennas of the interferer; a lone hop's own by default."""
        return self.rsi_tx_antennas or self.tx_antennas

    @property
    def rho(self) -> float:
        """Per-antenna power ratio of the self-interference link (0 if none)."""
        if self.rsi_snr_db is None:
            return 0.0
        return 10.0 ** (self.rsi_snr_db / 10.0) / self.interferer_antennas

    @property
    def has_rsi(self) -> bool:
        return self.rsi_snr_db is not None


@dataclass(frozen=True)
class HopMoments:
    """Mean and variance of one hop's mutual information.

    Sample mean and unbiased variance of ``n_samples`` draws, or, with
    ``n_samples`` left ``None``, deterministic quadrature values.
    """

    mean: float
    variance: float
    n_samples: int | None = None

    def __post_init__(self) -> None:
        if self.variance < 0.0:
            raise ValueError(f"variance must be >= 0, got {self.variance}")
        if self.n_samples is not None and self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")

    @property
    def source(self) -> str:
        return "quadrature" if self.n_samples is None else "sampled"


def pair_gain(alpha, beta, eta: float, rho: float):
    """``G(a, b) = log2(1 + eta b / (1 + rho a)) >= 0`` of eigenvalue pairs; broadcasts.

    ``log2(1 + rho a + eta b) = log2(1 + rho a) + G(a, b)``, with no subtraction.
    """
    return np.log1p(eta * beta / (1.0 + rho * alpha)) / LN2


def _closed_form_exact(
    w: SmallGram, wbar: SmallGram | None, eta: float, rho: float, wanted: set
) -> dict[str, np.ndarray]:
    """Wanted ``EXACT``/``EXACT_MI`` of Gram forms of at most two rows.

    ``w`` holds ``W``'s entries in the eigenframe of ``Wbar``, ``wbar``
    those of ``Wbar`` (``None`` without RSI), whose descending eigenvalues
    ``l1 >= l2`` are ``wbar.spectrum`` (read only when ``Wbar`` has two
    rows).  With ``Wbar = diag(l1, l2)`` there,
    ``det(I + rho*Wbar + eta*W) - det(I + rho*Wbar)
    = eta tr W + eta^2 det W + rho*eta (l2 a + l1 d)``, a sum of
    non-negative products that cannot cancel, so no clamp is needed; and
    ``det(I + rho*Wbar) - 1 = rho tr Wbar + rho^2 det Wbar``, exactly 0
    without RSI, where both fields are ``log1p`` of that gain to the bit.
    """
    gain = eta * w.trace + eta * eta * w.det
    rsi_growth = 0.0  # det(I + rho*Wbar) - 1
    if wbar is not None:
        if wbar.rows == 2:  # the mixed term, 0 for one row
            l1, l2 = wbar.spectrum
            gain = gain + rho * eta * (l2 * w.a + l1 * w.d)
        rsi_growth = rho * wbar.trace + rho * rho * wbar.det
    out = {}
    if EXACT in wanted:
        out[EXACT] = np.log1p(rsi_growth + gain) / LN2
    if EXACT_MI in wanted:
        out[EXACT_MI] = np.log1p(gain / (1.0 + rsi_growth)) / LN2
    return out


def _factor_spectra(factor: np.ndarray) -> tuple[np.ndarray, ...]:
    """Descending spectra of ``W = L L^+``, one array per rank (the columns of
    the ``(n, rows)`` spectra): the top eigenvalues of the small side
    ``L^+ L``, padded with exact zeros."""
    rows, cols = factor.shape[-2:]
    small_side = np.conj(np.swapaxes(factor, -1, -2)) @ factor
    out = np.zeros(factor.shape[:-2] + (rows,))
    out[..., : min(rows, cols)] = descending_spectra(small_side)[..., :rows]
    return tuple(np.moveaxis(out, -1, 0))


def _factor_exact(
    w: np.ndarray, wbar: np.ndarray | None, eta: float, rho: float, wanted: set
) -> dict[str, np.ndarray]:
    """Wanted ``EXACT``/``EXACT_MI`` of ``W = L L^+`` from factors ``L``, from one QR.

    With ``S = [sqrt(rho) Lbar, sqrt(eta) L]`` (``S = sqrt(eta) L`` without
    RSI) of ``K`` columns, the ``R`` of ``[S; I_K] = Q R`` has
    ``R^+ R = I_K + S^+ S``, and by Sylvester's identity
    ``det(I_K + S^+ S) = det(I + rho*Wbar + eta*W)``.  So ``EXACT`` is the
    sum of ``b_j = log2 |R_jj|^2``.  The leading ``Lbar`` columns alone sum
    to ``log2 det(I + rho*Wbar)``, so ``EXACT_MI`` is the sum over the
    trailing ``L`` columns, with no subtraction.  ``|R_jj|^2`` is the Schur
    complement of the leading ``j - 1`` columns in the leading ``j`` of
    ``I_K + S^+ S >= I``, so it is ``>= 1``, and ``|R_jj|`` is floored at 1
    against round-off.  Householder QR is backward stable on ``[S; I_K]``,
    which holds ``I`` exactly; the Cholesky factor of the formed
    ``I_K + S^+ S`` would cancel in those Schur complements at high SNR.
    ``w`` and ``wbar`` are ``L`` and ``Lbar`` (``None`` without RSI).
    """
    s = math.sqrt(eta) * w
    if wbar is not None:
        s = np.concatenate((math.sqrt(rho) * wbar, s), axis=-1)
    eye = np.broadcast_to(np.eye(s.shape[-1]), s.shape[:-2] + (s.shape[-1],) * 2)
    r = np.linalg.qr(np.concatenate((s, eye), axis=-2), mode="r")
    # |R_jj|^2 is a Schur complement of I_K + S^+ S >= I, so it is >= 1;
    # the floor removes only round-off and keeps EXACT_MI >= 0
    bits = 2.0 * np.log(np.maximum(np.abs(np.diagonal(r, 0, -2, -1)), 1.0)) / LN2
    out = {}
    if EXACT in wanted:
        out[EXACT] = bits.sum(axis=-1)
    if EXACT_MI in wanted:
        out[EXACT_MI] = bits[..., -w.shape[-1] :].sum(axis=-1)
    return out


def _pairing_fields(
    alpha: tuple[np.ndarray, ...], beta: tuple[np.ndarray, ...], eta: float, rho: float, wanted: set
) -> dict[str, np.ndarray]:
    """Wanted ``LOWER``/``UPPER``/``MIDPOINT``/``APPROX_MI`` of per-rank descending spectra.

    ``alpha`` holds ``Wbar``'s eigenvalues and ``beta`` ``W``'s, one array
    per rank, largest first; each field adds its rank terms left to right.
    """
    out = {}
    # same-rank pairing gives the lower bound, opposite-rank the upper
    pairings = (beta, beta[::-1])
    if wanted & {LOWER, UPPER, MIDPOINT}:
        out[LOWER], out[UPPER] = (
            sum(np.log1p(rho * a + eta * b) for a, b in zip(alpha, p)) / LN2 for p in pairings
        )
        if MIDPOINT in wanted:
            out[MIDPOINT] = 0.5 * (out[LOWER] + out[UPPER])
    if APPROX_MI in wanted:
        out[APPROX_MI] = 0.5 * sum(
            pair_gain(a, b, eta, rho) + pair_gain(a, c, eta, rho)
            for a, b, c in zip(alpha, *pairings)
        )
    return out


def hop_fields(
    w: SmallGram | np.ndarray,
    wbar: SmallGram | np.ndarray | None,
    eta: float,
    rho: float,
    fields: tuple[str, ...],
) -> tuple[np.ndarray, ...]:
    """Per-draw hop fields from stacked desired and interference Gram forms.

    ``w`` holds the ``n`` desired and ``wbar`` the ``n`` interference Gram
    forms, or ``wbar`` is ``None`` when there is no self-interference
    (``rho`` is then ignored): :class:`~relay_outage.randmat.SmallGram`
    entries, those of ``w`` taken in the eigenframe of ``wbar``, or stacked
    factors ``L`` of ``W = L L^+`` (a Bartlett factor or a drawn channel).
    Returns one length-``n`` array per name in ``fields`` (see
    ``HOP_FIELDS``), in that order.  Each named field is computed once and
    no other is, each spectrum at most once (a ``SmallGram`` keeps its own).
    Without interference every name returns the same array object, so a
    caller that changes a field in place must ask for one name only.
    """
    wanted = set(fields)
    unknown = wanted.difference(HOP_FIELDS)
    if unknown:
        raise ValueError(f"unknown hop fields {sorted(unknown)}; expected {HOP_FIELDS}")
    if isinstance(w, SmallGram):
        spectrum, exact = attrgetter("spectrum"), _closed_form_exact
    else:
        spectrum, exact = _factor_spectra, _factor_exact
    if wbar is None:  # without interference both pairings, and every field, are exact
        return (exact(w, None, eta, rho, {EXACT})[EXACT],) * len(fields)
    out = exact(w, wbar, eta, rho, wanted) if wanted & {EXACT, EXACT_MI} else {}
    if wanted - {EXACT, EXACT_MI}:
        out.update(_pairing_fields(spectrum(wbar), spectrum(w), eta, rho, wanted))
    return tuple(out[name] for name in fields)


def sample_hop_chunk(
    hop: HopConfig, stream: np.random.Generator, count: int, fields: tuple[str, ...]
) -> tuple[np.ndarray, ...]:
    """The per-hop sampling kernel: draw ``count`` Gram forms, return ``fields``.

    The desired Gram form is drawn first, then (only if the hop has
    self-interference) the interference one, so runs that differ only in
    the interference level share the desired-link realizations.
    """
    w = sample_gram(count, hop.rx_antennas, hop.tx_antennas, stream)
    wbar = None
    if hop.has_rsi:
        wbar = sample_gram(count, hop.rx_antennas, hop.interferer_antennas, stream)
    return hop_fields(w, wbar, hop.eta, hop.rho, fields)


def check_sample_count(n_samples: int) -> None:
    """The one per-hop sample minimum: fewer than ``MIN_MOMENT_SAMPLES`` raise ``ValueError``.

    Checked by every entry that takes a per-hop sample count, whether or
    not it ends up sampling.
    """
    if n_samples < MIN_MOMENT_SAMPLES:
        raise ValueError(f"need at least {MIN_MOMENT_SAMPLES} samples, got {n_samples}")


def hop_chunks(
    hop: HopConfig, n_samples: int, rng: np.random.Generator, fields: tuple[str, ...]
) -> Iterator[tuple[np.ndarray, ...]]:
    """``sample_hop_chunk``'s ``fields`` of each chunk, in chunk order.

    One substream of ``rng`` per chunk of ``CHUNK_SIZE`` draws, spawned as
    it is reached.  The one entry through which every sampler reaches a
    hop, so it enforces their minimum (``check_sample_count``) when
    called, before any chunk is drawn.
    """
    check_sample_count(n_samples)
    return (sample_hop_chunk(hop, s, count, fields) for s, count in chunk_streams(n_samples, rng))


def sample_hop_fields(
    hop: HopConfig, n_samples: int, rng: np.random.Generator, fields: tuple[str, ...]
) -> tuple[np.ndarray, ...]:
    """Every draw of ``fields``: ``hop_chunks`` joined in chunk order.

    Holds all ``n_samples`` draws of each field; ``distribution``, whose KS
    distance needs every draw, is its one production caller.
    """
    return tuple(np.concatenate(f) for f in zip(*hop_chunks(hop, n_samples, rng, fields)))


def sampled_moments(
    hop: HopConfig, n_samples: int, rng: np.random.Generator, field: str
) -> tuple[float, float]:
    """Sample mean and unbiased variance of ``n_samples`` draws of one hop field.

    Holds one chunk at a time: each chunk's count, mean and centred sum of
    squares merge into the running ones by the pairwise update of Chan,
    Golub & LeVeque (1979), which adds only non-negative terms, so a
    constant sample has variance exactly 0.
    """
    count, mean, sum_sq = 0, 0.0, 0.0
    for (values,) in hop_chunks(hop, n_samples, rng, (field,)):
        chunk_mean = float(values.mean())
        centred = values - chunk_mean
        delta, total = chunk_mean - mean, count + values.size
        mean += delta * (values.size / total)
        sum_sq += float(centred @ centred) + delta * delta * (count * values.size / total)
        count = total
    return mean, sum_sq / (count - 1)
