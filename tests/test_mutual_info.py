import dataclasses
import math

import numpy as np
import pytest

from conftest import channel_grams, dense_gram, logdet2_psd, traced_peak
from relay_outage.mutual_info import (
    APPROX_MI,
    EXACT,
    EXACT_MI,
    LN2,
    LOWER,
    MAX_POWER_DB,
    MIDPOINT,
    UPPER,
    HopConfig,
    HopMoments,
    hop_chunks,
    hop_fields,
    sample_hop_fields,
    sampled_moments,
)
from relay_outage.outage import DuplexMode, NetworkConfig
from relay_outage.randmat import SmallGram, descending_spectra, sample_gram
from relay_outage.rng import CHUNK_SIZE, substream
from relay_outage.validation import hop_at_scales
from relay_outage.wishart_stats import expected_logdet

SEED = 404

# frozen from the paired sampler below: the per-sample gap between the
# midpoint approximation and the exact mutual information at (5, 0.5);
# its standard error over the 10^4 pairs is 0.0012
MAD_ETA5_RHO05 = 0.114115586274913


def _gram_pair(n, rng, rx=2, tx=2):
    return sample_gram(n, rx, tx, rng), sample_gram(n, rx, tx, rng)


def _fields(w, wbar, eta, rho, *names):
    """Hop fields of given Gram forms; a single name gives a single array."""
    out = hop_fields(w, wbar, eta, rho, names)
    return out if len(names) > 1 else out[0]


def _scalar_gram(gain):
    """A single one-row Gram form equal to ``gain``."""
    return SmallGram(rows=1, a=np.array([gain]))


def test_duplex_mode_parse():
    assert DuplexMode("fd") is DuplexMode.FULL_DUPLEX
    assert DuplexMode("hd") is DuplexMode.HALF_DUPLEX
    with pytest.raises(ValueError, match=r"unknown duplex mode 'simplex' \(expected 'fd' or 'hd'\)"):
        DuplexMode("simplex")


def test_hop_config_linear_ratios():
    hop = HopConfig(tx_antennas=2, rx_antennas=2, snr_db=20.0)
    assert hop.eta == pytest.approx(50.0)
    assert hop.rho == 0.0
    assert not hop.has_rsi
    rsi = HopConfig(
        tx_antennas=2, rx_antennas=2, snr_db=20.0, rsi_snr_db=15.0, rsi_tx_antennas=2
    )
    assert rsi.rho == pytest.approx(10 ** 1.5 / 2.0)
    assert rsi.has_rsi


def test_hop_config_validation():
    with pytest.raises(ValueError):
        HopConfig(tx_antennas=0, rx_antennas=2, snr_db=10.0)
    with pytest.raises(ValueError):
        HopConfig(tx_antennas=2, rx_antennas=2, snr_db=10.0, rsi_tx_antennas=0)
    # one power range: its ends are accepted; just past them, non-finite
    # powers (a NaN analytical column and a zero Monte Carlo one) and finite
    # ones whose linear ratios overflow a float or the kernel are refused
    for db in (-MAX_POWER_DB, MAX_POWER_DB):
        HopConfig(tx_antennas=2, rx_antennas=2, snr_db=db, rsi_snr_db=-db)
    past = math.nextafter(MAX_POWER_DB, math.inf)
    out_of_range = (
        (past, None), (-past, None), (10.0, past), (2000.0, None), (4000.0, None),
        (10.0, 5000.0), (math.nan, None), (math.inf, None), (-math.inf, 5.0),
        (10.0, math.nan), (10.0, math.inf),
    )
    for snr_db, rsi_db in out_of_range:
        with pytest.raises(ValueError, match=r"powers must lie in \[-1000, 1000\] dB"):
            HopConfig(tx_antennas=2, rx_antennas=2, snr_db=snr_db, rsi_snr_db=rsi_db)
    # a fractional antenna count would draw from a Gamma(2.5) "channel"
    for counts in ((2.5, 2, None), (2, 2.0, None), (2, 2, 3.5), (np.float64(2), 2, None)):
        with pytest.raises(ValueError, match="must be an integer"):
            HopConfig(*counts[:2], snr_db=10.0, rsi_snr_db=5.0, rsi_tx_antennas=counts[2])
    HopConfig(np.int64(2), np.int32(2), snr_db=10.0, rsi_snr_db=5.0, rsi_tx_antennas=np.int64(2))
    # a bool is no count and no power: rsi_snr_db=False would be RSI at 0 dB
    for wrong in (
        {"rsi_snr_db": False}, {"rsi_snr_db": np.False_}, {"snr_db": True},
        {"tx_antennas": True}, {"rx_antennas": True}, {"rsi_tx_antennas": True},
    ):
        fields = {"tx_antennas": 2, "rx_antennas": 2, "snr_db": 20.0, **wrong}
        with pytest.raises(ValueError, match="must not be a bool"):
            HopConfig(**fields)
    # a power is a real number of dB; only rsi_snr_db may be None (no RSI)
    for name, wrong in (
        ("snr_db", "20"), ("snr_db", None), ("snr_db", 1j),
        ("rsi_snr_db", "5"), ("rsi_snr_db", [5.0]),
    ):
        fields = {"tx_antennas": 2, "rx_antennas": 2, "snr_db": 20.0, name: wrong}
        with pytest.raises(ValueError, match=f"^{name} must be a real number of dB, got "):
            HopConfig(**fields)
    HopConfig(2, 2, np.float32(20.0), rsi_snr_db=np.int64(5))


def test_hop_moments_std_error():
    moments = HopMoments(mean=4.0, variance=9.0, n_samples=100)
    assert math.sqrt(moments.variance) == 3.0
    assert math.sqrt(moments.variance / moments.n_samples) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        HopMoments(mean=0.0, variance=-1.0, n_samples=10)


def test_mi_fd_exact_no_signal():
    w, wbar = _gram_pair(1, substream(SEED, 0))
    assert _fields(w, wbar, 0.0, 1.0, EXACT_MI)[0] == pytest.approx(0.0, abs=1e-12)


def test_mi_fd_exact_no_interference():
    w, wbar = _gram_pair(8, substream(SEED, 1))
    got = _fields(w, wbar, 5.0, 0.0, EXACT_MI)
    want = np.log2(np.linalg.det(np.eye(2) + 5.0 * dense_gram(w)).real)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_mi_fd_exact_scalar_quotient():
    # 1x1 case collapses to log2(1 + eta*w / (rho*v + 1))
    w, v = 1.7, 0.9
    got = _fields(_scalar_gram(w), _scalar_gram(v), 3.0, 2.0, EXACT_MI)[0]
    assert got == pytest.approx(np.log2(1 + 3.0 * w / (2.0 * v + 1.0)), abs=1e-12)


def test_mi_fd_exact_nonnegative():
    w, wbar = _gram_pair(256, substream(SEED, 2))
    assert np.all(_fields(w, wbar, 10.0, 5.0, EXACT_MI) >= 0.0)


def test_mi_fd_exact_scale_consistency():
    # scaling W by c and eta by 1/c leaves the mutual information unchanged
    w, wbar = _gram_pair(16, substream(SEED, 3))
    base = _fields(w, wbar, 8.0, 2.5, EXACT_MI)
    for c in (0.25, 4.0, 100.0):
        scaled = dataclasses.replace(
            w, a=c * w.a, d=c * w.d, b_sq=c * c * w.b_sq, det=c * c * w.det
        )
        np.testing.assert_allclose(
            _fields(scaled, wbar, 8.0 / c, 2.5, EXACT_MI), base, rtol=1e-9
        )


def test_logdet_routes_agree():
    # the Cholesky reference route of the kernel tests vs eigenvalues
    stream = substream(SEED, 5)
    w, wbar = channel_grams(128, 3, 3, stream), channel_grams(128, 3, 3, stream)
    arg = np.eye(3) + 2.0 * w + 0.7 * wbar
    eig_route = np.log(np.linalg.eigvalsh(arg)).sum(axis=-1) / LN2
    np.testing.assert_allclose(logdet2_psd(arg), eig_route, atol=1e-9)


def test_fiedler_bounds_single_eigenvalue():
    lower, upper, exact = _fields(
        _scalar_gram(3.0), _scalar_gram(2.0), 4.0, 0.5, LOWER, UPPER, EXACT
    )
    expected = np.log2(1 + 0.5 * 2.0 + 4.0 * 3.0)
    assert lower[0] == pytest.approx(expected)
    assert upper[0] == pytest.approx(expected)
    assert exact[0] == pytest.approx(expected)


def test_fiedler_bounds_degenerate_spectra():
    # W = Wbar = 1.5 I: flat spectra pair the same way at either rank
    w = SmallGram(rows=2, a=np.array([1.5]), d=np.array([1.5]), det=np.array([2.25]))
    lower, upper = _fields(w, w, 2.0, 3.0, LOWER, UPPER)
    assert lower[0] == pytest.approx(upper[0])


def test_sandwich_property():
    exact, lower, upper = sample_hop_fields(
        hop_at_scales(2, 2, 10.0, 1.0), 10_000, substream(SEED, 6), (EXACT, LOWER, UPPER)
    )
    assert np.all(lower <= exact + 1e-9)
    assert np.all(exact <= upper + 1e-9)


def test_midpoint_exact_when_rho_zero():
    w = sample_gram(32, 2, 2, substream(SEED, 7))
    beta = descending_spectra(dense_gram(w))
    got = _fields(w, None, 6.0, 0.0, MIDPOINT)
    np.testing.assert_allclose(got, np.log2(1 + 6.0 * beta).sum(axis=-1), atol=1e-12)


def test_mi_fd_approx_reductions():
    # approximated MI: without RSI it is the exact log-det, and with one
    # receive antenna it is the exact MI
    w = sample_gram(16, 2, 2, substream(SEED, 8))
    beta = descending_spectra(dense_gram(w))
    approx_mi = _fields(w, None, 6.0, 0.0, APPROX_MI)
    np.testing.assert_allclose(approx_mi, np.log2(1 + 6.0 * beta).sum(axis=-1), atol=1e-12)
    w, wbar = _scalar_gram(2.2), _scalar_gram(0.8)
    approx_mi, exact_mi = _fields(w, wbar, 3.0, 1.5, APPROX_MI, EXACT_MI)
    assert approx_mi[0] == pytest.approx(exact_mi[0], abs=1e-12)


def test_mi_fd_approx_paired_deviation_frozen():
    # Per-sample |approx - exact| at (eta, rho) = (5, 0.5), 2x2, 10^4 pairs.
    # The distributions nearly coincide (KS ~ 0.01) but the paired gap is
    # set by the bound width, about 0.11 bits here.
    exact_mi, approx_mi = sample_hop_fields(
        hop_at_scales(2, 2, 5.0, 0.5), 10_000, substream(SEED, 0), (EXACT_MI, APPROX_MI)
    )
    mad = np.abs(approx_mi - exact_mi).mean()
    assert mad == pytest.approx(MAD_ETA5_RHO05, abs=1e-6)


def test_approx_mi_unclamped_and_nonnegative():
    # every pairing term log2(1 + rho*a + eta*b) is log2(1 + rho*a) plus
    # G(a, b) >= 0, so the approximation stays >= 0 without any clamp
    (approx_mi,) = sample_hop_fields(
        hop_at_scales(2, 2, 0.05, 50.0), 50_000, substream(SEED, 9), (APPROX_MI,)
    )
    assert approx_mi.min() >= 0.0
    # under this extreme interference the statistic crowds against zero
    assert approx_mi.min() < 1e-3


# the estimate below, sampled_moments of APPROX_MI, is the closed form's
# fallback where quadrature does not converge (outage.chain_moments)
def test_estimate_hop_moments_hd_siso_quadrature():
    # a half-duplex chain scales the hop's moments by its time share
    hop = HopConfig(tx_antennas=1, rx_antennas=1, snr_db=20.0)
    mean, variance = sampled_moments(hop, 50_000, substream(SEED, 10), APPROX_MI)
    share = NetworkConfig(hops=(hop,), mode=DuplexMode.HALF_DUPLEX).time_share
    expected = 0.5 * expected_logdet(1, 1, 100.0)
    se = math.sqrt(variance / 50_000)
    assert abs(share * mean - expected) < 3 * share * se


def test_estimate_hop_moments_fd_norsi_quadrature():
    hop = HopConfig(tx_antennas=2, rx_antennas=2, snr_db=20.0)
    mean, variance = sampled_moments(hop, 50_000, substream(SEED, 11), APPROX_MI)
    expected = expected_logdet(2, 2, 50.0)
    se = math.sqrt(variance / 50_000)
    assert abs(mean - expected) < 3 * se


def test_estimate_hop_moments_mean_decreases_with_rsi():
    # common random numbers across the grid: same stream path per level
    means = []
    for rsi_db in (None, -10.0, 0.0, 10.0, 15.0):
        hop = HopConfig(
            tx_antennas=2,
            rx_antennas=2,
            snr_db=20.0,
            rsi_snr_db=rsi_db,
            rsi_tx_antennas=None if rsi_db is None else 2,
        )
        mean, _ = sampled_moments(hop, 20_000, substream(SEED, 12), APPROX_MI)
        means.append(mean)
    assert all(a > b for a, b in zip(means, means[1:]))


def test_estimate_hop_moments_rejects_tiny_sample():
    hop = HopConfig(tx_antennas=1, rx_antennas=1, snr_db=10.0)
    with pytest.raises(ValueError):
        sampled_moments(hop, 99, substream(SEED, 13), APPROX_MI)


def test_hop_chunks_refuses_a_tiny_sample_before_it_is_iterated():
    # the minimum is checked when hop_chunks is called, so a caller that
    # never reaches its loop still gets the error
    hop = HopConfig(tx_antennas=1, rx_antennas=1, snr_db=10.0)
    with pytest.raises(ValueError, match="at least 100 samples"):
        hop_chunks(hop, 99, substream(SEED, 13), (EXACT,))


def test_sampled_moments_hold_one_chunk_and_match_the_joined_draws():
    # the moments merge chunk by chunk, so ten times the chunks must not
    # take ten times the memory (joined draws grew by about 10 MB)
    hop = hop_at_scales(2, 2, 10.0, 1.0)
    peaks = [
        traced_peak(
            lambda: sampled_moments(hop, chunks * CHUNK_SIZE, substream(SEED, 15), APPROX_MI)
        )
        for chunks in (10, 100)
    ]
    assert abs(peaks[1] - peaks[0]) < 1 << 20, peaks
    # a short last chunk merges with its own count
    n = 5 * CHUNK_SIZE + 17
    mean, variance = sampled_moments(hop, n, substream(SEED, 16), APPROX_MI)
    (draws,) = sample_hop_fields(hop, n, substream(SEED, 16), (APPROX_MI,))
    assert mean == pytest.approx(draws.mean(), rel=1e-12, abs=0.0)
    assert variance == pytest.approx(draws.var(ddof=1), rel=1e-12, abs=0.0)


def test_estimate_hop_moments_reproducible():
    hop = HopConfig(
        tx_antennas=2, rx_antennas=2, snr_db=20.0, rsi_snr_db=8.0, rsi_tx_antennas=2
    )
    a = sampled_moments(hop, 5000, substream(SEED, 14), APPROX_MI)
    b = sampled_moments(hop, 5000, substream(SEED, 14), APPROX_MI)
    assert a == b
