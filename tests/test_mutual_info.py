import math

import numpy as np
import pytest

from relay_outage.mutual_info import (
    EXACT,
    EXACT_MI,
    LN2,
    LOWER,
    MIDPOINT,
    RSI_LOGDET,
    UPPER,
    HopConfig,
    HopMoments,
    estimate_hop_moments,
    hop_fields,
    logdet2_psd,
    sample_hop_fields,
)
from relay_outage.outage import DuplexMode, NetworkConfig
from relay_outage.randmat import descending_spectra, receive_gram, sample_channels
from relay_outage.rng import substream
from relay_outage.validation import hop_at_scales
from relay_outage.wishart_stats import expected_logdet
from relay_outage.randmat import WishartParams

SEED = 404

# frozen from the paired sampler below: the per-sample gap between the
# midpoint approximation and the exact mutual information at (5, 0.5)
MAD_ETA5_RHO05 = 0.11351350012870358


def _channel_pair(n, rng, rx=2, tx=2):
    return sample_channels(n, rx, tx, rng), sample_channels(n, rx, tx, rng)


def _fields(h, hbar, eta, rho, *names):
    """Hop fields of given channels; a single name gives a single array."""
    out = hop_fields(h, hbar, eta, rho, names)
    return out if len(names) > 1 else out[0]


def _scalar_channel(gain):
    """A single 1x1 channel whose receive Gram form is ``gain``."""
    return np.full((1, 1, 1), np.sqrt(gain), dtype=complex)


def test_duplex_mode_parse():
    assert DuplexMode.parse("fd") is DuplexMode.FULL_DUPLEX
    assert DuplexMode.parse("hd") is DuplexMode.HALF_DUPLEX
    with pytest.raises(ValueError):
        DuplexMode.parse("simplex")


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


def test_hop_moments_std_error():
    moments = HopMoments(mean=4.0, variance=9.0, n_samples=100)
    assert math.sqrt(moments.variance) == 3.0
    assert math.sqrt(moments.variance / moments.n_samples) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        HopMoments(mean=0.0, variance=-1.0, n_samples=10)


def test_mi_fd_exact_no_signal():
    h, hbar = _channel_pair(1, substream(SEED, 0))
    assert _fields(h, hbar, 0.0, 1.0, EXACT_MI)[0] == pytest.approx(0.0, abs=1e-12)


def test_mi_fd_exact_no_interference():
    h, hbar = _channel_pair(8, substream(SEED, 1))
    got = _fields(h, hbar, 5.0, 0.0, EXACT_MI)
    want = np.log2(np.linalg.det(np.eye(2) + 5.0 * receive_gram(h)).real)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_mi_fd_exact_scalar_quotient():
    # 1x1 case collapses to log2(1 + eta*w / (rho*v + 1))
    w, v = 1.7, 0.9
    got = _fields(_scalar_channel(w), _scalar_channel(v), 3.0, 2.0, EXACT_MI)[0]
    assert got == pytest.approx(np.log2(1 + 3.0 * w / (2.0 * v + 1.0)), abs=1e-12)


def test_mi_fd_exact_nonnegative():
    h, hbar = _channel_pair(256, substream(SEED, 2))
    assert np.all(_fields(h, hbar, 10.0, 5.0, EXACT_MI) >= 0.0)


def test_mi_fd_exact_scale_consistency():
    # scaling W by c and eta by 1/c leaves the mutual information unchanged
    h, hbar = _channel_pair(16, substream(SEED, 3))
    base = _fields(h, hbar, 8.0, 2.5, EXACT_MI)
    for c in (0.25, 4.0, 100.0):
        np.testing.assert_allclose(
            _fields(np.sqrt(c) * h, hbar, 8.0 / c, 2.5, EXACT_MI), base, rtol=1e-9
        )


def test_logdet_routes_agree():
    # Cholesky production path vs eigenvalue reference path
    h, hbar = _channel_pair(128, substream(SEED, 5), rx=3, tx=3)
    arg = np.eye(3) + 2.0 * receive_gram(h) + 0.7 * receive_gram(hbar)
    eig_route = np.log(np.linalg.eigvalsh(arg)).sum(axis=-1) / LN2
    np.testing.assert_allclose(logdet2_psd(arg), eig_route, atol=1e-9)


def test_fiedler_bounds_single_eigenvalue():
    lower, upper, exact = _fields(
        _scalar_channel(3.0), _scalar_channel(2.0), 4.0, 0.5, LOWER, UPPER, EXACT
    )
    expected = np.log2(1 + 0.5 * 2.0 + 4.0 * 3.0)
    assert lower[0] == pytest.approx(expected)
    assert upper[0] == pytest.approx(expected)
    assert exact[0] == pytest.approx(expected)


def test_fiedler_bounds_degenerate_spectra():
    # W = Wbar = 1.5 I: flat spectra pair the same way at either rank
    h = np.sqrt(1.5) * np.eye(2, dtype=complex)[np.newaxis]
    lower, upper = _fields(h, h, 2.0, 3.0, LOWER, UPPER)
    assert lower[0] == pytest.approx(upper[0])


def test_sandwich_property():
    exact, lower, upper = sample_hop_fields(
        hop_at_scales(2, 2, 10.0, 1.0), 10_000, substream(SEED, 6), (EXACT, LOWER, UPPER)
    )
    assert np.all(lower <= exact + 1e-9)
    assert np.all(exact <= upper + 1e-9)


def test_midpoint_exact_when_rho_zero():
    h = sample_channels(32, 2, 2, substream(SEED, 7))
    beta = descending_spectra(receive_gram(h))
    got = _fields(h, None, 6.0, 0.0, MIDPOINT)
    np.testing.assert_allclose(got, np.log2(1 + 6.0 * beta).sum(axis=-1), atol=1e-12)


def test_mi_fd_approx_reductions():
    # approximate MI = midpoint - RSI log-det; without RSI it is the exact
    # log-det, and with one receive antenna it is the exact MI
    h = sample_channels(16, 2, 2, substream(SEED, 8))
    beta = descending_spectra(receive_gram(h))
    midpoint, rsi_logdet = _fields(h, None, 6.0, 0.0, MIDPOINT, RSI_LOGDET)
    np.testing.assert_allclose(
        midpoint - rsi_logdet, np.log2(1 + 6.0 * beta).sum(axis=-1), atol=1e-12
    )
    h, hbar = _scalar_channel(2.2), _scalar_channel(0.8)
    midpoint, rsi_logdet, exact_mi = _fields(h, hbar, 3.0, 1.5, MIDPOINT, RSI_LOGDET, EXACT_MI)
    assert (midpoint - rsi_logdet)[0] == pytest.approx(exact_mi[0], abs=1e-12)


def test_mi_fd_approx_paired_deviation_frozen():
    # Per-sample |approx - exact| at (eta, rho) = (5, 0.5), 2x2, 10^4 pairs.
    # The distributions nearly coincide (KS ~ 0.01) but the paired gap is
    # set by the bound width, about 0.11 bits here.
    exact, midpoint, rsi_logdet = sample_hop_fields(
        hop_at_scales(2, 2, 5.0, 0.5), 10_000, substream(SEED, 0), (EXACT, MIDPOINT, RSI_LOGDET)
    )
    mad = np.abs((midpoint - rsi_logdet) - (exact - rsi_logdet)).mean()
    assert mad == pytest.approx(MAD_ETA5_RHO05, abs=1e-6)


def test_approx_mi_unclamped_and_nonnegative():
    # every pairing term log2(1 + rho*a + eta*b) dominates log2(1 + rho*a),
    # so the coupled approximation stays >= 0 without any clamp
    midpoint, rsi_logdet = sample_hop_fields(
        hop_at_scales(2, 2, 0.05, 50.0), 50_000, substream(SEED, 9), (MIDPOINT, RSI_LOGDET)
    )
    approx_mi = midpoint - rsi_logdet
    assert approx_mi.min() >= 0.0
    # under this extreme interference the statistic crowds against zero
    assert approx_mi.min() < 1e-3


def test_estimate_hop_moments_hd_siso_quadrature():
    # a half-duplex chain scales the hop's moments by its time share
    hop = HopConfig(tx_antennas=1, rx_antennas=1, snr_db=20.0)
    moments = estimate_hop_moments(hop, 50_000, substream(SEED, 10))
    share = NetworkConfig(hops=(hop,), mode=DuplexMode.HALF_DUPLEX).time_share
    expected = 0.5 * expected_logdet(WishartParams(1, 1), 100.0)
    se = math.sqrt(moments.variance / moments.n_samples)
    assert abs(share * moments.mean - expected) < 3 * share * se


def test_estimate_hop_moments_fd_norsi_quadrature():
    hop = HopConfig(tx_antennas=2, rx_antennas=2, snr_db=20.0)
    moments = estimate_hop_moments(hop, 50_000, substream(SEED, 11))
    expected = expected_logdet(WishartParams(2, 2), 50.0)
    se = math.sqrt(moments.variance / moments.n_samples)
    assert abs(moments.mean - expected) < 3 * se


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
        moments = estimate_hop_moments(hop, 20_000, substream(SEED, 12))
        means.append(moments.mean)
    assert all(a > b for a, b in zip(means, means[1:]))


def test_estimate_hop_moments_rejects_tiny_sample():
    hop = HopConfig(tx_antennas=1, rx_antennas=1, snr_db=10.0)
    with pytest.raises(ValueError):
        estimate_hop_moments(hop, 99, substream(SEED, 13))


def test_estimate_hop_moments_reproducible():
    hop = HopConfig(
        tx_antennas=2, rx_antennas=2, snr_db=20.0, rsi_snr_db=8.0, rsi_tx_antennas=2
    )
    a = estimate_hop_moments(hop, 5000, substream(SEED, 14))
    b = estimate_hop_moments(hop, 5000, substream(SEED, 14))
    assert a == b
