"""The per-hop sampling kernel against the eigensolver/Cholesky oracles.

The closed-form fields for receive Gram forms of at most two rows are
checked on identical channels against ``descending_spectra`` and
``logdet2_psd``, with the pairing bounds and the exact mutual information
written out below; the fallback for three or more rows must reproduce that
route bit for bit.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relay_outage.mutual_info import (
    EXACT,
    EXACT_MI,
    HOP_FIELDS,
    LN2,
    LOWER,
    MIDPOINT,
    RSI_LOGDET,
    UPPER,
    HopConfig,
    hop_fields,
    logdet2_psd,
    logdet_from_spectrum,
    sample_hop_chunk,
)
from relay_outage.randmat import SmallGram, descending_spectra, receive_gram, sample_channels
from relay_outage.rng import substream
from relay_outage.validation import hop_at_scales

SEED = 606
N_DRAWS = 64
SCALES = (1e-3, 1.0, 50.0, 1e4)
LOGDET_ATOL = 1e-9  # bits
SPECTRUM_RTOL = 1e-9  # relative to max(1, largest eigenvalue)


def _channels(rx, tx, rsi_tx, *path):
    stream = substream(SEED, *path)
    return (
        sample_channels(N_DRAWS, rx, tx, stream),
        sample_channels(N_DRAWS, rx, rsi_tx, stream),
    )


def _assert_spectrum_matches(h):
    rx = h.shape[-2]
    got = np.stack(SmallGram.of(h).spectrum(), axis=-1)[:, :rx]
    want = descending_spectra(receive_gram(h))
    assert np.all(got >= 0.0)
    assert np.all(np.diff(got, axis=-1) <= 0.0)
    scale = np.maximum(want[:, :1], 1.0)
    assert np.all(np.abs(got - want) <= SPECTRUM_RTOL * scale)


def _pairing_bounds(alpha, beta, eta, rho):
    """Same-rank (lower) and opposite-rank (upper) pairing of descending spectra."""
    lower = np.log1p(rho * alpha + eta * beta).sum(axis=-1) / LN2
    upper = np.log1p(rho * alpha + eta * beta[..., ::-1]).sum(axis=-1) / LN2
    return lower, upper


def _reference_fields(h, hbar, eta, rho):
    rx = h.shape[-2]
    w = receive_gram(h)
    beta = descending_spectra(w)
    if hbar is None:
        wbar = np.zeros_like(w)
        alpha = np.zeros_like(beta)
    else:
        wbar = receive_gram(hbar)
        alpha = descending_spectra(wbar)
    lower, upper = _pairing_bounds(alpha, beta, eta, rho)
    base = np.eye(rx) + rho * wbar
    return {
        EXACT: logdet2_psd(base + eta * w),
        LOWER: lower,
        UPPER: upper,
        MIDPOINT: 0.5 * (lower + upper),
        RSI_LOGDET: logdet2_psd(base),
        EXACT_MI: logdet2_psd(base + eta * w) - logdet2_psd(base),
    }


@pytest.mark.parametrize("rsi_tx", (1, 2, 3))
@pytest.mark.parametrize("tx", (1, 2, 3, 4))
@pytest.mark.parametrize("rx", (1, 2))
def test_closed_form_matches_reference(rx, tx, rsi_tx):
    h, hbar = _channels(rx, tx, rsi_tx, rx, tx, rsi_tx)
    _assert_spectrum_matches(h)
    _assert_spectrum_matches(hbar)
    for eta in SCALES:
        for rho in (0.0,) + SCALES:
            rsi = hbar if rho > 0.0 else None
            got = dict(zip(HOP_FIELDS, hop_fields(h, rsi, eta, rho, HOP_FIELDS)))
            want = _reference_fields(h, rsi, eta, rho)
            for name in HOP_FIELDS:
                assert got[name].shape == (N_DRAWS,)
                np.testing.assert_allclose(
                    got[name], want[name], rtol=0.0, atol=LOGDET_ATOL,
                    err_msg=f"{name} at eta={eta}, rho={rho}",
                )


def _eigensolver_route(h, hbar, eta, rho):
    """Eigensolver/Cholesky route of every field, written out step by step."""
    eye = np.eye(h.shape[-2])
    w = receive_gram(h)
    beta = descending_spectra(w)
    if hbar is None:
        alpha = np.zeros_like(beta)
        exact = logdet2_psd(eye + eta * w)
        exact_mi = logdet2_psd(eye + eta * w)
    else:
        wbar = receive_gram(hbar)
        alpha = descending_spectra(wbar)
        exact = logdet2_psd(eye + rho * wbar + eta * w)
        base = eye + rho * wbar
        exact_mi = logdet2_psd(base + eta * w) - logdet2_psd(base)
    lower, upper = _pairing_bounds(alpha, beta, eta, rho)
    return {
        EXACT: exact,
        LOWER: lower,
        UPPER: upper,
        MIDPOINT: 0.5 * (lower + upper),
        RSI_LOGDET: logdet_from_spectrum(alpha, rho),
        EXACT_MI: exact_mi,
    }


@pytest.mark.parametrize("rho", (0.0, 6.3))
def test_three_rx_fallback_is_bit_identical_to_eigensolver_route(rho):
    h, hbar = _channels(3, 3, 2, 3, 3, 2)
    hbar = hbar if rho > 0.0 else None
    got = dict(zip(HOP_FIELDS, hop_fields(h, hbar, 50.0, rho, HOP_FIELDS)))
    want = _eigensolver_route(h, hbar, 50.0, rho)
    for name in HOP_FIELDS:
        assert np.array_equal(got[name], want[name]), name


@pytest.mark.parametrize("rx", (2, 3))
def test_kernel_draws_desired_then_interference(rx):
    hop = HopConfig(
        tx_antennas=2, rx_antennas=rx, snr_db=10.0, rsi_snr_db=2.0, rsi_tx_antennas=3
    )
    got = sample_hop_chunk(hop, substream(SEED, 7), 100, HOP_FIELDS)
    stream = substream(SEED, 7)
    h = sample_channels(100, rx, 2, stream)
    hbar = sample_channels(100, rx, 3, stream)
    want = hop_fields(h, hbar, hop.eta, hop.rho, HOP_FIELDS)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_kernel_skips_interference_draw_without_rsi():
    hop = hop_at_scales(2, 2, 5.0)
    (got,) = sample_hop_chunk(hop, substream(SEED, 8), 100, (EXACT,))
    h = sample_channels(100, 2, 2, substream(SEED, 8))
    (want,) = hop_fields(h, None, hop.eta, 0.0, (EXACT,))
    assert np.array_equal(got, want)


def test_kernel_returns_requested_fields_in_order():
    hop = hop_at_scales(2, 2, 5.0, 0.5)
    out = sample_hop_chunk(hop, substream(SEED, 9), 50, (RSI_LOGDET, EXACT))
    full = sample_hop_chunk(hop, substream(SEED, 9), 50, HOP_FIELDS)
    by_name = dict(zip(HOP_FIELDS, full))
    assert np.array_equal(out[0], by_name[RSI_LOGDET])
    assert np.array_equal(out[1], by_name[EXACT])
    with pytest.raises(ValueError):
        sample_hop_chunk(hop, substream(SEED, 9), 50, ("spectrum",))


def test_small_gram_degenerate_channels():
    # rank one (single transmit antenna): determinant and smaller eigenvalue
    # are exactly zero, never a negative round-off residue
    h = sample_channels(200, 2, 1, substream(SEED, 10))
    gram = SmallGram.of(h)
    _, smallest = gram.spectrum()
    assert np.all(gram.det == 0.0)
    assert np.all(smallest == 0.0)
    # an all-zero channel has an all-zero spectrum, not NaN
    largest, smallest = SmallGram.of(np.zeros((3, 2, 2), dtype=complex)).spectrum()
    assert np.array_equal(largest, np.zeros(3))
    assert np.array_equal(smallest, np.zeros(3))
    with pytest.raises(ValueError):
        SmallGram.of(np.zeros((1, 3, 2), dtype=complex))


hop_configs = st.builds(
    HopConfig,
    tx_antennas=st.integers(1, 4),
    rx_antennas=st.integers(1, 3),
    snr_db=st.floats(-10.0, 40.0),
    rsi_snr_db=st.one_of(st.none(), st.floats(-10.0, 40.0)),
    rsi_tx_antennas=st.one_of(st.none(), st.integers(1, 4)),
)


@settings(max_examples=60, deadline=None)
@given(hop=hop_configs, seed=st.integers(0, 2**32 - 1))
def test_kernel_properties(hop, seed):
    fields = sample_hop_chunk(hop, substream(seed, 0), 256, HOP_FIELDS)
    values = dict(zip(HOP_FIELDS, fields))
    for name, value in values.items():
        assert np.all(np.isfinite(value)), name
    assert np.all(values[LOWER] <= values[EXACT] + 1e-9)
    assert np.all(values[EXACT] <= values[UPPER] + 1e-9)
    assert np.all(values[EXACT_MI] >= -1e-12)
