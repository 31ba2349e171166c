import numpy as np
import pytest

from relay_outage.randmat import (
    SmallGram,
    WishartParams,
    descending_spectra,
    receive_gram,
    sample_channels,
)
from relay_outage.rng import substream

SEED = 20240901


def test_wishart_params_validation():
    params = WishartParams(2, 3)
    assert params.d == 1
    with pytest.raises(ValueError):
        WishartParams(3, 2)
    with pytest.raises(ValueError):
        WishartParams(0, 1)


def test_sample_channel_deterministic():
    a = sample_channels(1, 1, 1, substream(SEED, 0))
    b = sample_channels(1, 1, 1, substream(SEED, 0))
    assert np.array_equal(a, b)
    # disjoint stream ids give different draws
    c = sample_channels(1, 1, 1, substream(SEED, 1))
    assert not np.array_equal(a, c)


def test_sample_channel_rejects_zero_dims():
    with pytest.raises(ValueError):
        sample_channels(1, 0, 2, substream(SEED, 0))
    with pytest.raises(ValueError):
        sample_channels(0, 2, 2, substream(SEED, 0))


def test_sample_channel_unit_power():
    h = sample_channels(100_000, 1, 1, substream(SEED, 2)).ravel()
    assert abs(np.mean(np.abs(h) ** 2) - 1.0) < 0.02
    assert abs(h.real.mean()) < 0.02
    assert abs(h.imag.mean()) < 0.02


def test_wishart_scalar():
    np.testing.assert_allclose(receive_gram(np.array([[2.0]])), [[4.0]])


def test_wishart_trace_mean():
    # E[tr W] = m * p for unit-power entries
    h = sample_channels(100_000, 2, 2, substream(SEED, 4))
    traces = np.trace(receive_gram(h), axis1=-2, axis2=-1).real
    assert abs(traces.mean() - 4.0) < 0.05


def test_transpose_gives_same_spectrum():
    # H H^+ (3x3) and H^+ H (5x5, rank 3) share the nonzero eigenvalues
    h = sample_channels(1, 3, 5, substream(SEED, 5))
    wide = descending_spectra(receive_gram(h))
    tall = descending_spectra(receive_gram(np.conj(np.swapaxes(h, -1, -2))))
    np.testing.assert_allclose(wide, tall[:, :3], rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(tall[:, 3:], 0.0, atol=1e-12)


def test_spectrum_sums_to_trace():
    for i in range(20):
        w = receive_gram(sample_channels(1, 3, 3, substream(SEED, 6, i)))[0]
        spectrum = descending_spectra(w)
        assert np.all(np.diff(spectrum) <= 0)
        assert np.all(spectrum >= 0)
        np.testing.assert_allclose(spectrum.sum(), np.trace(w).real, rtol=1e-9)


def test_hermitian_spectrum_identity():
    np.testing.assert_allclose(descending_spectra(np.eye(3)), [1.0, 1.0, 1.0])


def test_hermitian_spectrum_descending():
    np.testing.assert_allclose(
        descending_spectra(np.diag([1.0, 5.0, 3.0])), [5.0, 3.0, 1.0]
    )


def test_diagonal_gram_spectrum():
    w = receive_gram(np.array([[1.0, 0.0], [0.0, 2.0]]))
    np.testing.assert_allclose(descending_spectra(w), [4.0, 1.0])


def test_psd_clamping_tolerance():
    # tiny negatives from eigensolver noise clamp to zero
    spectrum = descending_spectra(np.diag([1.0, -1e-12]))
    np.testing.assert_allclose(spectrum, [1.0, 0.0])
    # genuinely indefinite input is rejected, also inside a stack
    with pytest.raises(ValueError):
        descending_spectra(np.diag([1.0, -1e-3]))
    with pytest.raises(ValueError):
        descending_spectra(np.stack([np.eye(2), np.diag([1.0, -1e-3])]))


def test_descending_spectra_batched_matches_single():
    ws = receive_gram(sample_channels(64, 2, 2, substream(SEED, 7)))
    batched = descending_spectra(ws)
    singles = np.stack([descending_spectra(w) for w in ws])
    np.testing.assert_allclose(batched, singles, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("cols", (1, 3))
def test_small_gram_draws_g1_then_z_then_g2(cols):
    got = SmallGram.sample(50, 2, cols, substream(SEED, 8))
    stream = substream(SEED, 8)
    g1 = stream.standard_gamma(cols, 50)
    z = np.sqrt(0.5) * stream.standard_normal((2, 50))
    g2 = stream.standard_gamma(cols - 1, 50) if cols > 1 else 0.0
    assert np.array_equal(got.a, g1)
    assert np.array_equal(got.b_re, np.sqrt(g1) * z[0])
    assert np.array_equal(got.b_im, np.sqrt(g1) * z[1])
    assert np.array_equal(got.d, z[0] * z[0] + z[1] * z[1] + g2)
    assert np.array_equal(got.det, g1 * g2)
    # a single row is the one Gamma(cols) draw
    single = SmallGram.sample(50, 1, cols, substream(SEED, 8))
    assert single.rows == 1 and np.array_equal(single.a, g1)


def test_small_gram_rejects_more_than_two_rows():
    with pytest.raises(ValueError, match="at most 2 rows"):
        SmallGram.sample(10, 3, 3, substream(SEED, 9))
