import numpy as np
import pytest
from scipy import stats

from conftest import dense_gram, draw_channels
from relay_outage.randmat import (
    _EXPONENTIAL_SUM_MAX_SHAPE,
    SmallGram,
    _gamma,
    descending_spectra,
    sample_gram,
)
from relay_outage.rng import substream

SEED = 20240901


def test_sample_gram_deterministic():
    for rows in (1, 2, 3):
        a = sample_gram(4, rows, 2, substream(SEED, 0))
        b = sample_gram(4, rows, 2, substream(SEED, 0))
        c = sample_gram(4, rows, 2, substream(SEED, 1))
        if isinstance(a, SmallGram):
            a, b, c = a.trace, b.trace, c.trace
        assert np.array_equal(a, b)
        # disjoint stream ids give different draws
        assert not np.array_equal(a, c)


def test_sample_gram_rejects_zero_dims():
    with pytest.raises(ValueError):
        sample_gram(1, 0, 2, substream(SEED, 0))
    with pytest.raises(ValueError):
        sample_gram(1, 3, 0, substream(SEED, 0))
    with pytest.raises(ValueError):
        sample_gram(0, 2, 2, substream(SEED, 0))


def test_sample_gram_unit_power():
    # E[tr W] = rows * cols for unit-power channel entries
    for rows, cols in ((1, 1), (2, 3), (3, 2), (4, 4)):
        gram = sample_gram(100_000, rows, cols, substream(SEED, 2, rows, cols))
        if isinstance(gram, SmallGram):
            traces = gram.trace
        else:
            traces = np.trace(dense_gram(gram), axis1=-2, axis2=-1).real
        assert abs(traces.mean() / (rows * cols) - 1.0) < 0.02, (rows, cols)


def test_wishart_scalar():
    # one receive antenna: W = |h|^2 summed over 3 transmit antennas, Gamma(3)
    gram = sample_gram(100_000, 1, 3, substream(SEED, 3))
    assert gram.rows == 1
    assert abs(gram.a.mean() - 3.0) < 0.05
    assert abs(gram.a.var() - 3.0) < 0.15


def test_wishart_trace_mean():
    # E[W] = cols * I, also with more receive rows than transmit columns
    w = dense_gram(sample_gram(100_000, 3, 2, substream(SEED, 4)))
    np.testing.assert_allclose(w.mean(axis=0), 2.0 * np.eye(3), atol=0.03)


def test_transpose_gives_same_spectrum():
    # H H^+ (3x3) and H^+ H (5x5, rank 3) share the nonzero eigenvalues
    h = draw_channels(1, 3, 5, substream(SEED, 5))
    h_adj = np.conj(np.swapaxes(h, -1, -2))
    wide = descending_spectra(h @ h_adj)
    tall = descending_spectra(h_adj @ h)
    np.testing.assert_allclose(wide, tall[:, :3], rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(tall[:, 3:], 0.0, atol=1e-12)


def test_spectrum_sums_to_trace():
    for i in range(20):
        w = dense_gram(sample_gram(1, 3, 3, substream(SEED, 6, i)))[0]
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
    h = np.diag([1.0, 2.0])
    np.testing.assert_allclose(descending_spectra(h @ h.T), [4.0, 1.0])


def test_psd_clamping_tolerance():
    # tiny negatives from eigensolver noise clamp to zero
    spectrum = descending_spectra(np.diag([1.0, -1e-12]))
    np.testing.assert_allclose(spectrum, [1.0, 0.0])
    # genuinely indefinite input is rejected, also inside a stack
    with pytest.raises(ValueError):
        descending_spectra(np.diag([1.0, -1e-3]))
    with pytest.raises(ValueError):
        descending_spectra(np.stack([np.eye(2), np.diag([1.0, -1e-3])]))


def test_one_row_spectrum_is_the_entry():
    # a 1x1 Gram form is its own eigenvalue, at any magnitude: no square
    # root to underflow below 1e-154 or overflow above 1e154
    a = np.array([0.0, 5e-324, 1e-200, 1.0, 1e200, np.finfo(float).max])
    (spectrum,) = SmallGram(rows=1, a=a).spectrum
    assert spectrum is a  # no arithmetic at all, so the one-row closed form may read it


def test_two_row_spectrum_is_computed_once():
    # the closed form and the pairing fields read the same cached pair
    gram = sample_gram(16, 2, 3, substream(SEED, 12))
    assert gram.spectrum is gram.spectrum


def test_descending_spectra_batched_matches_single():
    ws = dense_gram(sample_gram(64, 3, 2, substream(SEED, 7)))
    batched = descending_spectra(ws)
    singles = np.stack([descending_spectra(w) for w in ws])
    np.testing.assert_allclose(batched, singles, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("cols", (1, 3, 5))
def test_small_gram_draws_g1_then_z_then_g2(cols):
    # g1 ~ Gamma(cols), then |z|^2 ~ Exp(1), then g2 ~ Gamma(cols - 1); no
    # normal is drawn
    drawn = substream(SEED, 8)
    got = sample_gram(50, 2, cols, drawn)
    stream = substream(SEED, 8)
    g1 = _gamma(cols, 50, stream)
    z_sq = stream.standard_exponential(50)
    g2 = _gamma(cols - 1, 50, stream) if cols > 1 else 0.0
    assert np.array_equal(got.a, g1)
    assert np.array_equal(got.b_sq, g1 * z_sq)
    assert np.array_equal(got.d, z_sq + g2)
    assert np.array_equal(got.det, g1 * g2)
    assert drawn.standard_normal() == stream.standard_normal()
    # a single row is the one Gamma(cols) draw
    single = sample_gram(50, 1, cols, substream(SEED, 8))
    assert single.rows == 1 and np.array_equal(single.a, g1)


@pytest.mark.parametrize("cols", (2, 4))
def test_dense_gram_draws_row_by_row(cols):
    # row i of the Bartlett factor: below-diagonal real parts, imaginary
    # parts, then |L_ii|^2 ~ Gamma(cols - i) while i < cols
    drawn = substream(SEED, 9)
    got = sample_gram(50, 3, cols, drawn)
    stream = substream(SEED, 9)
    factor = np.zeros((50, 3, min(3, cols)), dtype=complex)
    for i in range(3):
        below = np.sqrt(0.5) * stream.standard_normal((2, 50, min(i, cols)))
        factor[:, i, : min(i, cols)] = below[0] + 1j * below[1]
        if i < cols:
            factor[:, i, i] = np.sqrt(_gamma(cols - i, 50, stream))
    assert np.array_equal(got, factor)
    assert drawn.standard_normal() == stream.standard_normal()


def test_small_integer_gamma_shapes_are_exponential_sums():
    # up to the cutoff Gamma(k) is the sum of a (k, n) block of unit
    # exponentials, above it numpy's standard_gamma
    for k in range(1, 6):
        got = _gamma(k, 50, substream(SEED, 11))
        stream = substream(SEED, 11)
        if k <= _EXPONENTIAL_SUM_MAX_SHAPE:
            want = stream.standard_exponential((k, 50)).sum(axis=0)
        else:
            want = stream.standard_gamma(k, 50)
        assert np.array_equal(got, want), k


GAMMA_DRAWS = 200_000
# family-wise false-alarm rate of the Gamma law test over its five shapes
GAMMA_ALPHA = 0.0027


@pytest.mark.parametrize("k", (1, 2, 3, 4, 5))
def test_gamma_draw_has_the_gamma_law(k):
    # One-sample KS test of _gamma(k) against scipy's Gamma(k) CDF, at
    # shapes on both sides of the exponential-sum cutoff.  Sidak over the
    # five shapes: each test runs at 1 - (1 - GAMMA_ALPHA)^(1/5), so all
    # five pass together with probability 1 - GAMMA_ALPHA under the law;
    # the limit is the exact one-sample KS quantile at that level and n.
    per_test = 1.0 - (1.0 - GAMMA_ALPHA) ** (1.0 / 5)
    limit = stats.kstwo.isf(per_test, GAMMA_DRAWS)
    draws = _gamma(k, GAMMA_DRAWS, substream(SEED, 12, k))
    distance = stats.kstest(draws, stats.gamma(k).cdf).statistic
    assert distance <= limit, f"Gamma({k}): KS {distance:.2e} > {limit:.2e}"


def test_sample_gram_is_dense_above_two_rows():
    # above two rows the draw is the lower-trapezoidal factor itself, with a
    # positive real diagonal; W = L L^+ is never formed
    assert isinstance(sample_gram(10, 2, 3, substream(SEED, 10)), SmallGram)
    for cols, shape in ((3, (10, 3, 3)), (1, (10, 4, 1)), (6, (10, 4, 4))):
        factor = sample_gram(10, shape[1], cols, substream(SEED, 10))
        assert isinstance(factor, np.ndarray) and factor.shape == shape
        assert np.array_equal(factor, np.tril(factor))
        diagonal = np.diagonal(factor, axis1=-2, axis2=-1)
        assert np.all(diagonal.real > 0.0) and np.all(diagonal.imag == 0.0)
