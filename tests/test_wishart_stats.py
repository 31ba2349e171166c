import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.special import eval_genlaguerre, exp1

from conftest import LAW_CASES, channel_grams
from relay_outage.mutual_info import APPROX_MI, LN2, HopConfig, sample_hop_fields
from relay_outage.outage import DuplexMode, NetworkConfig, chain_moments
from relay_outage.randmat import descending_spectra
from relay_outage.rng import substream
from relay_outage.scenario import MAX_DRAWS, load_preset, preset_names
from relay_outage.wishart_stats import (
    MAX_QUADRATURE_RX,
    MOMENT_RTOL,
    PAIR_NODES,
    WEIGHT_FLOOR,
    _hop_moments_on_grid,
    eigen_grid,
    eigen_weights,
    expected_logdet,
    integration_cutoff,
    laguerre,
    marginal_eigen_density,
    quadrature_hop_moments,
)

SEED = 31337

X_GRID = np.linspace(0.0, 25.0, 11)


def test_laguerre_order_zero_is_one():
    for d in (0, 1, 4):
        for x in X_GRID:
            assert laguerre(0, d, x) == 1.0


def test_laguerre_order_one():
    for d in (0, 2, 5):
        np.testing.assert_allclose(
            [laguerre(1, d, x) for x in X_GRID], 1.0 + d - X_GRID
        )


def test_laguerre_l21_at_two():
    # (x^2 - 6x + 6)/2 at x = 2
    assert laguerre(2, 1, 2.0) == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("order,d", [(2, 0), (3, 1), (5, 2), (8, 4)])
def test_laguerre_matches_scipy(order, d):
    ours = np.array([laguerre(order, d, x) for x in X_GRID])
    reference = eval_genlaguerre(order, d, X_GRID)
    np.testing.assert_allclose(ours, reference, rtol=1e-10, atol=1e-10)


def test_laguerre_rejects_negative_argument():
    with pytest.raises(ValueError):
        laguerre(2, 1, -0.5)


def test_density_exponential_special_case():
    lam = np.linspace(0.0, 8.0, 17)
    np.testing.assert_allclose(
        marginal_eigen_density(1, 1, lam), np.exp(-lam), rtol=1e-12
    )


def test_density_normalization():
    mass, _ = quad(
        lambda x: marginal_eigen_density(2, 3, x),
        0.0,
        integration_cutoff(2, 3),
        epsabs=1e-10,
        epsrel=1e-10,
        limit=200,
    )
    assert abs(mass - 1.0) < 1e-6


@pytest.mark.parametrize("m,p", [(1, 2), (2, 2), (3, 5), (8, 12)])
def test_density_nonnegative(m, p):
    lam = np.linspace(0.0, integration_cutoff(m, p), 200)
    assert np.all(marginal_eigen_density(m, p, lam) >= 0.0)


def test_density_rejects_negative_lambda():
    with pytest.raises(ValueError):
        marginal_eigen_density(2, 2, -1.0)


def test_density_matches_sampled_eigenvalues():
    # pooled unordered 2x2 eigenvalues against the marginal, bin-averaged
    lam = descending_spectra(channel_grams(100_000, 2, 2, substream(SEED, 0))).ravel()
    width = 0.5
    edges = np.arange(0.0, 10.0 + width, width)
    hist = np.histogram(lam, bins=edges)[0] / (lam.size * width)
    binned = np.array(
        [
            quad(lambda x: marginal_eigen_density(2, 2, x), a, b)[0] / width
            for a, b in zip(edges[:-1], edges[1:])
        ]
    )
    assert np.abs(hist - binned).max() < 0.02


def test_integration_cutoff_reaches_weight_floor():
    for m, p in [(1, 1), (2, 4), (8, 12)]:
        cutoff = integration_cutoff(m, p)
        assert cutoff ** (m + p) * math.exp(-cutoff) <= WEIGHT_FLOOR * 1.01


def test_expected_logdet_zero_scale():
    # the quadrature itself reads 0 at scale 0, with no special case
    for shape in ((1, 1), (2, 3), (4, 6), (8, 12)):
        for scale in (0.0, -0.0):
            assert expected_logdet(*shape, scale) == 0.0


def test_expected_logdet_exponential_integral():
    # for the 1x1 case the integral is e * E1(1) / ln 2
    expected = math.e * float(exp1(1.0)) / math.log(2.0)
    assert expected == pytest.approx(0.8603473822708868, abs=1e-15)
    assert expected_logdet(1, 1, 1.0) == pytest.approx(
        expected, abs=1e-9
    )


@pytest.mark.parametrize("scale", [1e-2, 1.0, 1e2, 1e4, 1e6])
def test_expected_logdet_scalar_closed_form(scale):
    # 1x1: E log2(1 + s x) over x ~ Exp(1) is e^(1/s) E1(1/s) / ln 2
    expected = math.exp(1.0 / scale) * float(exp1(1.0 / scale)) / math.log(2.0)
    assert expected_logdet(1, 1, scale) == pytest.approx(expected, abs=1e-9)


# acceptance 6's Wishart orders
@pytest.mark.parametrize("m,p", [(m, p) for m in (1, 2, 4) for p in (m, m + 2)])
@pytest.mark.parametrize("scale", [1.0, 10.0, 100.0])
def test_expected_logdet_matches_adaptive_quadrature(m, p, scale):
    value, _ = quad(
        lambda x: math.log1p(scale * x) / math.log(2.0) * marginal_eigen_density(m, p, x),
        0.0,
        integration_cutoff(m, p),
        epsabs=1e-12,
        epsrel=1e-12,
        limit=500,
    )
    assert expected_logdet(m, p, scale) == pytest.approx(m * value, abs=1e-9)


def test_expected_logdet_matches_monte_carlo():
    analytic = expected_logdet(2, 2, 10.0)
    spectra = descending_spectra(channel_grams(100_000, 2, 2, substream(SEED, 1)))
    empirical = (np.log1p(10.0 * spectra).sum(axis=-1) / LN2).mean()
    assert abs(empirical - analytic) / analytic < 0.01


def test_expected_logdet_monotone_in_scale_and_p():
    values = [expected_logdet(2, 2, s) for s in (0.5, 1.0, 10.0, 100.0)]
    assert all(a < b for a, b in zip(values, values[1:]))
    by_p = [expected_logdet(2, p, 10.0) for p in (2, 3, 4, 6)]
    assert all(a < b for a, b in zip(by_p, by_p[1:]))


def test_expected_logdet_rejects_negative_scale():
    with pytest.raises(ValueError):
        expected_logdet(1, 1, -1.0)


@pytest.mark.parametrize("rows, cols", [(2, 3), (1, 4)])
def test_laws_are_symmetric_in_the_channel_shape(rows, cols):
    # a channel and its transpose have the same nonzero spectrum
    assert expected_logdet(rows, cols, 10.0) == expected_logdet(cols, rows, 10.0)
    assert integration_cutoff(rows, cols) == integration_cutoff(cols, rows)
    with pytest.raises(ValueError):
        expected_logdet(0, cols, 10.0)
    with pytest.raises(ValueError):
        integration_cutoff(rows, 0)


@pytest.mark.parametrize("cols", (1, 2, 3, 4))
def test_pair_weights_row_sums_are_the_marginal_density(cols):
    # two receive rows: the unordered pair's row sums are the law of one
    # eigenvalue, the marginal density times the rule's weights; a rank-one
    # form puts half of it on the zero eigenvalue
    x, w = eigen_grid(2, cols, PAIR_NODES)
    grid, law = eigen_weights(2, cols)
    assert np.array_equal(grid, x)
    assert np.array_equal(law, law.T) and np.all(law >= 0.0)
    row_sums = law.sum(axis=1)
    share = 0.5 if cols == 1 else 1.0
    np.testing.assert_allclose(
        row_sums[1:], share * w[1:] * marginal_eigen_density(2, cols, x[1:]), rtol=1e-12, atol=0.0
    )
    assert row_sums[0] == pytest.approx(1.0 - share, abs=1e-14)
    assert row_sums.sum() == pytest.approx(1.0, abs=1e-14)
    # one receive row: the Gamma(cols) law, the one-row marginal density
    x, w = eigen_grid(1, cols, PAIR_NODES)
    grid, law = eigen_weights(1, cols)
    assert np.array_equal(grid, x)
    np.testing.assert_allclose(law, w * marginal_eigen_density(1, cols, x), rtol=1e-12, atol=0.0)
    assert law.sum() == pytest.approx(1.0, abs=1e-14)


# Quadrature hop moments against 10^6 sampled draws, on every LAW_CASES
# shape the quadrature covers, with and without RSI, and on two hops whose
# PAIR_NODES rule is accurate but its half-node rule is not.
MOMENT_DRAWS = 1_000_000
MOMENT_HOPS = {
    f"{rx}x{tx}-rsi{rsi_tx if rsi_db else None}": HopConfig(
        tx, rx, snr_db=10.0, rsi_snr_db=rsi_db, rsi_tx_antennas=rsi_tx if rsi_db else None
    )
    for rx, tx, rsi_tx in LAW_CASES
    if rx <= MAX_QUADRATURE_RX
    for rsi_db in (5.0, None)
} | {
    "2x2-40dB": HopConfig(2, 2, snr_db=40.0),
    "2x2-20dB-rsi30dB": HopConfig(2, 2, snr_db=20.0, rsi_snr_db=30.0, rsi_tx_antennas=2),
}
# |z| limit on the sample mean and the sample variance of every hop: a
# family-wise false-alarm rate of 0.27 % (3 sigma), Sidak over both moments
# of every hop; about 3.86 for 24 tests
MOMENT_Z_LIMIT = float(stats.norm.isf((1.0 - 0.9973 ** (1.0 / (2 * len(MOMENT_HOPS)))) / 2.0))


@pytest.mark.parametrize("index, hop", enumerate(MOMENT_HOPS.values()), ids=list(MOMENT_HOPS))
def test_quadrature_moments_match_sampling(index, hop):
    quadrature = quadrature_hop_moments(hop)
    assert quadrature is not None and quadrature.source == "quadrature"
    (x,) = sample_hop_fields(hop, MOMENT_DRAWS, substream(SEED, 3, index), (APPROX_MI,))
    dev = x - x.mean()
    variance = float(dev @ dev) / (x.size - 1)
    fourth = float(np.mean(dev**4))
    z_mean = (x.mean() - quadrature.mean) / math.sqrt(variance / x.size)
    z_variance = (variance - quadrature.variance) / math.sqrt((fourth - variance**2) / x.size)
    assert abs(z_mean) <= MOMENT_Z_LIMIT, f"mean z = {z_mean:.2f}"
    assert abs(z_variance) <= MOMENT_Z_LIMIT, f"variance z = {z_variance:.2f}"


def test_moment_tolerance_is_the_se_at_the_draw_cap():
    # quadrature stands in for sampling only where its error estimate is
    # below the standard error of the largest sample a run admits
    assert MOMENT_RTOL == pytest.approx(1.0 / math.sqrt(MAX_DRAWS), rel=1e-12)


def test_quadrature_falls_back_far_above_the_link():
    # 100 dB of RSI on a 20 dB link: the rules with 64 and 128 nodes
    # disagree, so the hop is sampled, and an interference-free hop is not
    far = HopConfig(2, 2, snr_db=20.0, rsi_snr_db=100.0, rsi_tx_antennas=2)
    assert quadrature_hop_moments(far) is None
    (mean, var), (fine_mean, fine_var) = (
        _hop_moments_on_grid(far, n) for n in (PAIR_NODES, 2 * PAIR_NODES)
    )
    assert abs(var - fine_var) > MOMENT_RTOL * var
    cfg = NetworkConfig(hops=(far, HopConfig(2, 2, snr_db=20.0)), mode=DuplexMode.FULL_DUPLEX)
    moments = chain_moments(cfg, substream(SEED, 4), 1000)
    assert [m.source for m in moments] == ["sampled", "quadrature"]
    assert moments[0].n_samples == 1000 and moments[0].variance >= 0.0
    assert quadrature_hop_moments(HopConfig(3, 3, snr_db=20.0)) is None  # rx >= 3


def test_quadrature_error_is_estimated_against_the_finer_rule():
    # at 40 dB the 64-node rule agrees with the 128-node one to 3e-6 of
    # the variance, but the 32-node rule is 2e-4 off: the hop's moments
    # are the quadrature's, not a seed-dependent sample's
    hop = HopConfig(2, 2, snr_db=40.0)
    moments = quadrature_hop_moments(hop)
    assert moments is not None
    assert (moments.mean, moments.variance) == _hop_moments_on_grid(hop, PAIR_NODES)


@pytest.mark.parametrize("rx, tx, rsi_tx", [c for c in LAW_CASES if c[0] <= MAX_QUADRATURE_RX])
def test_quadrature_variance_is_never_negative(rx, tx, rsi_tx):
    # G = log2(1 + eta b / (1 + rho a)) has no subtraction, so even at 100 dB
    # between link and interference no rule yields a negative variance
    powers = (-100.0, -20.0, 0.0, 20.0, 100.0)
    for snr_db in powers:
        for rsi_db in (None, *powers):
            hop = HopConfig(tx, rx, snr_db, rsi_db, rsi_tx if rsi_db is not None else None)
            for n in (PAIR_NODES // 2, PAIR_NODES, 2 * PAIR_NODES):
                mean, variance = _hop_moments_on_grid(hop, n)
                assert mean >= 0.0 and variance >= 0.0, (hop, n)
            moments = quadrature_hop_moments(hop)
            assert moments is None or moments.variance >= 0.0


def test_every_preset_hop_takes_quadrature_moments():
    # so no shipped preset's analytical column depends on the seed
    for name in preset_names():
        for k, hop in enumerate(load_preset(name).network.hops, start=1):
            assert quadrature_hop_moments(hop) is not None, f"{name} hop {k}"
