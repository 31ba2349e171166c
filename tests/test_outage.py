import math

import numpy as np
import pytest

from scipy.stats import norm

from relay_outage.mutual_info import DuplexMode, HopConfig, HopMoments, estimate_hop_moments
from relay_outage.outage import (
    ANALYTICAL,
    MONTECARLO,
    NetworkConfig,
    _empirical_outage,
    build_outage_curve,
    hop_outage,
    network_outage_analytical,
    q_function,
    sample_min_mutual_info,
)
from relay_outage.rng import substream
from relay_outage.scenario import load_preset

SEED = 505

HOP_2X2_20DB = HopConfig(tx_antennas=2, rx_antennas=2, snr_db=20.0)

# upper-tail z for probability 0.1, from the inverse normal CDF
Z_FOR_P01 = 1.2815515655446004


def _chain(n_hops, mode=DuplexMode.FULL_DUPLEX, hop=HOP_2X2_20DB):
    return NetworkConfig(hops=(hop,) * n_hops, mode=mode)


def test_q_function_values():
    assert q_function(0.0) == pytest.approx(0.5, abs=1e-15)
    assert q_function(-8.0) == pytest.approx(1.0, abs=1e-12)
    assert q_function(1.6449) == pytest.approx(0.05, abs=1e-4)
    x = np.array([-1.0, 0.0, 1.0])
    np.testing.assert_allclose(q_function(x) + q_function(-x), 1.0, atol=1e-15)


def test_hop_outage_median():
    moments = HopMoments(mean=6.0, variance=2.0, n_samples=1000)
    assert hop_outage(moments, 6.0) == pytest.approx(0.5)


def test_hop_outage_vanishes_at_low_rate():
    moments = HopMoments(mean=12.0, variance=1.0, n_samples=1000)
    assert hop_outage(moments, 0.0) < 1e-12


def test_hop_outage_above_mean():
    # rate one sigma above the mean: outage is the normal CDF there,
    # Q(-1); the complementary reading would be non-monotone in R
    moments = HopMoments(mean=4.0, variance=1.0, n_samples=1000)
    assert hop_outage(moments, 5.0) == pytest.approx(0.8413447460685429, abs=1e-12)


def test_hop_outage_monotone_in_rate():
    moments = HopMoments(mean=5.0, variance=1.5, n_samples=1000)
    rates = np.linspace(0.0, 10.0, 41)
    probs = [hop_outage(moments, r) for r in rates]
    assert all(a <= b for a, b in zip(probs, probs[1:]))


def test_hop_outage_degenerate_variance_steps():
    moments = HopMoments(mean=3.0, variance=0.0, n_samples=1000)
    with pytest.warns(UserWarning):
        assert hop_outage(moments, 2.9) == 0.0
    with pytest.warns(UserWarning):
        assert hop_outage(moments, 3.1) == 1.0


def test_network_outage_single_hop_is_hop_outage():
    cfg = _chain(1)
    moments = [HopMoments(mean=5.0, variance=1.0, n_samples=1000)]
    for rate in (2.0, 5.0, 7.5):
        assert network_outage_analytical(cfg, moments, rate) == pytest.approx(
            hop_outage(moments[0], rate)
        )


def test_network_outage_product_structure():
    # three identical hops at per-hop outage 0.1
    cfg = _chain(3)
    moments = [HopMoments(mean=Z_FOR_P01, variance=1.0, n_samples=1000)] * 3
    got = network_outage_analytical(cfg, moments, 0.0)
    assert got == pytest.approx(1.0 - 0.9 ** 3, abs=1e-9)


def test_network_outage_moment_count_mismatch():
    cfg = _chain(2)
    with pytest.raises(ValueError):
        network_outage_analytical(
            cfg, [HopMoments(mean=5.0, variance=1.0, n_samples=100)], 1.0
        )


def test_network_config_validation():
    with pytest.raises(ValueError):
        NetworkConfig(hops=(), mode=DuplexMode.FULL_DUPLEX)
    rsi_hop = HopConfig(
        tx_antennas=2, rx_antennas=2, snr_db=20.0, rsi_snr_db=8.0, rsi_tx_antennas=4
    )
    # interferer antenna count must match the next transmitter
    with pytest.raises(ValueError):
        NetworkConfig(hops=(rsi_hop, HOP_2X2_20DB), mode=DuplexMode.FULL_DUPLEX)
    with pytest.raises(ValueError):
        NetworkConfig(hops=(rsi_hop,), mode=DuplexMode.HALF_DUPLEX)


def test_min_mutual_info_extreme_rates():
    cfg = _chain(3)
    samples = sample_min_mutual_info(cfg, 2000, substream(SEED, 0))
    assert np.all(samples > 0.0)  # rate 0 never in outage
    assert np.all(samples < 1000.0)  # absurd rate always in outage


def _montecarlo_point(cfg, rate, n_realizations, rng):
    """Monte Carlo outage and its standard error at a single rate."""
    curve = build_outage_curve(
        cfg, np.array([rate]), MONTECARLO, rng, n_realizations=n_realizations
    )
    return float(curve.probabilities[0]), float(curve.std_errors[0])


def test_montecarlo_requires_enough_realizations():
    with pytest.raises(ValueError):
        _montecarlo_point(_chain(1), 1.0, 999, substream(SEED, 1))


def test_montecarlo_standard_error():
    p, se = _montecarlo_point(_chain(1), 10.0, 4000, substream(SEED, 2))
    assert se == pytest.approx(math.sqrt(p * (1 - p) / 4000))


def test_montecarlo_unbiased_against_high_precision_run():
    # pooled mean over independent seeds vs a 10^6-realization reference
    hop = HopConfig(
        tx_antennas=2, rx_antennas=2, snr_db=20.0, rsi_snr_db=8.0, rsi_tx_antennas=2
    )
    cfg = NetworkConfig(hops=(hop,), mode=DuplexMode.FULL_DUPLEX)
    rate = 4.0
    reference, ref_se = _montecarlo_point(cfg, rate, 1_000_000, substream(SEED, 4))
    estimates, errors = zip(
        *(
            _montecarlo_point(cfg, rate, 10_000, substream(SEED, 5, i))
            for i in range(10)
        )
    )
    pooled = np.mean(estimates)
    pooled_se = math.sqrt(np.sum(np.square(errors))) / len(estimates)
    assert abs(pooled - reference) <= 3 * math.hypot(pooled_se, ref_se)


def test_fd_without_rsi_equals_twice_hd():
    # common random numbers: identical draws, only the prefactor differs
    fd = sample_min_mutual_info(_chain(2), 4000, substream(SEED, 6))
    hd = sample_min_mutual_info(
        _chain(2, mode=DuplexMode.HALF_DUPLEX), 4000, substream(SEED, 6)
    )
    assert np.abs(fd - 2.0 * hd).max() <= 1e-9


def test_empirical_outage_matches_broadcast_compare():
    # ties in the samples and rates equal to sample values: "in outage"
    # means strictly below the rate, as in the broadcast compare
    samples = np.round(
        sample_min_mutual_info(_chain(2), 3000, substream(SEED, 12)), 1
    )
    rates = np.concatenate(
        ([-1.0, 0.0], np.unique(samples)[::7], [samples.max() + 1.0])
    )
    rates.sort()
    p, se = _empirical_outage(samples, rates)
    want = np.mean(samples[np.newaxis, :] < rates[:, np.newaxis], axis=-1)
    assert np.array_equal(p, want)
    assert np.array_equal(se, np.sqrt(want * (1.0 - want) / samples.size))
    assert p[0] == 0.0 and p[-1] == 1.0


def test_build_outage_curve_single_point():
    curve = build_outage_curve(
        _chain(1), np.array([4.0]), MONTECARLO, substream(SEED, 7),
        n_realizations=2000,
    )
    assert curve.rates.shape == (1,)
    assert curve.std_errors is not None


def test_analytical_curve_monotone():
    rates = np.arange(0.0, 14.01, 0.5)
    curve = build_outage_curve(
        _chain(3), rates, ANALYTICAL, substream(SEED, 8), n_moment_samples=2000
    )
    assert np.all(np.diff(curve.probabilities) >= 0.0)
    assert np.all((curve.probabilities >= 0.0) & (curve.probabilities <= 1.0))


def test_montecarlo_curve_monotone():
    # one sample set across the grid makes the empirical CDF exactly monotone
    rates = np.arange(0.0, 14.01, 0.5)
    curve = build_outage_curve(
        _chain(3), rates, MONTECARLO, substream(SEED, 9), n_realizations=4000
    )
    assert np.all(np.diff(curve.probabilities) >= 0.0)


def test_build_outage_curve_validation():
    with pytest.raises(ValueError):
        build_outage_curve(
            _chain(1), np.array([2.0, 1.0]), ANALYTICAL, substream(SEED, 10)
        )
    with pytest.raises(ValueError):
        build_outage_curve(
            _chain(1), np.array([1.0]), "bogus", substream(SEED, 11)
        )


def test_norsi_preset_outage_half_at_adjusted_mean_rate():
    # with K identical hops the chain median sits where each hop's survival
    # is 0.5**(1/K), i.e. at the per-hop mean shifted down by z* per-hop std
    sc = load_preset("fig3-fd-norsi")
    moments = [
        estimate_hop_moments(hop, sc.network.mode, 100_000, substream(SEED, 20, k))
        for k, hop in enumerate(sc.network.hops)
    ]
    mu = float(np.mean([m.mean for m in moments]))
    sigma = float(np.mean([m.std for m in moments]))
    z_star = norm.isf(1.0 - 0.5 ** (1.0 / sc.network.n_hops))
    rate = mu - z_star * sigma
    assert network_outage_analytical(sc.network, moments, rate) == pytest.approx(
        0.5, abs=0.02
    )
