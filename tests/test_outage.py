import math
import warnings
from functools import reduce

import numpy as np
import pytest

from scipy.special import erfc
from scipy.stats import norm

from conftest import traced_peak

from relay_outage import mutual_info, outage
from relay_outage.mutual_info import (
    APPROX_MI,
    EXACT_MI,
    HopConfig,
    HopMoments,
    hop_chunks,
    sampled_moments,
)
from relay_outage.outage import (
    DuplexMode,
    NetworkConfig,
    chain_moments,
    check_rate_grid,
    gaussian_chain_outage,
    gaussian_hop_outage,
    montecarlo_outage,
    q_function,
)
from relay_outage.rng import CHUNK_SIZE, substream
from relay_outage.scenario import load_preset

SEED = 505

HOP_2X2_20DB = HopConfig(tx_antennas=2, rx_antennas=2, snr_db=20.0)

# upper-tail z for probability 0.1, from the inverse normal CDF
Z_FOR_P01 = 1.2815515655446004


def _chain(n_hops, mode=DuplexMode.FULL_DUPLEX, hop=HOP_2X2_20DB):
    return NetworkConfig(hops=(hop,) * n_hops, mode=mode)


def _weakest_hop(cfg, rng, n):
    """Each realization's weakest-hop exact mutual information, scaled by the
    time share, from the stream layout alone: hop ``k`` draws its ``n``
    realizations through ``hop_chunks`` on the ``k``-th child of ``rng``."""
    per_hop = [
        np.concatenate([mi for (mi,) in hop_chunks(hop, n, stream, (EXACT_MI,))])
        for hop, stream in zip(cfg.hops, rng.spawn(cfg.n_hops))
    ]
    return cfg.time_share * reduce(np.minimum, per_hop)


def test_q_function_values():
    assert q_function(0.0) == pytest.approx(0.5, abs=1e-15)
    assert q_function(-8.0) == pytest.approx(1.0, abs=1e-12)
    assert q_function(1.6449) == pytest.approx(0.05, abs=1e-4)
    x = np.array([-1.0, 0.0, 1.0])
    np.testing.assert_allclose(q_function(x) + q_function(-x), 1.0, atol=1e-15)


def test_q_function_matches_scipy_erfc():
    # scipy's erfc is the oracle for the per-element math.erfc, far into
    # the tail where Q falls towards 1e-300.  Both get the argument x * sqrt(1/2):
    # a one-ulp change of the argument alone moves erfc by ~2u^2 ulps, 1.5e-13
    # relative at x = 37, which would swamp the comparison of the two functions.
    x = np.linspace(-8.0, 37.0, 4501)
    want = 0.5 * erfc(x * math.sqrt(0.5))
    np.testing.assert_allclose(q_function(x), want, rtol=1e-13, atol=0.0)
    assert isinstance(q_function(1.5), float)
    want = 0.5 * erfc(1.5 * math.sqrt(0.5))
    assert q_function(1.5) == pytest.approx(want, rel=1e-13, abs=0.0)
    assert q_function(x[:4500].reshape(3, -1)).shape == (3, 1500)


def _hop_outage(moments, rate):
    """Gaussian outage of a single hop at one rate, from the hop law itself."""
    return float(gaussian_hop_outage(moments, np.array([rate]))[0])


def _reference_chain_outage(moments, rates):
    """The fold as a per-rate, per-hop loop: ``-expm1(sum_k log1p(-p_k))``.

    Its running sum adds the hops in order, as numpy's axis-0 sum does for
    two or more rates; a one-point grid's column is summed pairwise, so
    there the loop is no reference beyond 8 hops.
    """
    out = []
    for rate in rates:
        log_success = 0.0
        for m in moments:
            if m.variance == 0.0:
                p = 1.0 if rate > m.mean else 0.0
            else:
                p = float(q_function((m.mean - rate) / math.sqrt(m.variance)))
            # numpy's log1p/expm1, which may differ from math's in the last bit
            log_success += float(np.log1p(-p)) if p < 1.0 else -math.inf
        out.append(0.0 - float(np.expm1(log_success)))
    return np.array(out)


def test_hop_outage_median():
    moments = HopMoments(mean=6.0, variance=2.0, n_samples=1000)
    assert _hop_outage(moments, 6.0) == pytest.approx(0.5)


def test_hop_outage_vanishes_at_low_rate():
    moments = HopMoments(mean=12.0, variance=1.0, n_samples=1000)
    assert _hop_outage(moments, 0.0) < 1e-12


def test_hop_outage_above_mean():
    # rate one sigma above the mean: outage is the normal CDF there,
    # Q(-1); the complementary reading would be non-monotone in R
    moments = HopMoments(mean=4.0, variance=1.0, n_samples=1000)
    assert _hop_outage(moments, 5.0) == pytest.approx(0.8413447460685429, abs=1e-12)


def test_hop_outage_monotone_in_rate():
    rates = np.linspace(0.0, 10.0, 41)
    probs = gaussian_chain_outage([HopMoments(mean=5.0, variance=1.5)], rates)
    assert np.all(np.diff(probs) >= 0.0)


def test_hop_outage_degenerate_variance_steps():
    # a point mass is below the rate only when the rate is strictly above
    # it, as Monte Carlo counts; no warning is raised (the CLI reports the
    # hop in its header instead)
    moments = HopMoments(mean=3.0, variance=0.0, n_samples=1000)
    other = HopMoments(mean=5.0, variance=1.0, n_samples=1000)
    rates = np.array([2.0, 3.0, 4.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _hop_outage(moments, 2.9) == 0.0
        assert _hop_outage(moments, 3.0) == 0.0
        assert _hop_outage(moments, 3.1) == 1.0
        # a step hop inside a chain, at rates below, at and above its mean
        got = gaussian_chain_outage([moments, other], rates)
    assert np.array_equal(got, _reference_chain_outage([moments, other], rates))
    assert got[0] < got[1] < 1.0 and got[2] == 1.0
    assert got[1] == _hop_outage(other, 3.0)


def test_hop_law_is_the_normal_cdf():
    moments = HopMoments(mean=5.0, variance=2.25)
    rates = np.linspace(-1.0, 12.0, 27)
    got = gaussian_hop_outage(moments, rates)
    np.testing.assert_allclose(got, norm.cdf(rates, loc=5.0, scale=1.5), rtol=1e-12, atol=1e-300)
    assert got.shape == rates.shape and got.dtype == float


def _stacked_fold(moments, rates):
    """``-expm1`` of one axis-0 sum over the stacked (hops, rates) ``log1p(-p)``."""
    p = np.stack([gaussian_hop_outage(m, rates) for m in moments])
    with np.errstate(divide="ignore"):
        return 0.0 - np.expm1(np.sum(np.log1p(-p), axis=0))


@pytest.mark.parametrize("n_points", [1, 2, 57])
@pytest.mark.parametrize("n_hops", [1, 9, 300])
def test_chain_fold_is_one_axis_sum_of_the_stacked_hops(n_points, n_hops):
    # the fold gathers one row per hop from its distinct moment pairs and
    # sums them as the stacked array would be summed, bit for bit: a running
    # sum per hop would differ on the one-point grid, which numpy sums pairwise
    rng = np.random.default_rng(n_points * 1000 + n_hops)
    pool = [
        HopMoments(mean=float(mean), variance=float(var))
        for mean, var in zip(rng.uniform(4.0, 12.0, 5), rng.uniform(0.5, 4.0, 5))
    ] + [HopMoments(mean=6.0, variance=0.0)]
    moments = [pool[i] for i in rng.integers(0, len(pool), n_hops)]
    rates = np.linspace(2.0, 9.0, n_points) if n_points > 1 else np.array([5.5])
    got = gaussian_chain_outage(moments, rates)
    assert got.shape == rates.shape
    assert np.array_equal(got, _stacked_fold(moments, rates))
    if n_hops > 1:
        assert len(set(moments)) > 1 and len(set(moments)) < n_hops


def test_chain_fold_takes_the_law_once_per_distinct_moment_pair(monkeypatch):
    law, calls = outage.gaussian_hop_outage, []

    def counted(moments, rates):
        calls.append(moments)
        return law(moments, rates)

    monkeypatch.setattr(outage, "gaussian_hop_outage", counted)
    relay, last = HopMoments(mean=10.0, variance=4.0), HopMoments(mean=7.0, variance=1.0)
    chain = [relay] * 39 + [last]
    rates = np.arange(0.0, 14.01, 0.25)
    got = gaussian_chain_outage(chain, rates)
    assert calls == [relay, last]
    assert np.array_equal(got, _stacked_fold(chain, rates))


def test_chain_fold_memory_is_one_gathered_array():
    # the per-hop rows are computed once per distinct pair and gathered into
    # one (hops, rates) float array; no (hops, rates) object array of erfc
    # values, nor mean and std temporaries, is held beside it
    rates = np.arange(0.0, 14.01, 0.25)
    chain = [HopMoments(mean=10.0, variance=4.0), HopMoments(mean=7.0, variance=1.0)] * 5_000
    gaussian_chain_outage(chain[:2], rates)  # one-time allocations stay out of the peak
    peak = traced_peak(lambda: gaussian_chain_outage(chain, rates))
    assert peak <= 1.5 * 8 * len(chain) * rates.size, peak


def test_network_outage_single_hop_is_hop_outage():
    rates = np.array([2.0, 5.0, 7.5])
    got = gaussian_chain_outage([HopMoments(mean=5.0, variance=1.0)], rates)
    np.testing.assert_allclose(got, q_function(5.0 - rates), rtol=1e-12)


def test_network_outage_product_structure():
    # three identical hops at per-hop outage 0.1
    got = gaussian_chain_outage([HopMoments(mean=Z_FOR_P01, variance=1.0)] * 3, np.array([0.0]))[0]
    assert got == pytest.approx(1.0 - 0.9 ** 3, abs=1e-9)


def test_network_outage_keeps_the_deep_tail():
    # 1 - prod(1 - p) reads 0 once every p is below about 1e-16; the chain
    # outage of three hops at p = 1e-20 each is 3e-20 to first order
    z = norm.isf(1e-20)
    p = q_function(z)
    assert p == pytest.approx(1e-20, rel=1e-12, abs=0.0)
    got = gaussian_chain_outage([HopMoments(mean=z, variance=1.0)] * 3, np.array([0.0]))[0]
    assert got == pytest.approx(3e-20, rel=1e-12, abs=0.0)


def test_network_outage_saturates_cleanly():
    # a hop certain to fail folds to exactly 1 without a warning, and a
    # chain certain to succeed reads +0.0, never -0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hops = [HopMoments(mean=0.0, variance=1.0), HopMoments(mean=5.0, variance=1.0)]
        got = gaussian_chain_outage(hops, np.array([40.0]))[0]
        never = gaussian_chain_outage([HopMoments(mean=60.0, variance=1.0)], np.array([0.0]))[0]
    assert got == 1.0
    assert never == 0.0 and math.copysign(1.0, never) == 1.0


def test_analytical_fold_matches_per_rate_loop():
    # three hops with distinct moments, two by quadrature and one sampled:
    # the array fold keeps the loop's arithmetic and hop order bit for bit
    hops = (
        HopConfig(tx_antennas=2, rx_antennas=2, snr_db=20.0, rsi_snr_db=8.0, rsi_tx_antennas=2),
        HopConfig(tx_antennas=2, rx_antennas=2, snr_db=14.0, rsi_snr_db=3.0, rsi_tx_antennas=1),
        HopConfig(tx_antennas=1, rx_antennas=3, snr_db=25.0),
    )
    cfg = NetworkConfig(hops=hops, mode=DuplexMode.FULL_DUPLEX)
    rates = np.arange(0.0, 14.01, 0.25)
    moments = chain_moments(cfg, substream(SEED, 30), 3000)
    got = gaussian_chain_outage(moments, rates)
    assert [m.source for m in moments] == ["quadrature", "quadrature", "sampled"]
    assert len({m.mean for m in moments}) == 3
    assert np.array_equal(got, _reference_chain_outage(moments, rates))
    assert 0.0 < got[8] < got[-8] < 1.0


def test_chain_moments_runs_the_quadrature_once_per_distinct_hop(monkeypatch):
    # a scenario's [hop] section repeats one HopConfig over the relays: 40
    # hops of three distinct configs take three quadratures, and the two
    # equal sampled hops still draw on their own streams
    relay = HopConfig(tx_antennas=2, rx_antennas=2, snr_db=20.0, rsi_snr_db=5.0)
    sampled = HopConfig(tx_antennas=2, rx_antennas=3, snr_db=20.0)
    hops = (relay,) * 37 + (sampled,) * 2 + (HOP_2X2_20DB,)
    cfg = NetworkConfig(hops=hops, mode=DuplexMode.FULL_DUPLEX)
    quadrature, calls = outage.quadrature_hop_moments, []

    def counted(hop):
        calls.append(hop)
        return quadrature(hop)

    monkeypatch.setattr(outage, "quadrature_hop_moments", counted)
    got = chain_moments(cfg, substream(SEED, 32), 2000)
    assert calls == [cfg.hops[0], sampled, HOP_2X2_20DB]
    reference = [
        quadrature(hop) or HopMoments(*sampled_moments(hop, 2000, stream, APPROX_MI), 2000)
        for hop, stream in zip(cfg.hops, substream(SEED, 32).spawn(cfg.n_hops))
    ]
    assert got == reference
    assert [m.source for m in got[36:]] == ["quadrature", "sampled", "sampled", "quadrature"]
    assert got[37] != got[38]


def test_hd_analytical_curve_is_fd_curve_at_twice_the_rate():
    # half duplex halves every hop's mutual information: mean x 1/2,
    # variance x 1/4, both exact in binary floating point, so on the same
    # stream the curve at R is the RSI-free full-duplex curve at 2R
    rates = np.arange(0.0, 7.01, 0.25)
    hd = gaussian_chain_outage(
        chain_moments(_chain(3, DuplexMode.HALF_DUPLEX), substream(SEED, 31), 2000), rates
    )
    fd = gaussian_chain_outage(chain_moments(_chain(3), substream(SEED, 31), 2000), 2.0 * rates)
    assert np.array_equal(hd, fd)
    assert 0.0 < hd[12] < 1.0


def test_network_config_validation():
    with pytest.raises(ValueError):
        NetworkConfig(hops=(), mode=DuplexMode.FULL_DUPLEX)
    rsi_hop = HopConfig(
        tx_antennas=2, rx_antennas=2, snr_db=20.0, rsi_snr_db=8.0, rsi_tx_antennas=4
    )
    # interferer antenna count must match the next transmitter
    with pytest.raises(ValueError):
        NetworkConfig(hops=(rsi_hop, HOP_2X2_20DB), mode=DuplexMode.FULL_DUPLEX)
    # and, on the terminal hop, its own transmitter
    with pytest.raises(ValueError, match="hop 2: rsi_tx_antennas=4 does not match hop 2"):
        NetworkConfig(hops=(HOP_2X2_20DB, rsi_hop), mode=DuplexMode.FULL_DUPLEX)
    with pytest.raises(ValueError):
        NetworkConfig(hops=(rsi_hop,), mode=DuplexMode.HALF_DUPLEX)
    # the mode is a DuplexMode: text would run as full duplex with no time share
    for mode in ("hd", None):
        with pytest.raises(ValueError, match="mode must be a DuplexMode"):
            NetworkConfig(hops=(HOP_2X2_20DB,), mode=mode)
    # every hop is a HopConfig, the last one too (its size sets the one before)
    for hops, k in ((("x",), 1), ((HOP_2X2_20DB, "x"), 2), ((HOP_2X2_20DB, None), 2)):
        with pytest.raises(ValueError, match=f"^hops: hop {k} must be a HopConfig, got "):
            NetworkConfig(hops=hops, mode=DuplexMode.FULL_DUPLEX)


def test_min_mutual_info_extreme_rates():
    samples = _weakest_hop(_chain(3), substream(SEED, 0), 2000)
    assert samples.shape == (2000,)
    assert np.all(samples > 0.0)  # rate 0 never in outage
    assert np.all(samples < 1000.0)  # absurd rate always in outage
    p, se = montecarlo_outage(_chain(3), np.array([0.0, 1000.0]), substream(SEED, 0), 2000)
    assert np.array_equal(p, [0.0, 1.0]) and np.array_equal(se, [0.0, 0.0])


def test_montecarlo_zero_rate_under_extreme_rsi():
    # a 3x3 first hop at -60 dB SNR under 100 dB RSI: its exact mutual
    # information, a difference of two dense log-dets of nearly equal size,
    # must not read below 0, so no realization is in outage at rate 0
    cfg = NetworkConfig(
        hops=(HopConfig(3, 3, snr_db=-60.0, rsi_snr_db=100.0), HopConfig(3, 3, snr_db=20.0)),
        mode=DuplexMode.FULL_DUPLEX,
    )
    p, _ = montecarlo_outage(cfg, np.array([0.0]), substream(SEED, 21), 20_000)
    assert p[0] == 0.0


def _montecarlo_point(cfg, rate, n_realizations, rng):
    """Monte Carlo outage and its standard error at a single rate."""
    p, se = montecarlo_outage(cfg, np.array([rate]), rng, n_realizations)
    return float(p[0]), float(se[0])


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
    # common random numbers: identical draws, only the prefactor differs,
    # and halving both the samples and the rate is exact in binary floating
    # point, so the half-duplex curve at R/2 is the full-duplex curve at R
    rates = np.arange(0.25, 20.01, 0.25)
    fd, fd_se = montecarlo_outage(_chain(2), rates, substream(SEED, 6), 20_000)
    hd, hd_se = montecarlo_outage(
        _chain(2, mode=DuplexMode.HALF_DUPLEX), rates / 2.0, substream(SEED, 6), 20_000
    )
    assert np.array_equal(fd, hd) and np.array_equal(fd_se, hd_se)
    assert np.any((fd > 0.0) & (fd < 1.0))


def test_rsi_levels_share_their_desired_link_draws():
    # each hop draws its desired link before its interference link, and
    # neither draw depends on the RSI level, so on one stream every
    # realization sees the same channels at every level: a vanishing RSI
    # reproduces the RSI-free realizations, and the exact mutual
    # information, decreasing in rho for fixed channels, falls realization
    # by realization as the RSI grows
    def weakest_hop(rsi_db):
        hop = HopConfig(tx_antennas=2, rx_antennas=2, snr_db=20.0, rsi_snr_db=rsi_db)
        return _weakest_hop(_chain(3, hop=hop), substream(SEED, 40), 4096)

    free = weakest_hop(None)
    faint, weak, strong = (weakest_hop(db) for db in (-300.0, 0.0, 10.0))
    np.testing.assert_allclose(faint, free, rtol=0.0, atol=1e-12)
    assert np.all(weak <= free + 1e-12) and np.all(strong <= weak + 1e-12)
    assert np.median(free - strong) > 1.0


def test_empirical_outage_matches_broadcast_compare(monkeypatch):
    # ties in the samples and rates equal to sample values: "in outage"
    # means strictly below the rate, as in the broadcast compare over every
    # sample, also when equal samples fall in different chunks
    cfg = _chain(2)
    n = 20_000  # three chunks
    kernel = mutual_info.sample_hop_chunk

    def rounded(hop, stream, count, fields):
        return tuple(np.round(f, 1) for f in kernel(hop, stream, count, fields))

    monkeypatch.setattr(mutual_info, "sample_hop_chunk", rounded)
    samples = _weakest_hop(cfg, substream(SEED, 12), n)
    chunks = np.split(samples, [CHUNK_SIZE, 2 * CHUNK_SIZE])
    assert chunks[-1].size == n - 2 * CHUNK_SIZE > 0
    assert np.intersect1d(chunks[0], chunks[1]).size > 0  # ties across chunks
    rates = np.concatenate(
        ([-1.0, 0.0], np.unique(samples)[::7], [samples.max() + 1.0])
    )
    rates.sort()
    p, se = montecarlo_outage(cfg, rates, substream(SEED, 12), n)
    want = np.mean(samples[np.newaxis, :] < rates[:, np.newaxis], axis=-1)
    assert np.array_equal(p, want)
    assert np.array_equal(se, np.sqrt(want * (1.0 - want) / n))
    assert p[0] == 0.0 and p[-1] == 1.0


def test_montecarlo_counts_add_up_across_chunks():
    # the Monte Carlo draws each hop through hop_chunks on its own child of
    # its stream and takes the weakest hop, so its samples are those of
    # _weakest_hop.  They are distinct: at the k-th smallest sample exactly
    # k realizations lie strictly below, so the per-chunk counts (three
    # chunks here) must add up to k / n bit for bit, on a chain of like
    # hops, one of unlike hops (with and without RSI, closed-form and factor
    # routes) and a half-duplex one
    n = 20_000
    unlike = NetworkConfig(
        hops=(
            HopConfig(2, 2, 20.0, rsi_snr_db=5.0),
            HopConfig(2, 3, 15.0),
            HopConfig(3, 2, 25.0, rsi_snr_db=0.0),
        ),
        mode=DuplexMode.FULL_DUPLEX,
    )
    for cfg in (_chain(2), unlike, _chain(2, mode=DuplexMode.HALF_DUPLEX)):
        samples = _weakest_hop(cfg, substream(SEED, 12), n)
        assert np.unique(samples).size == n
        rates = np.sort(samples)[::97]
        p, _ = montecarlo_outage(cfg, rates, substream(SEED, 12), n)
        assert np.array_equal(p, np.arange(0, n, 97) / n)


def test_montecarlo_memory_does_not_grow_with_hops():
    # the hops advance in lockstep and fold into a running minimum, so one
    # hop's chunk is in hand at a time: 16 hops peak where 2 do (zipping
    # the hops' iterators would hold 14 more chunks at once)
    rates = np.arange(0.0, 14.01, 0.05)
    n = 3 * CHUNK_SIZE

    def peak(n_hops):
        cfg = _chain(n_hops)
        return traced_peak(lambda: montecarlo_outage(cfg, rates, substream(SEED, 14), n))

    peak(2)  # one-time allocations (caches, lazy imports) stay out of both
    short, long = peak(2), peak(16)
    assert abs(long - short) < 0.5 * 2**20, (short, long)


def test_montecarlo_outage_single_point():
    p, se = montecarlo_outage(_chain(1), np.array([4.0]), substream(SEED, 7), 2000)
    assert p.shape == se.shape == (1,)


def test_analytical_curve_monotone():
    rates = np.arange(0.0, 14.01, 0.5)
    probs = gaussian_chain_outage(chain_moments(_chain(3), substream(SEED, 8), 2000), rates)
    assert np.all(np.diff(probs) >= 0.0)
    assert np.all((probs >= 0.0) & (probs <= 1.0))


def test_montecarlo_curve_monotone():
    # one sample set across the grid makes the empirical CDF exactly monotone
    rates = np.arange(0.0, 14.01, 0.5)
    probs, _ = montecarlo_outage(_chain(3), rates, substream(SEED, 9), 4000)
    assert np.all(np.diff(probs) >= 0.0)


def test_rate_grid_validation():
    bad_grids = (
        [2.0, 1.0], [1.0, 1.0], [], [[1.0, 2.0]], [1.0, np.nan], [np.nan], [0.0, np.inf]
    )
    for rates in bad_grids:
        with pytest.raises(ValueError, match="rate grid"):
            montecarlo_outage(_chain(1), np.array(rates), substream(SEED, 10), 2000)
        with pytest.raises(ValueError, match="rate grid"):
            gaussian_chain_outage([HopMoments(mean=5.0, variance=1.0)], np.array(rates))
    # a one-point grid has no step to be ascending and passes
    assert np.array_equal(check_rate_grid([4.0]), [4.0])


def test_norsi_preset_outage_half_at_adjusted_mean_rate():
    # with K identical hops the chain median sits where each hop's survival
    # is 0.5**(1/K), i.e. at the per-hop mean shifted down by z* per-hop std
    sc = load_preset("fig3-fd-norsi")
    moments = [
        HopMoments(*sampled_moments(hop, 100_000, substream(SEED, 20, k), APPROX_MI))
        for k, hop in enumerate(sc.network.hops)
    ]
    mu = float(np.mean([m.mean for m in moments]))
    sigma = float(np.mean([math.sqrt(m.variance) for m in moments]))
    z_star = norm.isf(1.0 - 0.5 ** (1.0 / sc.network.n_hops))
    rate = mu - z_star * sigma
    got = gaussian_chain_outage(moments, np.array([rate]))
    assert got[0] == pytest.approx(0.5, abs=0.02)
