"""End-to-end acceptance gate.

Each test checks one headline agreement claim at its stated tolerance,
appends a PASS/FAIL line to the terminal summary (see conftest), and
asserts.  Tolerances are implemented as stated, not tuned to the code.

Test 4 holds the closed form to Monte Carlo within 0.03 and reads FAIL on
the 2x2 presets: each hop's exact mutual information there has skewness
of about -0.3, and the paper's Gaussian law for it is only approximate at
two antennas.  Tests 4a and 4b split that gap.  Both use exact per-hop
mutual information drawn on the moment streams (``STREAM_HOP_MOMENTS``),
and fold it over the chain in the test:

- 4a, the pairing-bound midpoint: the analytical curve against a Gaussian
  fold of the exact moments.  Only the midpoint separates the two, so the
  stated 0.03 applies.  The analytical moments come by quadrature, so the
  two sides share no draws, and the line reports the fold's own standard
  error (delta method over each hop's sample mean and standard deviation).
  Without RSI the midpoint is the exact log-det, and 4a then reads that
  sampling error alone.
- 4b, the Monte Carlo chain: Monte Carlo against the fold of each hop's
  *empirical* CDF.  The two estimate the same outage from independent
  draws, so they differ by sampling error only.  A two-proportion z-test
  at each rate, with pooled variance, allows 4.5 standard errors; over the
  228 rate points of the four presets, unbiased estimates exceed that with
  probability below 0.2 %.

What remains, the Gaussian fold against the empirical fold, is the
Gaussian law's own error.  The method puts no number on it; test 4
reports it.

Tests 1, 6 and 7 run the oracle checks of ``relay_outage.validation``
(the ones ``relay-outage validate`` runs) at acceptance sizes and cases,
and take each verdict from the result's own ``passed``.

Test 5c compares 35 dB of RSI attenuation with none, on paired draws.
Per hop 0 <= I(0) - I(rho) <= log2 det(I + rho*Wbar), and both runs share
their desired-channel draws, so the attenuated curve lies on or above the
RSI-free one at every rate (5c-i, exact).  5c-ii is a first-order check of
the gap's size: the RSI costs about l = E log2 det(I + rho*Wbar) of rate
(Laguerre quadrature), so the gap should stay within
max_R [P0(R + l) - P0(R)], with P0 the RSI-free Monte Carlo CDF.  It is an
estimate, not a bound, because the shift in each realization is random.
"""
import time
from typing import NamedTuple

import numpy as np
import pytest
from scipy import stats

from conftest import ACCEPTANCE_LINES
from relay_outage import cli, validation
from relay_outage.mutual_info import APPROX_MI, EXACT, EXACT_MI, MIDPOINT, sample_hop_fields
from relay_outage.outage import DuplexMode, analytical_outage, montecarlo_outage
from relay_outage.rng import STREAM_DISTRIBUTION, STREAM_HOP_MOMENTS, STREAM_NETWORK_MC, substream
from relay_outage.scenario import load_preset
from relay_outage.wishart_stats import expected_logdet

SEED = 12345
N_ACCEPT = 100_000

DIST_PRESETS = (
    "dist-snr10-rsineg10",
    "dist-snr10-rsi0",
    "dist-snr20-rsi0",
    "dist-snr30-rsi15",
)
CURVE_PRESETS = ("fig3-fd-norsi", "fig3-fd-rsi12", "fig3-fd-rsi5", "fig3-hd")

# Test 6: Wishart orders (m, p) and log-det scales of the quadrature checks.
QUADRATURE_ORDERS = tuple((m, p) for m in (1, 2, 4) for p in (m, m + 2))
QUADRATURE_CASES = tuple(
    (m, p, scale) for m, p in QUADRATURE_ORDERS for scale in (1.0, 10.0, 100.0)
)

HD_FACTOR = 0.5  # half-duplex time share (README: half the spectral efficiency)
FOLD_Z_LIMIT = 4.5  # test 4b, in pooled standard errors

# fig3-fd-rsi35 as its scenario file states it: RSI at -15 dB from 2 antennas.
RSI35_DB = -15.0
RSI35_TX_ANTENNAS = 2


def record(ok: bool, tag: str, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} {tag}: {detail}"
    ACCEPTANCE_LINES.append(line)
    assert ok, line


class DistFields(NamedTuple):
    exact: np.ndarray  # exact log-det
    midpoint: np.ndarray  # pairing-bound midpoint
    approx_mi: np.ndarray  # approximated mutual information


@pytest.fixture(scope="module")
def dist_pairs():
    """Each distribution preset's paired draws, as ``distribution`` makes them."""
    out = {}
    for name in DIST_PRESETS:
        sc = load_preset(name)
        hop = sc.network.hops[sc.dist_hop - 1]
        out[name] = DistFields(*sample_hop_fields(
            hop, sc.dist_samples, substream(sc.seed, STREAM_DISTRIBUTION),
            (EXACT, MIDPOINT, APPROX_MI),
        ))
    return out


class CurveRun(NamedTuple):
    analytical: np.ndarray  # closed-form outage per rate
    montecarlo: np.ndarray  # Monte Carlo outage per rate
    std_errors: np.ndarray  # its binomial standard error
    seconds: float


def run_montecarlo(sc, rates):
    """The preset's Monte Carlo outage at ``rates``, on its own stream."""
    return montecarlo_outage(sc.network, rates, substream(sc.seed, STREAM_NETWORK_MC), N_ACCEPT)


@pytest.fixture(scope="module")
def curve_runs():
    out = {}
    for name in CURVE_PRESETS + ("fig3-fd-rsi35",):
        sc = load_preset(name)
        t0 = time.perf_counter()
        analytical = analytical_outage(
            sc.network, sc.rates, substream(sc.seed, STREAM_HOP_MOMENTS), N_ACCEPT
        )
        montecarlo, std_errors = run_montecarlo(sc, sc.rates)
        out[name] = CurveRun(analytical, montecarlo, std_errors, time.perf_counter() - t0)
    return out


class ChainFolds(NamedTuple):
    gaussian: np.ndarray  # Gaussian law per hop, exact moments
    gaussian_se: np.ndarray  # its standard error from the moments' sampling
    empirical: np.ndarray  # empirical CDF per hop
    skews: list[float]  # per hop


def gaussian_outage_and_se(mi: np.ndarray, rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian outage P(I < R) at the sample's moments, and its delta-method SE.

    The sample mean and standard deviation have variances sigma^2 / n and
    (m4 - sigma^4) / (4 sigma^2 n) and covariance m3 / (2 sigma n), with
    m3 and m4 the central moments.
    """
    n, mean, sd = mi.size, mi.mean(), mi.std(ddof=1)
    dev = mi - mean
    m3, m4 = float(np.mean(dev**3)), float(np.mean(dev**4))
    z = (rates - mean) / sd
    slope = stats.norm.pdf(z) / sd  # -dp/dmean; -dp/dsd is slope * z
    variance = slope**2 * (sd**2 + z**2 * (m4 - sd**4) / (4.0 * sd**2) + z * m3 / sd) / n
    return stats.norm.cdf(z), np.sqrt(variance)


@pytest.fixture(scope="module")
def exact_mi_folds():
    """Chain folds of exact per-hop mutual information, per curve preset.

    The exact draws come from the analytical path's moment streams, the
    streams its moments would be sampled from where quadrature does not
    converge; on these presets every hop's moments come by quadrature.  The
    fold and the half-duplex factor are the test's own, not the package's.
    """
    out = {}
    for name in CURVE_PRESETS:
        sc = load_preset(name)
        fd = sc.network.mode is DuplexMode.FULL_DUPLEX
        streams = substream(sc.seed, STREAM_HOP_MOMENTS).spawn(sc.network.n_hops)
        gaussian_sf, gaussian_se, empirical_sf, skews = [], [], [], []
        for hop, stream in zip(sc.network.hops, streams):
            (mi,) = sample_hop_fields(hop, N_ACCEPT, stream, (EXACT_MI,))
            if not fd:
                mi = HD_FACTOR * mi
            p, se = gaussian_outage_and_se(mi, sc.rates)
            gaussian_sf.append(1.0 - p)
            gaussian_se.append(se)
            empirical_sf.append(1.0 - np.searchsorted(np.sort(mi), sc.rates) / mi.size)
            skews.append(float(stats.skew(mi)))
        # the chain outage moves with hop k's p_k by the other hops' survival
        others = [
            np.prod(gaussian_sf[:k] + gaussian_sf[k + 1:], axis=0) for k in range(len(gaussian_sf))
        ]
        out[name] = ChainFolds(
            gaussian=1.0 - np.prod(gaussian_sf, axis=0),
            gaussian_se=np.sqrt(sum((o * se) ** 2 for o, se in zip(others, gaussian_se))),
            empirical=1.0 - np.prod(empirical_sf, axis=0),
            skews=skews,
        )
    return out


def max_abs(x: np.ndarray) -> float:
    return float(np.max(np.abs(x)))


def check_line(check: validation.CheckResult) -> str:
    """Summary of a ``validation.check_*`` result; ``check.passed`` is its verdict."""
    return f"{check.name} = {check.measured:.3g} (limit {check.limit:g}; {check.detail})"


def test_pairing_bound_sandwich():
    """Exact log-det never escapes the [lower, upper] pairing bounds."""
    t0 = time.perf_counter()
    check = validation.check_sandwich_bound(SEED, N_ACCEPT)
    elapsed = time.perf_counter() - t0
    record(
        check.passed and elapsed < 30.0,
        "1 pairing-bound sandwich",
        f"{check_line(check)}, {elapsed:.1f} s (limit 30 s)",
    )


def test_midpoint_distribution_ks(dist_pairs):
    """Bound-midpoint log-det distribution is close to the exact one."""
    worst = max(
        float(stats.ks_2samp(p.exact, p.midpoint).statistic) for p in dist_pairs.values()
    )
    by_name = ", ".join(
        f"{name}={stats.ks_2samp(p.exact, p.midpoint).statistic:.4f}"
        for name, p in dist_pairs.items()
    )
    record(
        worst < 0.02,
        "2 midpoint distribution",
        f"max KS = {worst:.4f} (limit 0.02); {by_name}",
    )


def test_approx_mi_gaussianity(dist_pairs):
    """Approximated per-hop mutual information is near-Gaussian."""
    skews = {n: float(stats.skew(p.approx_mi)) for n, p in dist_pairs.items()}
    kurts = {n: float(stats.kurtosis(p.approx_mi)) for n, p in dist_pairs.items()}
    worst_skew = max(abs(v) for v in skews.values())
    worst_kurt = max(abs(v) for v in kurts.values())
    record(
        worst_skew < 0.3 and worst_kurt < 0.5,
        "3 gaussianity",
        f"max |skewness| = {worst_skew:.3f} (limit 0.3), "
        f"max |excess kurtosis| = {worst_kurt:.3f} (limit 0.5)",
    )


def test_analytical_matches_simulation(curve_runs, exact_mi_folds):
    """Closed-form outage curves track Monte Carlo within 0.03.

    Reads FAIL on the 2x2 presets (module docstring).  The line splits each
    gap into the midpoint's part (4a) and the Gaussian law's part.
    """
    rows = []
    for name in CURVE_PRESETS:
        run = curve_runs[name]
        folds = exact_mi_folds[name]
        rows.append((
            name,
            max_abs(run.analytical - run.montecarlo),
            max_abs(run.analytical - folds.gaussian),
            max_abs(folds.gaussian - folds.empirical),
            folds.skews,
        ))
    worst = max(total for _, total, _, _, _ in rows)
    runtime = sum(curve_runs[name].seconds for name in CURVE_PRESETS)
    by_name = "; ".join(
        f"{name}={total:.4f} (midpoint {midpoint:.4f}, Gaussian law {law:.4f}, "
        f"skew {'/'.join(f'{g:+.2f}' for g in skews)})"
        for name, total, midpoint, law, skews in rows
    )
    record(
        worst < 0.03 and runtime < 300.0,
        "4 curve agreement",
        f"max |analytical - MC| = {worst:.4f} (limit 0.03); {by_name}; "
        f"runtime {runtime:.1f} s (limit 300 s)",
    )


def test_midpoint_curve_error(curve_runs, exact_mi_folds):
    """The pairing-bound midpoint moves the analytical curve by under 0.03."""
    gaps = {}
    for name in CURVE_PRESETS:
        gap = np.abs(curve_runs[name].analytical - exact_mi_folds[name].gaussian)
        worst_rate = int(np.argmax(gap))
        gaps[name] = (float(gap[worst_rate]), float(exact_mi_folds[name].gaussian_se[worst_rate]))
    worst = max(gap for gap, _ in gaps.values())
    by_name = ", ".join(f"{name}={gap:.4f} (SE {se:.4f})" for name, (gap, se) in gaps.items())
    record(
        worst < 0.03,
        "4a midpoint curve error",
        f"max |analytical - Gaussian fold of exact moments| = {worst:.4f} "
        f"(limit 0.03; SE of the fold at each preset's worst rate, {N_ACCEPT} draws "
        f"a hop); {by_name}",
    )


def test_montecarlo_matches_empirical_fold(curve_runs, exact_mi_folds):
    """Monte Carlo chain outage equals the fold of per-hop empirical CDFs."""
    worst_z, worst_gap, points = 0.0, 0.0, 0
    for name in CURVE_PRESETS:
        montecarlo = curve_runs[name].montecarlo
        folds = exact_mi_folds[name]
        gap = np.abs(montecarlo - folds.empirical)
        # Two-proportion z-test, variance at the pooled value: a plug-in SE
        # read off a tail count of one or two is far too small.  The fold's
        # variance is at most the binomial one.  One draw in N_ACCEPT is
        # the resolution of either estimate.
        pooled = 0.5 * (montecarlo + folds.empirical)
        se = np.maximum(np.sqrt(2.0 * pooled * (1.0 - pooled) / N_ACCEPT), 1.0 / N_ACCEPT)
        worst_z = max(worst_z, float(np.max(gap / se)))
        worst_gap = max(worst_gap, float(np.max(gap)))
        points += gap.size
    record(
        worst_z <= FOLD_Z_LIMIT,
        "4b Monte Carlo vs empirical fold",
        f"max |MC - empirical-CDF fold| = {worst_gap:.4f}, max z = {worst_z:.2f} "
        f"(limit {FOLD_Z_LIMIT}) over {points} rates",
    )


def test_interference_level_ordering(curve_runs):
    """More residual self-interference means strictly worse outage."""
    trio = [curve_runs[n] for n in ("fig3-fd-norsi", "fig3-fd-rsi12", "fig3-fd-rsi5")]
    probs = np.stack([c.montecarlo for c in trio])
    errs = np.stack([c.std_errors for c in trio])
    mask = np.all((probs >= 0.01) & (probs <= 0.99), axis=0)
    with np.errstate(invalid="ignore"):  # saturated rates divide 0 by 0
        z01 = (probs[1] - probs[0]) / np.hypot(errs[0], errs[1])
        z12 = (probs[2] - probs[1]) / np.hypot(errs[1], errs[2])
    min_z = float(min(z01[mask].min(), z12[mask].min()))
    record(
        mask.any() and min_z > 3.0,
        "5a interference ordering",
        f"min separation z = {min_z:.1f} (need > 3) over {int(mask.sum())} rates "
        "with all three curves inside [0.01, 0.99]",
    )


def test_hd_beats_heavy_rsi_somewhere(curve_runs):
    """Half-duplex wins over full-duplex when interference is strong."""
    hd = curve_runs["fig3-hd"]
    fd = curve_runs["fig3-fd-rsi5"]
    with np.errstate(invalid="ignore"):
        z = (fd.montecarlo - hd.montecarlo) / np.hypot(fd.std_errors, hd.std_errors)
    wins = int(np.sum(z > 3.0))
    record(
        wins > 0,
        "5b duplexing crossover",
        f"HD outage below FD(-5 dB attenuation) at {wins} of {z.size} rates (z > 3)",
    )


def test_strong_attenuation_matches_no_rsi(curve_runs):
    """35 dB of attenuation leaves an RSI cost of about its mean log-det.

    The 35 dB curve does not match the RSI-free one within 0.01; it sits
    above it by what ell bits of rate cost.  5c-i: paired draws put it on
    or above the RSI-free curve at every rate.  5c-ii, a first-order check:
    the gap stays within the RSI-free Monte Carlo CDF's rise over
    ell = E log2 det(I + rho*Wbar).
    """
    sc = load_preset("fig3-fd-rsi35")
    assert sc.network.hops[0].rsi_snr_db == RSI35_DB
    rho = 10.0 ** (RSI35_DB / 10.0) / RSI35_TX_ANTENNAS
    ell = expected_logdet(2, RSI35_TX_ANTENNAS, rho)

    rates = sc.rates
    p0 = curve_runs["fig3-fd-norsi"].montecarlo
    p0_shifted, _ = run_montecarlo(load_preset("fig3-fd-norsi"), rates + ell)
    limit = float(np.max(p0_shifted - p0))
    gaps = curve_runs["fig3-fd-rsi35"].montecarlo - p0
    below = int(np.sum(gaps < 0.0))
    gap_mc = float(np.max(gaps))
    gap_analytical = max_abs(
        curve_runs["fig3-fd-rsi35"].analytical - curve_runs["fig3-fd-norsi"].analytical
    )
    record(
        below == 0 and gap_mc <= limit,
        "5c 35 dB attenuation",
        f"5c-i RSI curve below no-RSI curve at {below} of {rates.size} rates (need 0); "
        f"5c-ii max gap = {gap_mc:.4f} (first-order limit max P0(R + l) - P0(R) = "
        f"{limit:.4f}, l = {ell:.4f} bits); analytical curves gap {gap_analytical:.4f}",
    )


def test_quadrature_matches_sampling():
    """Laguerre-quadrature log-det mean agrees with direct sampling."""
    moments = validation.check_logdet_moments(SEED, N_ACCEPT, QUADRATURE_CASES)
    density = validation.check_density_normalization(QUADRATURE_ORDERS)
    record(
        moments.passed and density.passed,
        "6 quadrature cross-check",
        f"{check_line(moments)} over {len(QUADRATURE_CASES)} cases, {N_ACCEPT} draws each; "
        f"{check_line(density)}",
    )


def test_scalar_rayleigh_oracle():
    """Single-antenna half-duplex outage matches the known closed form."""
    check = validation.check_siso_rayleigh(SEED, N_ACCEPT)
    record(check.passed, "7 scalar Rayleigh oracle", check_line(check))


def test_repeated_runs_are_byte_identical(tmp_path):
    """Same seed and inputs produce byte-identical CSV output."""
    outage_args = [
        "outage", "--preset", "fig3-fd-rsi12", "--samples", "4000", "--realizations", "5000",
    ]
    dist_args = ["distribution", "--preset", "dist-snr20-rsi0", "--samples", "30000"]
    for sub in ("a", "b"):
        assert cli.main(outage_args + ["--out", str(tmp_path / sub)]) == 0
        assert cli.main(dist_args + ["--out", str(tmp_path / sub)]) == 0
    outage_same = (
        (tmp_path / "a" / "fig3-fd-rsi12-outage.csv").read_bytes()
        == (tmp_path / "b" / "fig3-fd-rsi12-outage.csv").read_bytes()
    )
    dist_same = (
        (tmp_path / "a" / "dist-snr20-rsi0-distribution.csv").read_bytes()
        == (tmp_path / "b" / "dist-snr20-rsi0-distribution.csv").read_bytes()
    )
    record(
        outage_same and dist_same,
        "8 determinism",
        "outage and distribution CSVs byte-identical across repeated runs",
    )
