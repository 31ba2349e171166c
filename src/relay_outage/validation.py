"""Self-checks wiring the analytical paths against independent oracles.

Each check compares one production code path against a route that does
not share its implementation: quadrature of the normal tail for the
Q-function, exact per-sample determinants for the pairing bounds, the
scalar Rayleigh closed form for the half-duplex single-antenna chain, and
Laguerre quadrature for the sampled log-det means.  All three quadratures
(normal tail, density mass, log-det mean) call ``gauss_legendre`` of
``wishart_stats``, on numpy alone.  The sampled sides all come from the
production per-hop kernel through ``hop_chunks``, one substream per chunk,
and each holds one chunk at a time: the sandwich check keeps only each
chunk's worst bound violation, the log-det check the running moments of
``sampled_moments``.
Each check returns a ``CheckResult``, whose ``passed`` property (the
measurement is at most the limit; NaN fails) is the one verdict rule:
``relay-outage validate`` runs them all through ``run_validation`` and
reports one line per check, and the acceptance tests call the same check
functions at their own sizes and cases and read the same property.
"""
from __future__ import annotations

import math
import time
from typing import NamedTuple

import numpy as np

from . import outage as _outage
from .mutual_info import EXACT, LOWER, UPPER, HopConfig, hop_chunks, sampled_moments
from .outage import DuplexMode, NetworkConfig, montecarlo_outage
from .rng import STREAM_VALIDATION, substream
from .scenario import DEFAULT_SEED
from .wishart_stats import eigen_expectation, expected_logdet, gauss_legendre

SANDWICH_PAIRS = ((10.0, 1.0), (1.0, 10.0), (100.0, 0.1))
DENSITY_GRID = ((1, 1), (2, 3), (4, 6), (8, 12))
MOMENT_CASES = ((1, 1, 1.0), (2, 2, 10.0), (2, 4, 100.0))
# Limit on the siso check's max |z| over its 10 rates: a family-wise false
# alarm rate of 0.27 % (3 sigma), Sidak over the rates,
# Phi^-1(1 - (1 - 0.9973 ** (1 / 10)) / 2).
SISO_Z_LIMIT = 3.642
# Draws per sandwich/moment case and Monte Carlo realizations by default.
DEFAULT_SAMPLES = 100_000
DEFAULT_REALIZATIONS = 100_000


class CheckResult(NamedTuple):
    """One oracle check: what it measured, against which limit, and how."""

    name: str
    measured: float
    limit: float
    detail: str

    @property
    def passed(self) -> bool:
        """The one verdict rule of every check; a NaN measurement fails."""
        return self.measured <= self.limit


def hop_at_scales(rx: int, tx: int, eta: float, rho: float = 0.0) -> HopConfig:
    """A lone hop at the linear scales ``eta`` and ``rho``, to a few ulp."""
    return HopConfig(
        tx_antennas=tx,
        rx_antennas=rx,
        snr_db=10.0 * math.log10(eta * tx),
        rsi_snr_db=10.0 * math.log10(rho * tx) if rho > 0.0 else None,
    )


def _normal_tail(x: float) -> float:
    # cut at 40, where the remaining mass is below 1e-300
    return gauss_legendre(lambda t: np.exp(-0.5 * t * t), x, 40.0)[0] / math.sqrt(2.0 * math.pi)


def check_q_function() -> CheckResult:
    grid = np.linspace(-8.0, 8.0, 65)
    worst = max(abs(float(_outage.q_function(x)) - _normal_tail(x)) for x in grid)
    return CheckResult(
        "q-function", float(worst), 1e-12, "max |Q(x) - normal tail quadrature|, |x| <= 8"
    )


def _bound_violation(exact: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> float:
    return max(float((lower - exact).max()), float((exact - upper).max()))


def check_sandwich_bound(seed: int, n_samples: int) -> CheckResult:
    worst = -np.inf
    for i, (eta, rho) in enumerate(SANDWICH_PAIRS):
        hop, rng = hop_at_scales(2, 2, eta, rho), substream(seed, STREAM_VALIDATION, 0, i)
        for fields in hop_chunks(hop, n_samples, rng, (EXACT, LOWER, UPPER)):
            worst = max(worst, _bound_violation(*fields))
    return CheckResult(
        "sandwich-bound",
        worst,
        1e-9,
        f"max bound violation, {n_samples} draws x {len(SANDWICH_PAIRS)} scale pairs",
    )


def check_density_normalization(
    grid: tuple[tuple[int, int], ...] = DENSITY_GRID,
) -> CheckResult:
    worst = 0.0
    for rows, cols in grid:
        mass, _ = eigen_expectation(rows, cols, np.ones_like)
        worst = max(worst, abs(mass - 1.0))
    return CheckResult(
        "density-normalization",
        float(worst),
        1e-6,
        f"max |integral f - 1| over orders {grid}",
    )


def check_siso_rayleigh(seed: int, n_realizations: int) -> CheckResult:
    cfg = NetworkConfig(
        hops=(HopConfig(tx_antennas=1, rx_antennas=1, snr_db=20.0),),
        mode=DuplexMode.HALF_DUPLEX,
    )
    snr = cfg.hops[0].eta
    rates = np.linspace(0.5, 3.5, 10)
    empirical, _ = montecarlo_outage(
        cfg, rates, substream(seed, STREAM_VALIDATION, 1), n_realizations
    )
    worst = 0.0
    for rate, p_hat in zip(rates, empirical):
        exact = 1.0 - math.exp(-(2.0 ** (2.0 * rate) - 1.0) / snr)
        se = math.sqrt(exact * (1.0 - exact) / n_realizations)
        worst = max(worst, abs(float(p_hat) - exact) / se)
    return CheckResult(
        "siso-rayleigh-outage",
        worst,
        SISO_Z_LIMIT,
        f"max |z| vs scalar Rayleigh closed form, {n_realizations} realizations",
    )


def check_logdet_moments(
    seed: int,
    n_samples: int,
    cases: tuple[tuple[int, int, float], ...] = MOMENT_CASES,
) -> CheckResult:
    worst = 0.0
    for i, (rx, tx, scale) in enumerate(cases):
        hop = hop_at_scales(rx, tx, scale)
        analytic = expected_logdet(hop.rx_antennas, hop.tx_antennas, hop.eta)
        rng = substream(seed, STREAM_VALIDATION, 2, i)
        mean, variance = sampled_moments(hop, n_samples, rng, EXACT)
        gap = abs(mean - analytic)
        tolerance = max(0.01 * analytic, 3.0 * math.sqrt(variance) / math.sqrt(n_samples))
        worst = max(worst, gap / tolerance)
    return CheckResult(
        "logdet-moments",
        worst,
        1.0,
        "max |quadrature - MC mean| / max(1%, 3 SE) over (rx, tx, scale) cases",
    )


def run_validation(
    seed: int = DEFAULT_SEED,
    n_samples: int = DEFAULT_SAMPLES,
    n_mc: int = DEFAULT_REALIZATIONS,
) -> list[tuple[CheckResult, float]]:
    """Run every check; all must pass for a healthy installation.

    Returns each check's result with its wall seconds, in print order.
    ``n_samples`` draws go to each sandwich and moment case, ``n_mc``
    realizations to the Monte Carlo check.  Counts below the sampling
    functions' minimums raise ``ValueError``.
    """
    # Built per call, so that the check functions are looked up when run
    # and a wrapper put on the module (a tracer, a test's fake) is called.
    checks = (
        check_q_function,
        lambda: check_sandwich_bound(seed, n_samples),
        check_density_normalization,
        lambda: check_siso_rayleigh(seed, n_mc),
        lambda: check_logdet_moments(seed, n_samples),
    )
    results = []
    for check in checks:
        start = time.perf_counter()
        results.append((check(), time.perf_counter() - start))
    return results
