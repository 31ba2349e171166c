"""Self-checks wiring the analytical paths against independent oracles.

Each check compares one production code path against a route that does
not share its implementation: quadrature of the normal tail for the
Q-function, exact per-sample determinants for the pairing bounds, the
scalar Rayleigh closed form for the half-duplex single-antenna chain, and
Laguerre quadrature for the sampled log-det means.  All three quadratures
(normal tail, density mass, log-det mean) use the one Gauss-Legendre rule
of ``wishart_stats``, on numpy alone.  The sampled sides all come from the
production per-hop kernel (``sample_hop_chunk``), one substream per chunk;
the sandwich check keeps only each chunk's worst bound violation.
``relay-outage validate`` runs them all and reports one line per check;
the acceptance tests call the same check functions at their own sizes
and cases.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import outage as _outage
from .mutual_info import EXACT, LOWER, UPPER, HopConfig, map_hop_chunks, sample_hop_fields
from .outage import DuplexMode, NetworkConfig, montecarlo_outage
from .randmat import WishartParams
from .rng import STREAM_VALIDATION, substream
from .scenario import DEFAULT_SEED
from .wishart_stats import eigen_expectation, expected_logdet, gauss_legendre

SANDWICH_PAIRS = ((10.0, 1.0), (1.0, 10.0), (100.0, 0.1))
DENSITY_GRID = ((1, 1), (2, 3), (4, 6), (8, 12))
MOMENT_CASES = ((1, 1, 1.0), (2, 2, 10.0), (2, 4, 100.0))
# Draws per sandwich/moment case and Monte Carlo realizations by default.
DEFAULT_SAMPLES = 100_000
DEFAULT_REALIZATIONS = 100_000


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    limit: float
    detail: str
    seconds: float


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]
    seconds: float

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    @property
    def failures(self) -> list[str]:
        return [check.name for check in self.checks if not check.passed]


def _timed(fn) -> CheckResult:
    start = time.perf_counter()
    name, measured, limit, detail = fn()
    elapsed = time.perf_counter() - start
    return CheckResult(
        name=name,
        passed=bool(measured <= limit),
        measured=float(measured),
        limit=float(limit),
        detail=detail,
        seconds=elapsed,
    )


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


def check_q_function() -> tuple[str, float, float, str]:
    grid = np.linspace(-8.0, 8.0, 65)
    worst = max(abs(float(_outage.q_function(x)) - _normal_tail(x)) for x in grid)
    return "q-function", worst, 1e-12, "max |Q(x) - normal tail quadrature|, |x| <= 8"


def _bound_violation(exact: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> float:
    return max(float((lower - exact).max()), float((exact - upper).max()))


def check_sandwich_bound(seed: int, n_samples: int) -> tuple[str, float, float, str]:
    worst = -np.inf
    for i, (eta, rho) in enumerate(SANDWICH_PAIRS):
        rng = substream(seed, STREAM_VALIDATION, 0, i)
        worst = max(
            worst,
            *map_hop_chunks(
                hop_at_scales(2, 2, eta, rho), n_samples, rng, (EXACT, LOWER, UPPER),
                _bound_violation,
            ),
        )
    return (
        "sandwich-bound",
        worst,
        1e-9,
        f"max bound violation, {n_samples} draws x {len(SANDWICH_PAIRS)} scale pairs",
    )


def check_density_normalization(
    grid: tuple[tuple[int, int], ...] = DENSITY_GRID,
) -> tuple[str, float, float, str]:
    worst = 0.0
    for m, p in grid:
        mass, _ = eigen_expectation(WishartParams(m, p), np.ones_like)
        worst = max(worst, abs(mass - 1.0))
    return (
        "density-normalization",
        worst,
        1e-6,
        f"max |integral f - 1| over orders {grid}",
    )


def check_siso_rayleigh(seed: int, n_realizations: int) -> tuple[str, float, float, str]:
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
    return (
        "siso-rayleigh-outage",
        worst,
        3.0,
        f"max |z| vs scalar Rayleigh closed form, {n_realizations} realizations",
    )


def check_logdet_moments(
    seed: int,
    n_samples: int,
    cases: tuple[tuple[int, int, float], ...] = MOMENT_CASES,
) -> tuple[str, float, float, str]:
    worst = 0.0
    for i, (m, p, scale) in enumerate(cases):
        hop = hop_at_scales(m, p, scale)
        analytic = expected_logdet(WishartParams(m, p), hop.eta)
        rng = substream(seed, STREAM_VALIDATION, 2, i)
        (values,) = sample_hop_fields(hop, n_samples, rng, (EXACT,))
        gap = abs(float(values.mean()) - analytic)
        tolerance = max(
            0.01 * analytic, 3.0 * float(values.std(ddof=1)) / math.sqrt(n_samples)
        )
        worst = max(worst, gap / tolerance)
    return (
        "logdet-moments",
        worst,
        1.0,
        "max |quadrature - MC mean| / max(1%, 3 SE) over (m, p, scale) cases",
    )


def run_validation(
    seed: int = DEFAULT_SEED,
    n_samples: int = DEFAULT_SAMPLES,
    n_mc: int = DEFAULT_REALIZATIONS,
) -> ValidationReport:
    """Run every check; all must pass for a healthy installation.

    ``n_samples`` draws go to each sandwich and moment case, ``n_mc``
    realizations to the Monte Carlo check.  Counts below the sampling
    functions' minimums raise ``ValueError``.
    """
    start = time.perf_counter()
    checks = (
        _timed(check_q_function),
        _timed(lambda: check_sandwich_bound(seed, n_samples)),
        _timed(check_density_normalization),
        _timed(lambda: check_siso_rayleigh(seed, n_mc)),
        _timed(lambda: check_logdet_moments(seed, n_samples)),
    )
    return ValidationReport(checks=checks, seconds=time.perf_counter() - start)
