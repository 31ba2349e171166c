import math

import pytest
from scipy import stats

from relay_outage import validation


def failures(results) -> list[str]:
    return [check.name for check, _ in results if not check.passed]


@pytest.fixture(scope="module")
def small_results():
    return validation.run_validation(seed=7, n_samples=5000, n_mc=20000)


def test_all_checks_pass_at_reduced_size(small_results):
    assert all(check.passed for check, _ in small_results), failures(small_results)
    assert failures(small_results) == []


def test_report_covers_every_check(small_results):
    names = [check.name for check, _ in small_results]
    assert names == [
        "q-function",
        "sandwich-bound",
        "density-normalization",
        "siso-rayleigh-outage",
        "logdet-moments",
    ]
    for check, seconds in small_results:
        assert seconds >= 0.0
        assert check.measured <= check.limit


def test_corrupted_q_function_is_caught(monkeypatch):
    monkeypatch.setattr(
        "relay_outage.outage.q_function", lambda x: 0.5 * (1.0 - x / 10.0)
    )
    results = validation.run_validation(seed=7, n_samples=1000, n_mc=2000)
    assert failures(results) == ["q-function"]


def test_checks_are_looked_up_when_run(monkeypatch):
    # a wrapper put on the module after import (a tracer's hook) must run
    failing = validation.CheckResult("density-normalization", 1.0, 1e-6, "patched")
    monkeypatch.setattr(
        "relay_outage.validation.check_density_normalization", lambda: failing
    )
    results = validation.run_validation(seed=7, n_samples=1000, n_mc=2000)
    assert failures(results) == ["density-normalization"]
    assert results[2][0] is failing


def test_check_failure_reports_measurement(monkeypatch):
    monkeypatch.setattr("relay_outage.outage.q_function", lambda x: 0.0 * x)
    name, measured, limit, _ = validation.check_q_function()
    assert name == "q-function"
    assert measured > limit
    assert not validation.check_q_function().passed


def test_nan_measurement_fails():
    assert not validation.CheckResult("nan", math.nan, 1.0, "").passed
    assert validation.CheckResult("edge", 1.0, 1.0, "").passed


def test_siso_limit_is_the_sidak_quantile():
    # family-wise 0.27 % over the check's 10 rates, two-sided at each rate
    per_rate = 1.0 - 0.9973 ** (1 / 10)
    assert validation.SISO_Z_LIMIT == pytest.approx(stats.norm.isf(per_rate / 2.0), abs=5e-4)
