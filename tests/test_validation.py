import pytest
from scipy import stats

from relay_outage import validation


@pytest.fixture(scope="module")
def small_report():
    return validation.run_validation(seed=7, n_samples=5000, n_mc=20000)


def test_all_checks_pass_at_reduced_size(small_report):
    assert small_report.passed, small_report.failures
    assert small_report.failures == []


def test_report_covers_every_check(small_report):
    names = [c.name for c in small_report.checks]
    assert names == [
        "q-function",
        "sandwich-bound",
        "density-normalization",
        "siso-rayleigh-outage",
        "logdet-moments",
    ]
    for check in small_report.checks:
        assert check.seconds >= 0.0
        assert check.measured <= check.limit


def test_corrupted_q_function_is_caught(monkeypatch):
    monkeypatch.setattr(
        "relay_outage.outage.q_function", lambda x: 0.5 * (1.0 - x / 10.0)
    )
    report = validation.run_validation(seed=7, n_samples=1000, n_mc=2000)
    assert not report.passed
    assert "q-function" in report.failures


def test_check_failure_reports_measurement(monkeypatch):
    monkeypatch.setattr("relay_outage.outage.q_function", lambda x: 0.0 * x)
    name, measured, limit, _ = validation.check_q_function()
    assert name == "q-function"
    assert measured > limit


def test_siso_limit_is_the_sidak_quantile():
    # family-wise 0.27 % over the check's 10 rates, two-sided at each rate
    per_rate = 1.0 - 0.9973 ** (1 / 10)
    assert validation.SISO_Z_LIMIT == pytest.approx(stats.norm.isf(per_rate / 2.0), abs=5e-4)
