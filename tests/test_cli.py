import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from relay_outage import cli, outage
from relay_outage.cli import ERROR_PREFIX, ResultTable, _ks_distance, _skewness
from relay_outage.mutual_info import EXACT, MIDPOINT, sample_hop_fields
from relay_outage.rng import CHUNK_SIZE, substream
from relay_outage.validation import hop_at_scales

SMALL_SCENARIO = """[network]
mode = fd
hops = 2
[hop]
tx_antennas = 2
rx_antennas = 2
snr_db = 20
rsi_snr_db = 8
[rates]
start = 1
stop = 4
step = 0.5
[sampling]
moment_samples = 3000
mc_realizations = 4000
seed = 2024
[distribution]
hop = 1
bin_width = 0.25
samples = 20000
"""


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "smoke.scenario"
    path.write_text(SMALL_SCENARIO, encoding="utf-8")
    return path


def _read_csv(path):
    header, rows = [], []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            header.append(line)
        elif line:
            rows.append([float(tok) for tok in line.split(",")])
    return header, np.asarray(rows)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["--version"])
    assert exit_info.value.code == 0


def test_outage_command(scenario_file, tmp_path, capsys):
    out = tmp_path / "results"
    rc = cli.main(["outage", "--scenario", str(scenario_file), "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "max |analytical - MC|" in stdout

    header, rows = _read_csv(out / "smoke-outage.csv")
    assert any("columns: rate,analytical_outage,mc_outage,mc_std_error" in h for h in header)
    # every dB input is echoed alongside its linear ratio
    assert any("eta=" in h for h in header)
    assert any("rho=" in h for h in header)
    assert any("seed: 2024" in h for h in header)

    np.testing.assert_allclose(rows[:, 0], np.arange(1.0, 4.01, 0.5))
    assert np.all(np.isfinite(rows))
    assert np.all((rows[:, 1] >= 0.0) & (rows[:, 1] <= 1.0))
    assert np.all((rows[:, 2] >= 0.0) & (rows[:, 2] <= 1.0))
    assert np.all(rows[:, 3] >= 0.0)
    # the two estimators should agree loosely even at smoke-test sizes
    assert np.max(np.abs(rows[:, 1] - rows[:, 2])) < 0.1


def test_outage_output_is_byte_stable(scenario_file, tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert cli.main(["outage", "--scenario", str(scenario_file), "--out", str(first)]) == 0
    assert cli.main(["outage", "--scenario", str(scenario_file), "--out", str(second)]) == 0
    assert (first / "smoke-outage.csv").read_bytes() == (second / "smoke-outage.csv").read_bytes()


def test_seed_override_changes_mc_column(scenario_file, tmp_path):
    base = tmp_path / "a"
    reseeded = tmp_path / "b"
    cli.main(["outage", "--scenario", str(scenario_file), "--out", str(base)])
    cli.main(
        ["outage", "--scenario", str(scenario_file), "--out", str(reseeded), "--seed", "77"]
    )
    _, rows_a = _read_csv(base / "smoke-outage.csv")
    _, rows_b = _read_csv(reseeded / "smoke-outage.csv")
    assert not np.array_equal(rows_a[:, 2], rows_b[:, 2])
    header_b, _ = _read_csv(reseeded / "smoke-outage.csv")
    assert any("seed: 77" in h for h in header_b)


def test_sampling_overrides_are_echoed(scenario_file, tmp_path):
    out = tmp_path / "results"
    rc = cli.main(
        [
            "outage",
            "--scenario",
            str(scenario_file),
            "--out",
            str(out),
            "--samples",
            "2000",
            "--realizations",
            "2500",
        ]
    )
    assert rc == 0
    header, _ = _read_csv(out / "smoke-outage.csv")
    assert any("moment_samples: 2000" in h for h in header)
    assert any("mc_realizations: 2500" in h for h in header)


def test_gnuplot_companion(scenario_file, tmp_path):
    out = tmp_path / "results"
    rc = cli.main(
        ["outage", "--scenario", str(scenario_file), "--out", str(out), "--gnuplot"]
    )
    assert rc == 0
    script = (out / "smoke-outage.gp").read_text(encoding="utf-8")
    assert "smoke-outage.csv" in script
    assert "logscale" in script


def test_preset_outage_runs(tmp_path):
    rc = cli.main(
        [
            "outage",
            "--preset",
            "fig3-fd-rsi12",
            "--out",
            str(tmp_path),
            "--samples",
            "1500",
            "--realizations",
            "2000",
        ]
    )
    assert rc == 0
    assert (tmp_path / "fig3-fd-rsi12-outage.csv").exists()


def test_distribution_command(scenario_file, tmp_path, capsys):
    out = tmp_path / "results"
    rc = cli.main(["distribution", "--scenario", str(scenario_file), "--out", str(out)])
    assert rc == 0
    assert "KS distance" in capsys.readouterr().out

    header, rows = _read_csv(out / "smoke-distribution.csv")
    assert any("ks_distance:" in h for h in header)
    assert any("exact_skewness:" in h for h in header)
    # contiguous bins of the requested width
    np.testing.assert_allclose(rows[1:, 0], rows[:-1, 1])
    np.testing.assert_allclose(rows[:, 1] - rows[:, 0], 0.25)
    # frequencies: every sample lands in some bin
    np.testing.assert_allclose(rows[:, 2].sum(), 1.0, atol=1e-12)
    np.testing.assert_allclose(rows[:, 3].sum(), 1.0, atol=1e-12)


def test_distribution_without_rsi_collapses_to_exact(tmp_path):
    # no interference term: the midpoint of the two pairing bounds IS the
    # exact statistic, so the paired histograms must coincide
    text = SMALL_SCENARIO.replace("rsi_snr_db = 8\n", "")
    path = tmp_path / "norsi.scenario"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "results"
    assert cli.main(["distribution", "--scenario", str(path), "--out", str(out)]) == 0
    header, rows = _read_csv(out / "norsi-distribution.csv")
    ks = next(float(h.split(":")[1]) for h in header if "ks_distance" in h)
    assert ks <= 2.0 / 20000
    np.testing.assert_allclose(rows[:, 2], rows[:, 3], atol=2.0 / 20000)


def test_all_distribution_presets_record_stats(tmp_path):
    for name in (
        "dist-snr10-rsineg10",
        "dist-snr10-rsi0",
        "dist-snr20-rsi0",
        "dist-snr30-rsi15",
    ):
        rc = cli.main(["distribution", "--preset", name, "--out", str(tmp_path)])
        assert rc == 0
        header, _ = _read_csv(tmp_path / f"{name}-distribution.csv")
        ks = next(float(h.split(":")[1]) for h in header if "ks_distance" in h)
        skew = next(float(h.split(":")[1]) for h in header if "exact_skewness" in h)
        assert ks < 0.02
        assert abs(skew) < 0.3


def test_distribution_needs_section(tmp_path, capsys):
    rc = cli.main(["distribution", "--preset", "fig3-fd-norsi", "--out", str(tmp_path)])
    assert rc == 2
    assert ERROR_PREFIX in capsys.readouterr().err


@pytest.mark.parametrize("source", ("flag", "scenario"))
def test_distribution_below_minimum_exits_2(source, tmp_path, capsys):
    if source == "flag":
        argv = ["--preset", "dist-snr20-rsi0", "--samples", "1"]
    else:
        path = tmp_path / "few.scenario"
        path.write_text(
            SMALL_SCENARIO.replace("samples = 20000", "samples = 99"), encoding="utf-8"
        )
        argv = ["--scenario", str(path)]
    rc = cli.main(["distribution", *argv, "--out", str(tmp_path)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{ERROR_PREFIX} need at least 100 samples" in captured.err
    assert not list(tmp_path.glob("*.csv"))


def test_validate_command(capsys):
    rc = cli.main(["validate", "--samples", "2000", "--realizations", "4000"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert "FAIL" not in out
    assert "checks in" in out  # total-runtime summary line


def test_validate_detects_corruption(monkeypatch, capsys):
    monkeypatch.setattr("relay_outage.outage.q_function", lambda x: 0.5 - 0.01 * x)
    rc = cli.main(["validate", "--samples", "500", "--realizations", "2000"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "FAIL q-function" in captured.out
    assert ERROR_PREFIX in captured.err


@pytest.mark.parametrize(
    "flag, value, minimum",
    (("--samples", "99", "100 samples"), ("--realizations", "999", "1000 realizations")),
)
def test_validate_below_minimum_exits_2(flag, value, minimum, capsys):
    rc = cli.main(["validate", flag, value])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ERROR_PREFIX in captured.err
    assert f"need at least {minimum}" in captured.err


@pytest.mark.parametrize("value", ("-1", "abc"))
@pytest.mark.parametrize("command", ("outage", "distribution", "validate"))
def test_bad_seed_flag_exits_2_and_names_it(command, value, tmp_path, capsys):
    # every --seed flag follows the [sampling] seed rule: a non-negative integer
    source = {"outage": ["--preset", "fig3-hd"], "distribution": ["--preset", "dist-snr20-rsi0"]}
    out = [] if command == "validate" else ["--out", str(tmp_path)]
    rc = cli.main([command, *source.get(command, []), "--seed", value, *out])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{ERROR_PREFIX} --seed: ")
    assert value in captured.err
    assert not list(tmp_path.glob("*.csv"))


def test_distribution_refuses_realizations_flag(tmp_path, capsys):
    # distribution draws no Monte Carlo realizations, so the flag is not accepted
    with pytest.raises(SystemExit) as exc:
        cli.main([
            "distribution", "--preset", "dist-snr20-rsi0", "--samples", "1000",
            "--realizations", "5", "--out", str(tmp_path),
        ])
    assert exc.value.code == 2
    assert "--realizations" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_bad_scenario_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.scenario"
    path.write_text("[network]\nmode = fd\nhops = zero\n", encoding="utf-8")
    rc = cli.main(["outage", "--scenario", str(path), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert ERROR_PREFIX in err
    assert "broken.scenario:3" in err


def test_unusable_out_exits_2(tmp_path):
    # no directory can be made below a regular file
    (tmp_path / "plain").write_text("", encoding="utf-8")
    out = tmp_path / "plain" / "results"
    proc = subprocess.run(
        [sys.executable, "-m", "relay_outage.cli", "outage", "--preset", "fig3-hd",
         "--out", str(out)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])},
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"{ERROR_PREFIX} ")
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr


def test_unknown_preset_exits_2(tmp_path, capsys):
    rc = cli.main(["outage", "--preset", "fig9-nope", "--out", str(tmp_path)])
    assert rc == 2
    assert "unknown preset" in capsys.readouterr().err


def test_numerical_failure_exits_3(scenario_file, tmp_path, monkeypatch, capsys):
    def broken_curve(network, rates, rng, n_samples):
        return np.full(rates.shape, np.nan)

    monkeypatch.setattr("relay_outage.cli.analytical_outage", broken_curve)
    rc = cli.main(["outage", "--scenario", str(scenario_file), "--out", str(tmp_path)])
    assert rc == 3
    assert ERROR_PREFIX in capsys.readouterr().err


@pytest.mark.parametrize("error, code", [(ValueError, 2), (FloatingPointError, 3)])
def test_error_in_a_shared_chunk_keeps_its_exit_code(
    error, code, scenario_file, tmp_path, monkeypatch, capsys
):
    # five Monte Carlo chunks shared with a helper process; the short last
    # chunk fails, the helper meets it first and exits, and the caller
    # raises the error when it reaches that chunk
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    kernel = outage.sample_hop_chunk

    def failing_kernel(hop, stream, count, fields):
        if count != CHUNK_SIZE:
            raise error("broken chunk")
        return kernel(hop, stream, count, fields)

    monkeypatch.setattr(outage, "sample_hop_chunk", failing_kernel)
    rc = cli.main([
        "outage", "--scenario", str(scenario_file), "--realizations", "40000",
        "--out", str(tmp_path),
    ])
    assert rc == code
    err = capsys.readouterr().err
    assert err.startswith(ERROR_PREFIX) and "broken chunk" in err


def test_scenario_and_preset_are_exclusive(scenario_file, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(
            ["outage", "--scenario", str(scenario_file), "--preset", "fig3-hd"]
        )
    assert exit_info.value.code == 2


def test_outage_requires_source(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["outage"])
    assert exit_info.value.code == 2


def test_render_rejects_non_finite():
    table = ResultTable(
        header=("demo",), columns=("a", "b"), rows=((1.0, float("inf")),)
    )
    with pytest.raises(ArithmeticError):
        table.render()


def test_render_rejects_ragged_rows():
    table = ResultTable(header=("demo",), columns=("a", "b"), rows=((1.0,),))
    with pytest.raises(ValueError):
        table.render()


def test_huge_rate_grid_exits_2(tmp_path, capsys):
    # a 1e-9 step makes 3e9 rate points (24 GB of rates alone); the grid
    # is refused before anything is allocated
    path = tmp_path / "fine.scenario"
    path.write_text(SMALL_SCENARIO.replace("step = 0.5", "step = 1e-9"), encoding="utf-8")
    rc = cli.main(["outage", "--scenario", str(path), "--out", str(tmp_path)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{ERROR_PREFIX} ")
    assert "more than 100000 points" in captured.err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("n", (5000, 20000))
def test_distribution_stats_match_scipy(n):
    exact, midpoint = sample_hop_fields(
        hop_at_scales(2, 2, 10.0, 1.0), n, substream(n, 77), (EXACT, MIDPOINT)
    )
    # scipy's exact p-value path (max(n1, n2) <= 10000) re-rounds the
    # statistic to a multiple of 1/lcm(n1, n2); its asymptotic path keeps
    # the ECDF difference that the CLI writes
    want = stats.ks_2samp(exact, midpoint, method="asymp").statistic
    assert _ks_distance(exact, midpoint) == want
    assert _skewness(exact) == stats.skew(exact)
    assert _skewness(midpoint) == stats.skew(midpoint)


def test_distribution_stats_match_scipy_with_ties():
    rng = np.random.default_rng(8)
    a = rng.integers(0, 12, 3000).astype(float)
    b = np.concatenate([rng.integers(2, 15, 1700), np.full(300, 7)]).astype(float)
    assert _ks_distance(a, b) == stats.ks_2samp(a, b, method="asymp").statistic
    assert _ks_distance(b, a) == stats.ks_2samp(b, a, method="asymp").statistic
    assert _ks_distance(a, a) == 0.0
    assert _skewness(a) == stats.skew(a)
    assert _skewness(b) == stats.skew(b)


_SCIPY_FREE_PROBE = """
import sys
from relay_outage import cli
{run}
loaded = sorted(
    name for name in sys.modules
    if name.split(".")[0] == "scipy"
    or name in ("relay_outage.validation", "relay_outage.wishart_stats")
)
print(loaded)
"""


def _modules_loaded_by(run: str) -> str:
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE_PROBE.format(run=run)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize("command", ("import", "outage", "distribution"))
def test_commands_other_than_validate_do_not_load_scipy(command, scenario_file, tmp_path):
    run = "" if command == "import" else (
        f"assert cli.main([{command!r}, '--scenario', {str(scenario_file)!r}, "
        f"'--out', {str(tmp_path)!r}]) == 0"
    )
    assert _modules_loaded_by(run) == "[]"


def test_validate_does_not_load_scipy():
    run = "assert cli.main(['validate', '--samples', '1000', '--realizations', '2000']) == 0"
    assert _modules_loaded_by(run) == str(
        ["relay_outage.validation", "relay_outage.wishart_stats"]
    )
