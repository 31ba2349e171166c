import ast
import dataclasses
import hashlib
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import PINNED_NUMPY, traced_peak

import relay_outage
from relay_outage import __version__, cli, mutual_info
from relay_outage.cli import ERROR_PREFIX, _ks_distance, _skewness, _write_result
from relay_outage.mutual_info import (
    EXACT,
    MAX_POWER_DB,
    MIDPOINT,
    HopConfig,
    HopMoments,
    sample_hop_fields,
)
from relay_outage.rng import CHUNK_SIZE, substream
from relay_outage.scenario import MAX_CSV_ROWS, MAX_DRAWS, load_preset
from relay_outage.validation import hop_at_scales
from relay_outage.wishart_stats import quadrature_hop_moments

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


def _run_clean(
    *args: str, env: dict[str, str] | None = None, timeout: float = 120
) -> subprocess.CompletedProcess:
    """Run ``python ARGS`` in a child whose environment holds only this
    checkout's ``PYTHONPATH``, ``PYTHONDONTWRITEBYTECODE`` and ``env``, so no
    caller's setting leaks in and the child leaves no bytecode in the checkout."""
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={
            "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]),
            "PYTHONDONTWRITEBYTECODE": "1",
            **(env or {}),
        },
        timeout=timeout,
    )


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


# sha256 of every preset's CSV at its default sizes and of `validate`'s
# output with its timings stripped.  Bytes may move only with the package
# version, so a new version re-pins them; they hold on PINNED_NUMPY.
PINNED_VERSION = "0.13.0"
PINNED_SHA256 = {
    "fig3-fd-norsi-outage.csv": "9093a2de9c3065a2be787fce3ff05bce8cb55d3eb77787d0036788278a7245cc",
    "fig3-fd-rsi12-outage.csv": "805ce7d2bf4634dc50cb44ae87064bb20a63c5b2f1e13de991f3ae8786952556",
    "fig3-fd-rsi12-last17-outage.csv": "381fef067b44d84bcc2f5d1b4c1d4909554467b907a31d40dea33271bf4dee43",
    "fig3-fd-rsi35-outage.csv": "f44ce9c138281cf25ccedb7f76004a2c877faf2f33f405ee74cb983149053392",
    "fig3-fd-rsi5-outage.csv": "a5bc48726e70badfe907219ac94bfd01f48095f0fded14572eee107dc5133116",
    "fig3-fd-rsi5-last17-outage.csv": "636e8fca6d01901c31e943ac11d883e473d0232817e902aaa251930e3b079163",
    "fig3-hd-outage.csv": "3e5b70f6498043a74692c0a8030cc2a9c46b87a7513c73c64d5caafb0978480d",
    "dist-snr10-rsi0-distribution.csv": "0e3670a931ae1a658800614b6f6c44e1b4971a9e4800ae6af58464ab563ba2f3",
    "dist-snr10-rsineg10-distribution.csv": "9a98ad06d29214b365fdf92ed2a334831c91c50d01cd8a1a8fb89b4e66133ad6",
    "dist-snr20-rsi0-distribution.csv": "254bf8ea9f51ea35ed75e80a7fbca687a310ba8d32b3fbd8252311b58c259070",
    "dist-snr30-rsi15-distribution.csv": "f0b4c736f5b0082e1409a4957ec18b1501a186599eebdd1307310101ad697072",
    "validate": "7eddf5ed76b0bb34b598f84e1a9961d4aa833e92e5583891503ea888a2e426b5",
}
OUTAGE_PRESETS = (
    "fig3-fd-norsi", "fig3-fd-rsi12", "fig3-fd-rsi12-last17", "fig3-fd-rsi35",
    "fig3-fd-rsi5", "fig3-fd-rsi5-last17", "fig3-hd",
)
DISTRIBUTION_PRESETS = ("dist-snr10-rsi0", "dist-snr10-rsineg10", "dist-snr20-rsi0", "dist-snr30-rsi15")


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def test_default_outputs_keep_their_pinned_bytes(tmp_path, capsys):
    if np.__version__ != PINNED_NUMPY:
        pytest.skip(f"bytes pinned on numpy {PINNED_NUMPY}, running {np.__version__}")
    assert __version__ == PINNED_VERSION, "a new version re-pins PINNED_SHA256"
    got = {}
    for command, names in (("outage", OUTAGE_PRESETS), ("distribution", DISTRIBUTION_PRESETS)):
        for name in names:
            assert cli.main([command, "--preset", name, "--out", str(tmp_path)]) == 0
            got[f"{name}-{command}.csv"] = _sha256((tmp_path / f"{name}-{command}.csv").read_bytes())
    capsys.readouterr()
    assert cli.main(["validate"]) == 0
    got["validate"] = _sha256(re.sub(r"[0-9.]+ s\b", "_ s", capsys.readouterr().out).encode())
    assert got == PINNED_SHA256


def test_version_has_one_owner():
    # the build reads the version from relay_outage.__version__, so a
    # version bump edits one line
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    config = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    assert config["project"]["dynamic"] == ["version"]
    assert "version" not in config["project"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "relay_outage.__version__"
    }


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


def test_distribution_gnuplot_companion(scenario_file, tmp_path):
    out = tmp_path / "results"
    rc = cli.main(
        ["distribution", "--scenario", str(scenario_file), "--out", str(out), "--gnuplot"]
    )
    assert rc == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "smoke-distribution.csv", "smoke-distribution.gp",
    ]
    script = (out / "smoke-distribution.gp").read_text(encoding="utf-8")
    plots = script.split("plot ", 1)[1]
    assert plots.count("'smoke-distribution.csv'") == 2
    # bin centre against the midpoint (column 4) and the exact (column 3) frequencies
    assert "using (($1+$2)/2):4" in plots and "using (($1+$2)/2):3" in plots


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


@pytest.mark.parametrize("source", ("flag", "scenario"))
def test_outage_below_minimum_exits_2(source, tmp_path, capsys):
    # every hop of both chains has quadrature moments, and the minimum holds
    if source == "flag":
        argv = ["--preset", "fig3-fd-rsi12", "--samples", "99"]
    else:
        path = tmp_path / "few.scenario"
        path.write_text(
            SMALL_SCENARIO.replace("moment_samples = 3000", "moment_samples = 99"),
            encoding="utf-8",
        )
        argv = ["--scenario", str(path)]
    rc = cli.main(["outage", *argv, "--out", str(tmp_path)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{ERROR_PREFIX} need at least 100 samples" in captured.err
    assert not list(tmp_path.glob("*.csv"))


CAPPED_FLAGS = (
    ("outage", "--preset", "fig3-hd", "--samples"),
    ("outage", "--preset", "fig3-hd", "--realizations"),
    ("distribution", "--preset", "dist-snr20-rsi0", "--samples"),
    ("validate", "--samples"),
    ("validate", "--realizations"),
)


@pytest.mark.parametrize("argv", CAPPED_FLAGS, ids=lambda argv: f"{argv[0]}{argv[-1]}")
def test_draw_count_flags_are_capped(argv, tmp_path, capsys):
    out = [] if argv[0] == "validate" else ["--out", str(tmp_path)]
    rc = cli.main([*argv, str(MAX_DRAWS + 1), *out])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{ERROR_PREFIX} {argv[-1]}: must be <= {MAX_DRAWS}")
    assert not list(tmp_path.glob("*.csv"))


_MOMENT_LINE = re.compile(
    r"# hop (\d+) moments: mean=(\S+) variance=(\S+) source=(\w+) gaussian_p_below_0=(\S+)$"
)


def _moment_lines(header):
    return [_MOMENT_LINE.match(line).groups() for line in header if _MOMENT_LINE.match(line)]


@pytest.mark.parametrize("rsi_db", (8.0, 100.0))
def test_outage_header_reports_each_hops_moments(rsi_db, tmp_path):
    # 100 dB of RSI on a 20 dB link is far outside the quadrature's reach:
    # that hop either converges or falls back to sampling, and says which
    path = tmp_path / "chain.scenario"
    path.write_text(SMALL_SCENARIO.replace("rsi_snr_db = 8", f"rsi_snr_db = {rsi_db}"), "utf-8")
    assert cli.main(["outage", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    header, _ = _read_csv(tmp_path / "chain-outage.csv")
    assert "# moment_samples: 3000 (sampled hops only)" in header
    lines = _moment_lines(header)
    assert [k for k, *_ in lines] == ["1", "2"]
    hops = (
        HopConfig(2, 2, 20.0, rsi_db, rsi_tx_antennas=2),
        HopConfig(2, 2, 20.0),
    )
    warned = []
    for hop, (k, mean, variance, source, below_zero) in zip(hops, lines):
        assert source == ("sampled" if quadrature_hop_moments(hop) is None else "quadrature")
        assert float(variance) >= 0.0
        want = stats.norm.cdf(-float(mean) / np.sqrt(float(variance)))
        assert float(below_zero) == pytest.approx(want, rel=1e-9, abs=1e-300)
        if float(below_zero) > cli.NEGATIVE_MASS_WARNING:
            warned.append(k)
    assert [line.split()[3] for line in header if line.startswith("# warning: ")] == warned
    assert [source for *_, source, _ in lines] == (
        ["quadrature", "quadrature"] if rsi_db == 8.0 else ["sampled", "quadrature"]
    )
    assert warned == ([] if rsi_db == 8.0 else ["1"])


def test_moment_header_folds_each_distinct_moment_pair_once(monkeypatch):
    # a chain of equal hops holds one moment pair: 40 hops of two pairs
    # take two one-hop folds, and every hop still gets its own lines
    fold, calls = cli.gaussian_chain_outage, []

    def counted(moments, rates):
        calls.append(moments)
        return fold(moments, rates)

    monkeypatch.setattr(cli, "gaussian_chain_outage", counted)
    relay, last = HopMoments(mean=10.0, variance=4.0), HopMoments(mean=1.0, variance=1.0)
    chain = [relay] * 39 + [last]
    lines = cli._moment_header(chain)
    assert calls == [[relay], [last]]
    below_zero = {m: float(fold([m], np.zeros(1))[0]) for m in (relay, last)}
    assert lines[:40] == [
        f"hop {k} moments: mean={m.mean!r} variance={m.variance!r} "
        f"source=quadrature gaussian_p_below_0={below_zero[m]!r}"
        for k, m in enumerate(chain, start=1)
    ]
    assert len(lines) == 41 and lines[40].startswith("warning: hop 40 Gaussian law puts 0.159 ")


def test_analytical_column_does_not_depend_on_the_seed(scenario_file, tmp_path):
    # every hop of the 2x2 chain has quadrature moments, so no draw enters
    # the analytical column, while the Monte Carlo one moves
    columns = []
    for seed in ("1", "2"):
        out = tmp_path / seed
        rc = cli.main(["outage", "--scenario", str(scenario_file), "--seed", seed, "--out", str(out)])
        assert rc == 0
        rows = [
            line.split(",")
            for line in (out / "smoke-outage.csv").read_text(encoding="utf-8").splitlines()
            if not line.startswith("#")
        ]
        columns.append(([row[1] for row in rows], [row[2] for row in rows]))
    (analytical_a, mc_a), (analytical_b, mc_b) = columns
    assert analytical_a == analytical_b
    assert mc_a != mc_b


EXTREME_SCENARIO = """[network]
mode = fd
hops = 2
[hop]
tx_antennas = {n}
rx_antennas = {n}
snr_db = {snr}
rsi_snr_db = {rsi}
[rates]
start = 0
stop = 14
step = 0.5
[sampling]
moment_samples = 1000
mc_realizations = 1000
[distribution]
hop = 1
samples = 1000
"""


@pytest.mark.parametrize("command", ("outage", "distribution"))
@pytest.mark.parametrize("snr_db", (-MAX_POWER_DB, -100.0, 100.0, MAX_POWER_DB))
@pytest.mark.parametrize("rsi_db", (-MAX_POWER_DB, -100.0, 100.0, MAX_POWER_DB))
def test_extreme_powers_give_finite_probabilities(command, snr_db, rsi_db, tmp_path, capsys):
    for n in (1, 2, 3):  # one row, the closed form, the QR route
        path = tmp_path / "extreme.scenario"
        path.write_text(EXTREME_SCENARIO.format(n=n, snr=snr_db, rsi=rsi_db), encoding="utf-8")
        assert cli.main([command, "--scenario", str(path), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        header, rows = _read_csv(tmp_path / f"extreme-{command}.csv")
        assert rows.size and np.all(np.isfinite(rows))
        probabilities = rows[:, 1:] if command == "outage" else rows[:, 2:]
        assert np.all((probabilities >= 0.0) & (probabilities <= 1.0))
        if command == "outage":
            for _, _, variance, _, below_zero in _moment_lines(header):
                assert float(variance) >= 0.0 and 0.0 <= float(below_zero) <= 1.0


@pytest.mark.parametrize("command", ("outage", "distribution"))
def test_zero_variance_hops_run_clean_and_are_reported(command, tmp_path):
    # at -300 dB every draw of the QR route rounds to 0 bits; through the
    # real streams: exit 0, nothing on stderr, a header line per hop
    path = tmp_path / "extreme.scenario"
    path.write_text(EXTREME_SCENARIO.format(n=3, snr=-300.0, rsi="none"), encoding="utf-8")
    proc = _run_clean("-m", "relay_outage.cli", command, "--scenario", str(path),
                      "--out", str(tmp_path))
    assert proc.returncode == 0 and proc.stderr == ""
    header, rows = _read_csv(tmp_path / f"extreme-{command}.csv")
    if command == "distribution":  # a constant sample has no skewness
        assert "# exact_skewness: nan" in header and "# midpoint_skewness: nan" in header
        return
    assert [line for line in header if "zero variance" in line] == [
        f"# warning: hop {k} has zero variance: its Gaussian law is a step at its mean"
        for k in (1, 2)
    ]
    # a hop of exactly 0 bits is not in outage at R = 0, on either column
    assert rows[0, 0] == 0.0 and rows[0, 1] == rows[0, 2] == 0.0


@settings(max_examples=25, deadline=None)
@given(
    n_hops=st.integers(1, 3),
    tx=st.integers(1, 3),
    rx=st.integers(1, 3),
    snr_db=st.floats(-30.0, 60.0),
    rsi_db=st.one_of(st.none(), st.floats(-30.0, 60.0)),
    half_duplex=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_outage_columns_are_probabilities_rising_with_rate(
    n_hops, tx, rx, snr_db, rsi_db, half_duplex, seed
):
    rsi = "none" if rsi_db is None or half_duplex else repr(rsi_db)
    text = (
        f"[network]\nmode = {'hd' if half_duplex else 'fd'}\nhops = {n_hops}\n"
        f"[hop]\ntx_antennas = {tx}\nrx_antennas = {rx}\nsnr_db = {snr_db!r}\n"
        f"rsi_snr_db = {rsi}\n[rates]\nstart = 0\nstop = 20\nstep = 0.5\n"
        f"[sampling]\nmoment_samples = 100\nmc_realizations = 1000\nseed = {seed}\n"
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prop.scenario"
        path.write_text(text, encoding="utf-8")
        assert cli.main(["outage", "--scenario", str(path), "--out", tmp]) == 0
        _, rows = _read_csv(Path(tmp) / "prop-outage.csv")
    for column in (rows[:, 1], rows[:, 2]):
        assert np.all((column >= 0.0) & (column <= 1.0))
        assert np.all(np.diff(column) >= 0.0)


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


def test_interferer_size_key_exits_2_at_its_line(tmp_path, capsys):
    # the chain sets each interferer's size; a file that still gives one is
    # refused as any unknown key is
    path = tmp_path / "sized.scenario"
    path.write_text(
        "[network]\nmode = fd\nhops = 2\n[hop]\ntx_antennas = 2\nrx_antennas = 2\n"
        "snr_db = 20\nrsi_snr_db = 8\nrsi_tx_antennas = 2\n",
        encoding="utf-8",
    )
    assert cli.main(["outage", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"{ERROR_PREFIX} {path}:9: unknown key 'rsi_tx_antennas' in [hop]\n"
    )


@pytest.mark.parametrize("hops", (100_001, 1_000_000_000))
def test_hop_count_past_the_row_cap_exits_2_at_its_line(tmp_path, hops):
    # each hop writes two header lines, so MAX_CSV_ROWS caps the chain too;
    # the count is refused at its line before any hop is built, so the
    # child ends at once rather than when memory runs out
    path = tmp_path / "long.scenario"
    path.write_text(
        f"[network]\nmode = fd\nhops = {hops}\n"
        "[hop]\ntx_antennas = 2\nrx_antennas = 2\nsnr_db = 20\n",
        encoding="utf-8",
    )
    proc = _run_clean("-m", "relay_outage.cli", "outage", "--scenario", str(path),
                      "--out", str(tmp_path), timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        f"{ERROR_PREFIX} {path}:3: network.hops: must be <= {MAX_CSV_ROWS}, got {hops}\n"
    )


def test_unusable_out_exits_2(tmp_path):
    # no directory can be made below a regular file
    (tmp_path / "plain").write_text("", encoding="utf-8")
    out = tmp_path / "plain" / "results"
    proc = _run_clean("-m", "relay_outage.cli", "outage", "--preset", "fig3-hd",
                      "--out", str(out))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"{ERROR_PREFIX} ")
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "args",
    (
        ["outage"],
        ["--bogus"],
        ["outage", "--preset", "fig3-hd", "--bogus"],
        ["distribution", "--preset", "dist-snr20-rsi0", "--realizations", "5"],
        ["outage", "--scenario", "{loud}"],
    ),
    ids=("no-source", "unknown-flag", "unknown-subcommand-flag", "refused-flag", "4000-db"),
)
def test_usage_errors_are_one_stderr_line(args, tmp_path):
    # flag errors follow the one-line rule of scenario errors, on the real stream
    loud = tmp_path / "loud.scenario"
    loud.write_text(
        "[network]\nmode = fd\nhops = 1\n"
        "[hop]\ntx_antennas = 2\nrx_antennas = 2\nsnr_db = 4000\n",
        encoding="utf-8",
    )
    proc = _run_clean("-m", "relay_outage.cli",
                      *(arg.format(loud=loud) for arg in args), "--out", str(tmp_path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith(f"{ERROR_PREFIX} ")


def test_unknown_preset_exits_2(tmp_path, capsys):
    rc = cli.main(["outage", "--preset", "fig9-nope", "--out", str(tmp_path)])
    assert rc == 2
    assert "unknown preset" in capsys.readouterr().err


def test_numerical_failure_exits_3(scenario_file, tmp_path, monkeypatch, capsys):
    def broken_curve(moments, rates):
        return np.full(rates.shape, np.nan)

    monkeypatch.setattr("relay_outage.cli.gaussian_chain_outage", broken_curve)
    rc = cli.main(["outage", "--scenario", str(scenario_file), "--out", str(tmp_path)])
    assert rc == 3
    assert ERROR_PREFIX in capsys.readouterr().err


@pytest.mark.parametrize(
    "error, code",
    [(ValueError, 2), (FloatingPointError, 3), (MemoryError, 2), (np.linalg.LinAlgError, 3)],
)
def test_error_in_a_shared_chunk_keeps_its_exit_code(
    error, code, scenario_file, tmp_path, monkeypatch, capsys
):
    # five Monte Carlo chunks per hop; the short last chunk fails, and its
    # error reaches the command's exit code
    kernel = mutual_info.sample_hop_chunk

    def failing_kernel(hop, stream, count, fields):
        if count != CHUNK_SIZE:
            raise error("broken chunk")
        return kernel(hop, stream, count, fields)

    monkeypatch.setattr(mutual_info, "sample_hop_chunk", failing_kernel)
    rc = cli.main([
        "outage", "--scenario", str(scenario_file), "--realizations", "40000",
        "--out", str(tmp_path),
    ])
    assert rc == code
    err = capsys.readouterr().err
    assert err.startswith(ERROR_PREFIX) and "broken chunk" in err
    assert ("numerical failure:" in err) == (code == 3)
    assert err.count("\n") == 1


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


def test_render_rejects_non_finite(tmp_path):
    scenario = dataclasses.replace(load_preset("fig3-hd"), output_dir=str(tmp_path))
    for bad in (float("inf"), float("-inf"), float("nan")):
        rows = np.array([[1.0, 2.0], [3.0, bad]])
        with pytest.raises(ArithmeticError, match=r"result row \(3\.0, "):
            _write_result(scenario, "outage", ["demo"], ("a", "b"), rows, gnuplot=True)
    assert list(tmp_path.iterdir()) == []  # nothing written, not even the script


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


@pytest.mark.parametrize("width", ("1e-12", "1e-310"))
def test_huge_histogram_exits_2(width, tmp_path, capsys):
    # 1e-12-bit bins over this sample's ~10-bit range would take 1e13 edges
    # (75 TiB), and a subnormal width overflows the count; both are refused
    # before anything is allocated
    path = tmp_path / "fine.scenario"
    path.write_text(
        SMALL_SCENARIO.replace("bin_width = 0.25", f"bin_width = {width}"), encoding="utf-8"
    )
    argv = ["distribution", "--scenario", str(path), "--samples", "1000", "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{ERROR_PREFIX} ")
    assert len(captured.err.splitlines()) == 1
    assert f"bin_width = {float(width)!r} makes " in captured.err
    assert "histogram bins, more than 100000" in captured.err
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


def test_ks_distance_matches_scipy_across_blocks():
    # tie groups that straddle CHUNK_SIZE blocks, samples of unequal size,
    # and samples that do not overlap, where a block's span of the other
    # sample is empty
    rng = np.random.default_rng(9)
    a = rng.integers(0, 12, 5 * CHUNK_SIZE + 3).astype(float)
    b = rng.integers(2, 15, 3 * CHUNK_SIZE - 5).astype(float)
    far = rng.standard_normal(2 * CHUNK_SIZE + 1) + 100.0
    for x, y in ((a, b), (b, a), (a, far), (far, b)):
        assert _ks_distance(x, y) == stats.ks_2samp(x, y, method="asymp").statistic


def test_distribution_peak_memory_per_draw(tmp_path):
    # the KS distance reads the sorted samples block by block, so the
    # command never holds the pooled samples or their ECDFs at every point
    # (about 96 bytes per draw when it did); the fields, their sorted
    # copies and the skewness temporaries, cubed in place, stay below 36
    n = 200_000
    args = ["distribution", "--preset", "dist-snr20-rsi0", "--out", str(tmp_path)]
    codes = [cli.main(args + ["--samples", "1000"])]  # loads the preset once
    peak = traced_peak(lambda: codes.append(cli.main(args + ["--samples", str(n)])))
    assert codes == [0, 0]
    assert peak / n < 36.0, f"{peak / n:.1f} bytes per draw"


def test_distribution_stats_match_scipy_with_ties():
    rng = np.random.default_rng(8)
    a = rng.integers(0, 12, 3000).astype(float)
    b = np.concatenate([rng.integers(2, 15, 1700), np.full(300, 7)]).astype(float)
    assert _ks_distance(a, b) == stats.ks_2samp(a, b, method="asymp").statistic
    assert _ks_distance(b, a) == stats.ks_2samp(b, a, method="asymp").statistic
    assert _ks_distance(a, a) == 0.0
    assert _skewness(a) == stats.skew(a)
    assert _skewness(b) == stats.skew(b)
    # a constant sample has no skewness: nan, with no numpy warning
    assert math.isnan(_skewness(np.zeros(10)))


_SCIPY_FREE_PROBE = """
import sys
from relay_outage import cli
{run}
loaded = sorted(
    name for name in sys.modules
    if name.split(".")[0] == "scipy" or name == "relay_outage.validation"
)
print(loaded)
"""


def _modules_loaded_by(run: str) -> str:
    proc = _run_clean("-c", _SCIPY_FREE_PROBE.format(run=run))
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
    assert _modules_loaded_by(run) == str(["relay_outage.validation"])


# Imports ``first``, then runs ``statement`` and prints which environment
# variables it changed, the process's thread count (None without
# /proc/self/task) and whether numpy is loaded.
_STATE_PROBE = """
import os, sys
{first}
before = dict(os.environ)
{statement}
after = dict(os.environ)
changed = {{k: after.get(k) for k in before.keys() | after.keys() if before.get(k) != after.get(k)}}
tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(repr((changed, tasks, "numpy" in sys.modules)))
"""


def _state_after(statement: str, first: str = "", env: dict[str, str] | None = None):
    proc = _run_clean("-c", _STATE_PROBE.format(first=first, statement=statement), env=env)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def test_cli_runs_blas_on_one_thread():
    changed, tasks, _ = _state_after("from relay_outage import cli")
    assert changed == {"OPENBLAS_NUM_THREADS": "1"}
    if tasks is not None:
        assert tasks == 1  # numpy started no OpenBLAS worker


def test_cli_keeps_a_callers_blas_threads():
    changed, tasks, _ = _state_after(
        "from relay_outage import cli", env={"OPENBLAS_NUM_THREADS": "2"}
    )
    assert changed == {}
    if tasks is not None:  # OpenBLAS runs at most one thread per usable CPU
        assert tasks == min(2, len(os.sched_getaffinity(0)))


def test_cli_leaves_a_loaded_numpy_alone():
    changed, _, numpy_loaded = _state_after("from relay_outage import cli", first="import numpy")
    assert changed == {} and numpy_loaded


def test_package_import_loads_no_numpy():
    changed, _, numpy_loaded = _state_after("import relay_outage")
    assert changed == {} and not numpy_loaded


def test_public_names_are_their_modules_objects():
    names = set(relay_outage.__all__) - {"__version__"}
    for name in names:
        value = getattr(relay_outage, name)
        assert value is getattr(sys.modules[value.__module__], name)
        assert value.__module__.startswith("relay_outage.")
    assert set(relay_outage.__all__) <= set(dir(relay_outage))
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        relay_outage.nope
