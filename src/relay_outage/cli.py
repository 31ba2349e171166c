"""Command-line front end.

Subcommands: ``outage`` (analytical vs Monte Carlo sweep over a rate
grid), ``distribution`` (paired histograms of the exact log-determinant
and its pairing-bound midpoint), and ``validate`` (oracle self-checks).

Output is CSV with ``#``-prefixed header lines that echo every parameter
of the run, including the linear power ratios derived from the dB inputs.
Numbers are written with ``repr`` so files are bit-stable for a fixed
(scenario, seed, version) triple; no timestamps or hostnames appear.
Plotting stays out of process: ``--gnuplot`` writes a companion script
next to the CSV.

Exit codes: 0 success, 1 failed validation checks, 2 unusable input
(flags or scenario), 3 numerical failure.  Errors print a single line to
stderr starting with ``relay-outage: error:``.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .mutual_info import EXACT, MIDPOINT, HopConfig, sample_hop_fields
from .outage import analytical_outage, montecarlo_outage
from .rng import (
    STREAM_DISTRIBUTION,
    STREAM_HOP_MOMENTS,
    STREAM_NETWORK_MC,
    substream,
)
from .scenario import (
    DEFAULT_SEED,
    Scenario,
    ScenarioError,
    load_preset,
    parse_scenario,
    parse_seed,
    preset_names,
)

ERROR_PREFIX = "relay-outage: error:"

OUTAGE_COLUMNS = ("rate", "analytical_outage", "mc_outage", "mc_std_error")
DISTRIBUTION_COLUMNS = (
    "bin_lo",
    "bin_hi",
    "exact_frequency",
    "midpoint_frequency",
)


@dataclasses.dataclass(frozen=True)
class ResultTable:
    """Rows plus a header block that fully reproduces the run."""

    header: tuple[str, ...]
    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]

    def render(self) -> str:
        lines = [f"# {entry}" for entry in self.header]
        lines.append("# columns: " + ",".join(self.columns))
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"row width {len(row)} != {len(self.columns)} columns"
                )
            if not all(np.isfinite(value) for value in row):
                raise ArithmeticError(f"non-finite value in result row {row}")
            lines.append(",".join(repr(float(value)) for value in row))
        return "\n".join(lines) + "\n"


def _ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance: the largest gap between ECDFs.

    Both ECDFs are read at every sample by binary search, so ties need no
    special care.  The arithmetic is ``scipy.stats.ks_2samp``'s statistic
    before its exact p-value path re-rounds it for small samples.
    """
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate([a, b])
    gap = (
        np.searchsorted(a, both, side="right") / a.size
        - np.searchsorted(b, both, side="right") / b.size
    )
    return float(max(gap.max(), -gap.min()))


def _skewness(x: np.ndarray) -> float:
    """Biased sample skewness ``m3 / m2**1.5``, in ``scipy.stats.skew``'s arithmetic."""
    dev = x - x.mean()
    sq = dev**2
    return float((sq * dev).mean() / sq.mean() ** 1.5)


def _hop_header(index: int, hop: HopConfig) -> str:
    if hop.rsi_snr_db is None:
        rsi = "rsi_snr_db=none rho=0.0"
    else:
        rsi = (
            f"rsi_snr_db={hop.rsi_snr_db!r} rho={hop.rho!r} "
            f"rsi_tx_antennas={hop.rsi_tx_antennas}"
        )
    return (
        f"hop {index}: tx_antennas={hop.tx_antennas} "
        f"rx_antennas={hop.rx_antennas} snr_db={hop.snr_db!r} "
        f"eta={hop.eta!r} {rsi}"
    )


def _scenario_header(scenario: Scenario, command: str) -> list[str]:
    lines = [
        f"relay-outage {__version__}",
        f"command: {command}",
        f"scenario: {scenario.name}",
        f"mode: {scenario.network.mode.value}",
        f"hops: {scenario.network.n_hops}",
    ]
    lines += [
        _hop_header(k, hop) for k, hop in enumerate(scenario.network.hops, start=1)
    ]
    lines.append(f"seed: {scenario.seed}")
    return lines


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _resolve_scenario(args: argparse.Namespace) -> Scenario:
    if args.preset is not None:
        scenario = load_preset(args.preset)
    else:
        scenario = parse_scenario(args.scenario)
    overrides: dict[str, object] = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "samples", None) is not None:
        overrides["n_moment_samples"] = args.samples
        overrides["dist_samples"] = args.samples
    if getattr(args, "realizations", None) is not None:
        overrides["n_mc_realizations"] = args.realizations
    if args.out is not None:
        overrides["output_dir"] = args.out
    return dataclasses.replace(scenario, **overrides) if overrides else scenario


OUTAGE_GNUPLOT = """\
set datafile separator ','
set xlabel 'Target rate (bits/s/Hz)'
set ylabel 'Outage probability'
set logscale y
set yrange [1e-4:1]
set key left top
set grid
plot '{csv}' using 1:2 with lines title 'analytical', \\
     '{csv}' using 1:3:4 with yerrorbars pointtype 7 pointsize 0.5 \\
     title 'Monte Carlo'
"""

DISTRIBUTION_GNUPLOT = """\
set datafile separator ','
set xlabel 'log2 det (bits)'
set ylabel 'Frequency'
set key left top
set grid
plot '{csv}' using (($1+$2)/2):4 with lines title 'midpoint approximation', \\
     '{csv}' using (($1+$2)/2):3 with points pointtype 6 title 'exact'
"""


def cmd_outage(args: argparse.Namespace) -> int:
    scenario = _resolve_scenario(args)
    rates = scenario.rates
    analytical = analytical_outage(
        scenario.network,
        rates,
        substream(scenario.seed, STREAM_HOP_MOMENTS),
        scenario.n_moment_samples,
    )
    montecarlo, std_errors = montecarlo_outage(
        scenario.network,
        rates,
        substream(scenario.seed, STREAM_NETWORK_MC),
        scenario.n_mc_realizations,
    )

    header = _scenario_header(scenario, "outage")
    header.append(f"moment_samples: {scenario.n_moment_samples}")
    header.append(f"mc_realizations: {scenario.n_mc_realizations}")
    header.append(
        f"rates: start={scenario.rate_start!r} stop={scenario.rate_stop!r} "
        f"step={scenario.rate_step!r} points={rates.size}"
    )
    rows = tuple(
        (float(rate), float(pa), float(pm), float(se))
        for rate, pa, pm, se in zip(rates, analytical, montecarlo, std_errors)
    )
    table = ResultTable(header=tuple(header), columns=OUTAGE_COLUMNS, rows=rows)

    out_dir = Path(scenario.output_dir)
    csv_path = out_dir / f"{scenario.name}-outage.csv"
    _write(csv_path, table.render())
    if args.gnuplot:
        _write(
            out_dir / f"{scenario.name}-outage.gp",
            OUTAGE_GNUPLOT.format(csv=csv_path.name),
        )

    deviation = float(np.max(np.abs(analytical - montecarlo)))
    print(
        f"{scenario.name}: max |analytical - MC| = {deviation:.6g} "
        f"over {rates.size} rates; wrote {csv_path}"
    )
    return 0


def cmd_distribution(args: argparse.Namespace) -> int:
    scenario = _resolve_scenario(args)
    if scenario.dist_hop is None:
        raise ScenarioError(
            "distribution command needs a [distribution] section naming a hop",
            scenario.name,
        )
    hop = scenario.network.hops[scenario.dist_hop - 1]
    n_samples = scenario.dist_samples or scenario.n_moment_samples
    exact, midpoint = sample_hop_fields(
        hop, n_samples, substream(scenario.seed, STREAM_DISTRIBUTION), (EXACT, MIDPOINT)
    )

    width = scenario.dist_bin_width
    lo = np.floor(min(exact.min(), midpoint.min()) / width) * width
    hi = np.ceil(max(exact.max(), midpoint.max()) / width) * width
    n_bins = max(1, int(round((hi - lo) / width)))
    edges = lo + width * np.arange(n_bins + 1)
    exact_freq = np.histogram(exact, bins=edges)[0] / n_samples
    midpoint_freq = np.histogram(midpoint, bins=edges)[0] / n_samples

    ks_distance = _ks_distance(exact, midpoint)
    exact_skew = _skewness(exact)
    midpoint_skew = _skewness(midpoint)

    header = _scenario_header(scenario, "distribution")
    header.append(f"distribution_hop: {scenario.dist_hop}")
    header.append(f"samples: {n_samples}")
    header.append(f"bin_width: {width!r}")
    header.append(f"ks_distance: {ks_distance!r}")
    header.append(f"exact_skewness: {exact_skew!r}")
    header.append(f"midpoint_skewness: {midpoint_skew!r}")
    rows = tuple(
        (float(edges[i]), float(edges[i + 1]), float(exact_freq[i]), float(midpoint_freq[i]))
        for i in range(n_bins)
    )
    table = ResultTable(
        header=tuple(header), columns=DISTRIBUTION_COLUMNS, rows=rows
    )

    out_dir = Path(scenario.output_dir)
    csv_path = out_dir / f"{scenario.name}-distribution.csv"
    _write(csv_path, table.render())
    if args.gnuplot:
        _write(
            out_dir / f"{scenario.name}-distribution.gp",
            DISTRIBUTION_GNUPLOT.format(csv=csv_path.name),
        )

    print(
        f"{scenario.name}: KS distance = {ks_distance:.6g}, "
        f"exact skewness = {exact_skew:.6g}; wrote {csv_path}"
    )
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    # Imported here so that the other commands do not load the oracles
    # (about 6 ms on top of the ~160 ms import of this module).
    from .validation import run_validation

    options: dict[str, int] = {}  # an omitted flag keeps run_validation's default
    if args.seed is not None:
        options.update(seed=args.seed)
    if args.samples is not None:
        options.update(n_samples=args.samples)
    if args.realizations is not None:
        options.update(n_mc=args.realizations)
    report = run_validation(**options)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(
            f"{status} {check.name:<22} measured {check.measured:.6g} "
            f"vs limit {check.limit:.6g} ({check.seconds:.2f} s)  "
            f"[{check.detail}]"
        )
    print(f"{len(report.checks)} checks in {report.seconds:.1f} s")
    if not report.passed:
        print(
            f"{ERROR_PREFIX} validation failed: {', '.join(report.failures)}",
            file=sys.stderr,
        )
        return 1
    return 0


def _add_scenario_source(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--scenario", metavar="PATH", help="scenario file to run")
    source.add_argument(
        "--preset",
        metavar="NAME",
        help=f"shipped scenario preset ({', '.join(preset_names())})",
    )
    parser.add_argument("--seed", metavar="SEED", help="override the scenario seed")
    parser.add_argument(
        "--samples",
        type=int,
        metavar="N",
        help="override per-hop moment / distribution sample count",
    )
    parser.add_argument("--out", metavar="DIR", help="override the output directory")
    parser.add_argument(
        "--gnuplot",
        action="store_true",
        help="also write a gnuplot script next to the CSV",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relay-outage",
        description=(
            "Outage probability of multi-hop MIMO relay chains: Gaussian "
            "closed form versus Monte Carlo."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"relay-outage {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    outage = commands.add_parser(
        "outage", help="sweep outage probability over the rate grid"
    )
    _add_scenario_source(outage)
    outage.add_argument(
        "--realizations",
        type=int,
        metavar="N",
        help="override Monte Carlo realization count",
    )
    outage.set_defaults(func=cmd_outage)

    distribution = commands.add_parser(
        "distribution",
        help="histogram the exact log-det against the midpoint approximation",
    )
    _add_scenario_source(distribution)
    distribution.set_defaults(func=cmd_distribution)

    validate = commands.add_parser("validate", help="run the oracle self-checks")
    validate.add_argument("--seed", metavar="SEED", help=f"check seed (default {DEFAULT_SEED})")
    validate.add_argument(
        "--samples", type=int, metavar="N",
        help="draws for the sandwich and moment checks",
    )
    validate.add_argument(
        "--realizations", type=int, metavar="N",
        help="realizations for the Monte Carlo oracle checks",
    )
    validate.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None:
            args.seed = parse_seed(args.seed, "--seed")
        return args.func(args)
    except (ValueError, OSError) as exc:  # ScenarioError is a ValueError
        print(f"{ERROR_PREFIX} {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"{ERROR_PREFIX} numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
