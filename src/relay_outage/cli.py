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
(flags or scenario, or a run larger than memory holds), 3 numerical
failure.  Errors print a single line to stderr starting with
``relay-outage: error:``.

The command runs numpy's BLAS on one thread unless ``OPENBLAS_NUM_THREADS``
is set: every matrix the package hands to BLAS or LAPACK is too small to
split across threads, so numpy's default pool only spins at start-up.
Importing the library (``import relay_outage``) leaves BLAS as numpy sets
it; only a process that loads this module before numpy gets the default.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

# numpy starts OpenBLAS's pool, one thread per CPU, when it loads, and no
# BLAS call of this package is large enough to use it: on a 2-vCPU machine
# (numpy 2.4.6, OpenBLAS 0.3.31) the idle pool cost every run about 0.06 to
# 0.07 s of wall and of CPU time (medians of 9 alternated children, with and
# without it).  The count only takes effect before numpy loads; a process
# that already holds numpy keeps its environment, and a value the user set wins.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .mutual_info import EXACT, MIDPOINT, MIN_MOMENT_SAMPLES, HopConfig, sample_hop_fields
from .outage import (
    MIN_MC_REALIZATIONS,
    chain_moments,
    gaussian_chain_outage,
    gaussian_hop_outage,
    montecarlo_outage,
)
from .rng import (
    CHUNK_SIZE,
    STREAM_DISTRIBUTION,
    STREAM_HOP_MOMENTS,
    STREAM_NETWORK_MC,
    substream,
)
from .scenario import (
    DEFAULT_SEED,
    MAX_CSV_ROWS,
    MAX_DRAWS,
    Scenario,
    ScenarioError,
    load_preset,
    parse_draws,
    parse_scenario,
    parse_seed,
    preset_names,
)

ERROR_PREFIX = "relay-outage: error:"

OUTAGE_COLUMNS = ("rate", "analytical_outage", "mc_outage", "mc_std_error")
# A hop whose Gaussian law puts more mass than this below zero mutual
# information gets a warning header line in the outage CSV.
NEGATIVE_MASS_WARNING = 1e-3
DISTRIBUTION_COLUMNS = (
    "bin_lo",
    "bin_hi",
    "exact_frequency",
    "midpoint_frequency",
)


def _ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance: the largest gap between ECDFs.

    ``F_a - F_b`` rises only at points of ``a`` and falls only at points of
    ``b``, so its largest value is at a point of ``a`` and its smallest at a
    point of ``b``; each sample is read for its own side of the gap.  At the
    ``j``-th point of a sorted sample its own count is taken as ``j``, short
    of the true count only inside a tie group, whose last point has it
    exactly, so ties need no special care; the other sample's count comes
    by binary search, in the stretch of it that a block of ``CHUNK_SIZE``
    points spans.  Beside the two sorted copies only one block is held.
    The arithmetic, and so the float, is ``scipy.stats.ks_2samp``'s
    statistic before its exact p-value path re-rounds it for small samples.
    """
    a, b = np.sort(a), np.sort(b)
    widest = 0.0
    for own, other in ((a, b), (b, a)):
        for start in range(0, own.size, CHUNK_SIZE):
            points = own[start : start + CHUNK_SIZE]
            lo, hi = np.searchsorted(other, points[[0, -1]], side="right")
            below = lo + np.searchsorted(other[lo:hi], points, side="right")
            gap = np.arange(start + 1, start + points.size + 1) / own.size - below / other.size
            widest = max(widest, gap.max())
    return float(widest)


def _skewness(x: np.ndarray) -> float:
    """Biased sample skewness ``m3 / m2**1.5``, in ``scipy.stats.skew``'s arithmetic."""
    dev = x - x.mean()
    sq = dev * dev
    m2 = sq.mean()
    sq *= dev  # cubed in place, so one temporary fewer is held
    with np.errstate(invalid="ignore"):  # a constant sample has none: 0 / 0 reads nan
        return float(sq.mean() / m2**1.5)


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


def _resolve_scenario(args: argparse.Namespace) -> Scenario:
    if args.preset is not None:
        scenario = load_preset(args.preset)
    else:
        scenario = parse_scenario(args.scenario)
    overrides: dict[str, object] = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.samples is not None:
        overrides["n_moment_samples"] = args.samples
        overrides["dist_samples"] = args.samples
    if getattr(args, "realizations", None) is not None:
        overrides["n_mc_realizations"] = args.realizations
    if args.out is not None:
        overrides["output_dir"] = args.out
    return dataclasses.replace(scenario, **overrides) if overrides else scenario


# The --gnuplot companion of each command's CSV.
GNUPLOT_SCRIPTS = {
    "outage": """\
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
""",
    "distribution": """\
set datafile separator ','
set xlabel 'log2 det (bits)'
set ylabel 'Frequency'
set key left top
set grid
plot '{csv}' using (($1+$2)/2):4 with lines title 'midpoint approximation', \\
     '{csv}' using (($1+$2)/2):3 with points pointtype 6 title 'exact'
""",
}


def _write_result(
    scenario: Scenario,
    command: str,
    header: list[str],
    columns: tuple[str, ...],
    rows: np.ndarray,
    gnuplot: bool,
) -> Path:
    """Write ``<name>-<command>.csv`` (and its gnuplot script) and return the CSV path.

    ``rows`` is a 2-D float array; a non-finite value raises
    ``ArithmeticError`` before anything is written.
    """
    lines = [f"# {entry}" for entry in header]
    lines.append("# columns: " + ",".join(columns))
    for row in rows:
        if not np.isfinite(row).all():
            raise ArithmeticError(f"non-finite value in result row {tuple(row.tolist())}")
        lines.append(",".join(repr(float(value)) for value in row))
    out_dir = Path(scenario.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{scenario.name}-{command}.csv"
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    if gnuplot:
        script = GNUPLOT_SCRIPTS[command].format(csv=csv_path.name)
        csv_path.with_suffix(".gp").write_text(script, encoding="utf-8", newline="\n")
    return csv_path


def _moment_header(moments) -> list[str]:
    """One line per hop's (time-share scaled) moments, and a warning per misfit hop.

    A hop's mass below zero is its :func:`~relay_outage.outage.gaussian_hop_outage`
    at rate 0, taken once per distinct moment pair: a chain of equal hops
    holds one pair, however many hops it has.
    """
    mass_below_zero = {
        hop: float(gaussian_hop_outage(hop, np.zeros(1))[0]) for hop in dict.fromkeys(moments)
    }
    lines, warnings = [], []
    for k, hop in enumerate(moments, start=1):
        below_zero = mass_below_zero[hop]
        lines.append(
            f"hop {k} moments: mean={hop.mean!r} variance={hop.variance!r} "
            f"source={hop.source} gaussian_p_below_0={below_zero!r}"
        )
        if below_zero > NEGATIVE_MASS_WARNING:
            warnings.append(
                f"warning: hop {k} Gaussian law puts {below_zero:.3g} of its mass "
                f"below zero mutual information, where the true law puts none "
                f"(warning level {NEGATIVE_MASS_WARNING:g})"
            )
        if hop.variance == 0.0:
            warnings.append(
                f"warning: hop {k} has zero variance: its Gaussian law is a step at its mean"
            )
    return lines + warnings


def cmd_outage(args: argparse.Namespace) -> int:
    scenario = _resolve_scenario(args)
    rates = scenario.rates
    moments = chain_moments(
        scenario.network,
        substream(scenario.seed, STREAM_HOP_MOMENTS),
        scenario.n_moment_samples,
    )
    analytical = gaussian_chain_outage(moments, rates)
    montecarlo, std_errors = montecarlo_outage(
        scenario.network,
        rates,
        substream(scenario.seed, STREAM_NETWORK_MC),
        scenario.n_mc_realizations,
    )

    header = _scenario_header(scenario, "outage")
    header.append(f"moment_samples: {scenario.n_moment_samples} (sampled hops only)")
    header.append(f"mc_realizations: {scenario.n_mc_realizations}")
    header += _moment_header(moments)
    header.append(
        f"rates: start={scenario.rate_start!r} stop={scenario.rate_stop!r} "
        f"step={scenario.rate_step!r} points={rates.size}"
    )
    rows = np.column_stack((rates, analytical, montecarlo, std_errors))
    csv_path = _write_result(scenario, "outage", header, OUTAGE_COLUMNS, rows, args.gnuplot)

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
    # a width far below the sample's spread overflows to inf (or nan) bins
    with np.errstate(over="ignore", invalid="ignore"):
        lo = np.floor(min(exact.min(), midpoint.min()) / width) * width
        hi = np.ceil(max(exact.max(), midpoint.max()) / width) * width
        bins = (hi - lo) / width
    if not bins <= MAX_CSV_ROWS:  # refused before the edges are allocated
        raise ScenarioError(
            f"distribution.bin_width = {width!r} makes {bins:.4g} histogram bins, "
            f"more than {MAX_CSV_ROWS}",
            scenario.name,
        )
    n_bins = max(1, int(round(bins)))
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
    rows = np.column_stack((edges[:-1], edges[1:], exact_freq, midpoint_freq))
    csv_path = _write_result(
        scenario, "distribution", header, DISTRIBUTION_COLUMNS, rows, args.gnuplot
    )

    print(
        f"{scenario.name}: KS distance = {ks_distance:.6g}, "
        f"exact skewness = {exact_skew:.6g}; wrote {csv_path}"
    )
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    # Imported here so that the other commands do not load the oracles.
    from .validation import run_validation

    options: dict[str, int] = {}  # an omitted flag keeps run_validation's default
    if args.seed is not None:
        options.update(seed=args.seed)
    if args.samples is not None:
        options.update(n_samples=args.samples)
    if args.realizations is not None:
        options.update(n_mc=args.realizations)
    results = run_validation(**options)
    for check, seconds in results:
        status = "PASS" if check.passed else "FAIL"
        print(
            f"{status} {check.name:<22} measured {check.measured:.6g} "
            f"vs limit {check.limit:.6g} ({seconds:.2f} s)  "
            f"[{check.detail}]"
        )
    print(f"{len(results)} checks in {sum(seconds for _, seconds in results):.1f} s")
    failures = [check.name for check, _ in results if not check.passed]
    if failures:
        print(f"{ERROR_PREFIX} validation failed: {', '.join(failures)}", file=sys.stderr)
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
        metavar="N",
        help=(
            "override the sample count: outage's per-hop moment samples (rx >= 3 "
            "or non-converged hops only; other hops use quadrature), or "
            f"distribution's samples; {MIN_MOMENT_SAMPLES} to {MAX_DRAWS:,}"
        ),
    )
    parser.add_argument("--out", metavar="DIR", help="override the output directory")
    parser.add_argument(
        "--gnuplot",
        action="store_true",
        help="also write a gnuplot script next to the CSV",
    )


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a flag error as one ``relay-outage: error:`` line; subparsers inherit it."""

    def error(self, message: str):
        print(f"{ERROR_PREFIX} {message}", file=sys.stderr)
        sys.exit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
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
        metavar="N",
        help=f"override Monte Carlo realization count ({MIN_MC_REALIZATIONS} to {MAX_DRAWS:,})",
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
        "--samples", metavar="N",
        help=f"draws for the sandwich and moment checks ({MIN_MOMENT_SAMPLES} to {MAX_DRAWS:,})",
    )
    validate.add_argument(
        "--realizations", metavar="N",
        help=f"realizations for the Monte Carlo oracle checks ({MIN_MC_REALIZATIONS} to {MAX_DRAWS:,})",
    )
    validate.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None:
            args.seed = parse_seed(args.seed, "--seed")
        for name in ("samples", "realizations"):
            if getattr(args, name, None) is not None:
                setattr(args, name, parse_draws(getattr(args, name), f"--{name}"))
        return args.func(args)
    # first: LinAlgError is a ValueError, which the input clause below would take
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"{ERROR_PREFIX} numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # ScenarioError is a ValueError
        print(f"{ERROR_PREFIX} {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # the input asks for more than the machine holds
        print(f"{ERROR_PREFIX} out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
