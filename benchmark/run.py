#!/usr/bin/env python3
"""Benchmark of the ``relay-outage`` command line.

Run from the root of a source checkout (no install needed)::

    python3 benchmark/run.py --workload mc-tail --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py                     # every workload, untraced then traced

``--trace 0`` runs the real CLI (``python -m relay_outage.cli`` with
``PYTHONPATH=src``) as a child process in a closed loop, one child at a
time, for ``--seconds`` seconds, and reports the end-to-end metrics.
``--trace 1`` runs the same command in process with span wrappers from
``tracer.py`` and reports the per-layer split, plus an import breakdown
from ``python -X importtime``.  Every run checks the program's output; the
last line of standard output is one JSON object with the result.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_REPEATS = 3  # workload children per untraced run, whatever --seconds is
SETUP_CHILDREN = 3  # timed --version children per untraced run, spread over it
MIN_TRACED = 2  # traced (and untraced) in-process runs per traced run
# A run must end within 180 s: no new workload run starts after
# LAUNCH_CUTOFF_S, and a child still running at DEADLINE_S is killed.
LAUNCH_CUTOFF_S = 120.0
DEADLINE_S = 170.0
STARTED = time.perf_counter()

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "RELAY_OUTAGE_THREADS",
)

# fig3-fd-rsi12 with a rate grid five times finer (281 rates), so that the
# Monte Carlo empirical CDF and its (rates x realizations) temporary matter.
FINE_GRID_SCENARIO = """\
[network]
mode = fd
hops = 3

[hop]
tx_antennas = 2
rx_antennas = 2
snr_db = 20
rsi_snr_db = 8

[rates]
start = 0.0
stop = 14.0
step = 0.05

[sampling]
moment_samples = 10000
mc_realizations = 10000
seed = 12345
"""
FINE_GRID_FILE = "fig3-fd-rsi12-fine.scenario"

# fig3-fd-rsi12 draws five channel matrices per sample: a desired channel
# per hop (3) and an RSI channel on the two relaying hops (2).
FIG3_MATRICES = 5


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # CLI arguments, before the benchmark's --seed and --out
    kind: str  # which output gate applies: outage, distribution or validate
    draws: int  # channel matrices the sampling contract draws per run
    rates: int = 0  # rows of an outage CSV


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "analytic-moments",
            ("outage", "--preset", "fig3-fd-rsi12", "--samples", "300000",
             "--realizations", "1000"),
            "outage",
            draws=FIG3_MATRICES * (300_000 + 1_000),
            rates=57,
        ),
        Workload(
            "mc-tail",
            ("outage", "--scenario", FINE_GRID_FILE, "--samples", "100",
             "--realizations", "500000"),
            "outage",
            draws=FIG3_MATRICES * (100 + 500_000),
            rates=281,
        ),
        Workload(
            "distribution-paired",
            ("distribution", "--preset", "dist-snr20-rsi0", "--samples", "1000000"),
            "distribution",
            draws=2 * 1_000_000,
        ),
        Workload(
            # validate's Monte Carlo checks are 3-sigma tests, which some
            # seeds fail by chance; the workload runs the shipped default.
            "validate-default",
            ("validate",),
            "validate",
            # sandwich 3 x 1e5 x (desired + RSI), SISO 1e5, moments 3 x 1e5
            draws=3 * 100_000 * 2 + 100_000 + 3 * 100_000,
        ),
    )
}


# --------------------------------------------------------------------------
# Correctness gates.  Each returns a list of problems (empty when correct).


def _csv(text: str) -> tuple[dict[str, str], list[str], list[list[float]]]:
    header, columns, rows = {}, [], []
    for line in text.splitlines():
        if line.startswith("# columns: "):
            columns = line[len("# columns: "):].split(",")
        elif line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            header[key] = value
        elif line:
            try:
                rows.append([float(cell) for cell in line.split(",")])
            except ValueError:
                rows.append([])  # fails the row-width check
    return header, columns, rows


def _non_decreasing(values: list[float]) -> bool:
    return all(b >= a for a, b in zip(values, values[1:]))


def gate_outage(text: str, workload: Workload, version: str) -> list[str]:
    problems = []
    if not text.startswith(f"# relay-outage {version}\n"):
        problems.append("CSV does not start with the version header")
    _, columns, rows = _csv(text)
    if columns != ["rate", "analytical_outage", "mc_outage", "mc_std_error"]:
        problems.append(f"unexpected columns {columns}")
    if len(rows) != workload.rates:
        problems.append(f"{len(rows)} rows, expected {workload.rates}")
    if any(len(row) != 4 or not all(map(math.isfinite, row)) for row in rows):
        problems.append("a row is not 4 finite values")
        return problems
    for col, label in ((1, "analytical"), (2, "Monte Carlo")):
        curve = [row[col] for row in rows]
        if not all(0.0 <= p <= 1.0 for p in curve):
            problems.append(f"{label} outage outside [0, 1]")
        if not _non_decreasing(curve):
            problems.append(f"{label} outage decreases with rate")
    return problems


KS_LIMIT = 0.02  # acceptance limit on the exact-vs-midpoint KS distance


def gate_distribution(text: str, workload: Workload, version: str) -> list[str]:
    problems = []
    if not text.startswith(f"# relay-outage {version}\n"):
        problems.append("CSV does not start with the version header")
    header, columns, rows = _csv(text)
    if columns != ["bin_lo", "bin_hi", "exact_frequency", "midpoint_frequency"]:
        problems.append(f"unexpected columns {columns}")
    if not rows or any(len(row) != 4 or not all(map(math.isfinite, row)) for row in rows):
        problems.append("no rows, or a row is not 4 finite values")
        return problems
    for col in (2, 3):
        if abs(math.fsum(row[col] for row in rows) - 1.0) > 1e-9:
            problems.append(f"frequency column {columns[col]} does not sum to 1")
    ks = float(header.get("ks_distance", "nan"))
    if not ks <= KS_LIMIT:
        problems.append(f"ks_distance {ks} above {KS_LIMIT}")
    return problems


VALIDATE_CHECKS = 5
_TIMINGS = re.compile(r"\(\d+\.\d+ s\)|in \d+\.\d+ s")


def gate_validate(text: str, workload: Workload, version: str) -> list[str]:
    lines = text.splitlines()
    passed = sum(line.startswith("PASS ") for line in lines)
    failed = [line for line in lines if line.startswith("FAIL ")]
    if passed != VALIDATE_CHECKS or failed:
        return [f"{passed} PASS lines, expected {VALIDATE_CHECKS}"] + failed
    return []


GATES = {"outage": gate_outage, "distribution": gate_distribution, "validate": gate_validate}


def output_of(workload: Workload, out_dir: Path, stdout: str) -> tuple[str, str]:
    """The run's output and its sha256 (timings stripped from validate's report)."""
    if workload.kind == "validate":
        text = stdout
        digest_text = _TIMINGS.sub("", stdout)
    else:
        csvs = sorted(out_dir.glob("*.csv"))
        text = csvs[0].read_text(encoding="utf-8") if len(csvs) == 1 else ""
        digest_text = text
    return text, hashlib.sha256(digest_text.encode()).hexdigest()


# --------------------------------------------------------------------------
# Running the program.


def cli_args(workload: Workload, seed: int, out_dir: Path) -> list[str]:
    args = list(workload.argv)
    if workload.kind != "validate":  # validate keeps its default seed
        args += ["--seed", str(seed), "--out", str(out_dir)]
    return args


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("RELAY_OUTAGE_THREADS", None)  # measure the shipped default
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def run_child(argv: list[str], cwd: Path, python_flags: tuple[str, ...] = ()) -> Child:
    """Run ``python -m relay_outage.cli ARGV`` and wait for it with ``wait4``."""
    command = [sys.executable, *python_flags, "-m", "relay_outage.cli", *argv]
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        killer = threading.Timer(max(1.0, STARTED + DEADLINE_S - start), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(
            code=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
            stdout=out.read().decode(errors="replace"),
            stderr=err.read().decode(errors="replace"),
        )


def program_version(tmp: Path) -> str:
    """Warm up with one untimed ``--version`` child and return the version."""
    child = run_child(["--version"], tmp)
    if child.code != 0 or not child.stdout.startswith("relay-outage "):
        raise SystemExit(f"benchmark: --version failed: {child.stderr.strip()}")
    return child.stdout.split()[1]


def environment() -> dict[str, str]:
    record = {
        "nproc": str(len(os.sched_getaffinity(0))),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }
    for package in ("numpy", "scipy"):
        try:
            record[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            record[package] = "not installed"
    for var in THREAD_VARS:
        record[var] = os.environ.get(var, "unset")
    record["RELAY_OUTAGE_THREADS (child)"] = "unset"
    return record


def why(name: str) -> str:
    """The workload's one-line rationale, as ``BENCHMARK.json`` states it."""
    listed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return next(
        (w["why"] for w in listed["workloads"] if w["name"] == name),
        "not listed in BENCHMARK.json; see benchmark/README.md",
    )


def git_commit() -> str:
    # The ceiling keeps git from taking a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git not available)"
    if proc.returncode != 0:
        return "unknown (not a git checkout)"
    return proc.stdout.strip()


# --------------------------------------------------------------------------
# The two kinds of run.


@dataclass
class Outcome:
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    digests: set[str] = field(default_factory=set)

    def check(self, workload: Workload, version: str, out_dir: Path,
              code: int, stdout: str, stderr: str = "") -> str:
        """Gate one run of the program; return its status for the log."""
        text, digest = output_of(workload, out_dir, stdout)
        problems = [] if code == 0 else [f"exit code {code}: {stderr.strip()}"]
        problems += GATES[workload.kind](text, workload, version)
        self.digests.add(digest)
        self.attempted += 1
        self.failed += bool(problems)
        return f"exit {code}, relay-outage {version}, sha256 {digest[:16]}" + "".join(
            f"\n  FAIL {p}" for p in problems
        )

    def check_determinism(self) -> None:
        if len(self.digests) > 1:
            self.failed += 1
            print(f"FAIL determinism: {len(self.digests)} distinct outputs for one seed")


def untraced(workload: Workload, seed: int, seconds: float, tmp: Path) -> Outcome:
    version = program_version(tmp)
    outcome = Outcome()
    children: list[Child] = []
    setup: list[float] = []
    start = time.perf_counter()
    while len(children) < MIN_REPEATS or time.perf_counter() - start < seconds:
        if time.perf_counter() - start > LAUNCH_CUTOFF_S:
            break
        out_dir = tmp / f"run{len(children)}"
        child = run_child(cli_args(workload, seed, out_dir), tmp)
        children.append(child)
        status = outcome.check(workload, version, out_dir, child.code, child.stdout, child.stderr)
        print(
            f"child {len(children)}: wall {child.wall_s:.4f} s, cpu {child.cpu_s:.4f} s, "
            f"rss {child.peak_rss_mb:.1f} MB, {status}"
        )
        # Set-up is timed by a few start-and-import children spread evenly
        # over the run, so they sample the same stretch of machine time as
        # the workload children and the rest of the budget goes to those.
        while (len(setup) < SETUP_CHILDREN
               and time.perf_counter() - start >= len(setup) * seconds / SETUP_CHILDREN):
            child = run_child(["--version"], tmp)
            outcome.attempted += 1
            if child.code != 0 or child.stdout.split()[1:] != [version]:
                outcome.failed += 1
                print(f"FAIL set-up child: exit {child.code} {child.stderr.strip()}")
            setup.append(child.wall_s)
            print(f"set-up child {len(setup)}: wall {child.wall_s:.4f} s")
    outcome.check_determinism()

    wall = statistics.median(c.wall_s for c in children)
    outcome.metrics = {
        "wall_s": (wall, "s"),
        "draws_per_s": (workload.draws / wall, "1/s"),
        "cpu_s": (statistics.median(c.cpu_s for c in children), "s"),
        "peak_rss_mb": (statistics.median(c.peak_rss_mb for c in children), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    print(
        f"{len(children)} workload and {len(setup)} set-up children over "
        f"{time.perf_counter() - start:.1f} s; draws per run {workload.draws}; "
        f"fail_ratio {outcome.failed / outcome.attempted:.4g} "
        f"({outcome.failed}/{outcome.attempted})"
    )
    return outcome


def run_in_process(cli, argv: list[str], tracer_=None) -> tuple[int, str, float]:
    stdout = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stdout):
        try:
            if tracer_ is None:
                code = cli.main(argv)
            else:
                code = tracer_.call("cli.main", cli.main, argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return code, stdout.getvalue(), time.perf_counter() - start


def traced(workload: Workload, seed: int, seconds: float, tmp: Path) -> Outcome:
    version = program_version(tmp)
    importtime = run_child(["--version"], tmp, python_flags=("-X", "importtime"))
    imports = tracer.import_breakdown(importtime.stderr)

    sys.path.insert(0, str(SRC))
    os.environ.pop("RELAY_OUTAGE_THREADS", None)
    from relay_outage import cli  # noqa: E402  (the package under test)

    outcome = Outcome()
    counts, layers = [], []
    walls: dict[str, list[float]] = {"traced": [], "untraced": []}
    cwd = os.getcwd()
    os.chdir(tmp)
    try:
        start = time.perf_counter()
        runs = 0
        # An untimed warm-up, then traced and untraced runs in turn, so the
        # tracing overhead compares runs made under the same conditions.
        while runs < 2 * MIN_TRACED or time.perf_counter() - start < seconds:
            if time.perf_counter() - start > LAUNCH_CUTOFF_S:
                break
            kind = "warm-up" if runs == 0 else ("traced" if runs % 2 else "untraced")
            out_dir = tmp / f"run{runs}"
            argv = cli_args(workload, seed, out_dir)
            if kind == "traced":
                spans = tracer.Tracer()
                spans.install()
                try:
                    code, stdout, wall = run_in_process(cli, argv, spans)
                finally:
                    spans.uninstall()
                spans.dump(WORK / f"spans-{workload.name}.json")
                layer = spans.layer_metrics()
                layer["cli.csv_bytes"] = sum(p.stat().st_size for p in out_dir.glob("*.csv"))
                layers.append(layer)
                counts.append({k: layer[k] for k in (*tracer.EXACT_COUNTS, "cli.csv_bytes")})
                if spans.missing:
                    print(f"note: not found, recorded as 0 calls: {', '.join(spans.missing)}")
            else:
                code, stdout, wall = run_in_process(cli, argv)
            if kind in walls:
                walls[kind].append(wall)
            runs += 1
            status = outcome.check(workload, version, out_dir, code, stdout)
            print(f"{kind} run {runs}: wall {wall:.4f} s, {status}")
    finally:
        os.chdir(cwd)

    outcome.check_determinism()
    if any(c != counts[0] for c in counts):
        outcome.failed += 1
        print(f"FAIL exact counts differ between traced runs: {counts}")
    drawn = counts[0]["randmat.matrices_drawn"]
    if drawn and drawn != workload.draws:
        outcome.failed += 1
        print(f"FAIL {drawn} matrices drawn, the sampling contract says {workload.draws}")

    units = {name: unit for name, unit, _, _ in tracer.LAYER_METRICS}
    units["cli.csv_bytes"] = "bytes"
    for name, unit in units.items():
        values = [layer[name] for layer in layers]
        value = values[0] if unit in ("count", "bytes") else statistics.median(values)
        outcome.metrics[name] = (value, unit)
    for family in tracer.IMPORT_FAMILIES + ("total",):
        outcome.metrics[f"import.{family}_s"] = (imports[family], "s")
    traced_wall = statistics.median(walls["traced"])
    outcome.metrics["trace.wall_s"] = (traced_wall, "s")
    outcome.metrics["trace.overhead_s"] = (
        traced_wall - statistics.median(walls["untraced"]), "s"
    )
    print(f"{len(layers)} traced runs; spans written to {WORK / f'spans-{workload.name}.json'}")
    return outcome


# --------------------------------------------------------------------------


def run_all(args: argparse.Namespace) -> int:
    """Run every workload untraced and traced, each in its own process."""
    ok, results = True, {}
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            print(proc.stdout, end="")
            last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
            try:
                result = json.loads(last[0])
            except json.JSONDecodeError:
                result = {}
            results[f"{name}/trace{trace}"] = result
            ok = ok and proc.returncode == 0 and result.get("correct") is True
    print(json.dumps({"correct": ok, "results": results}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "relay_outage" / "cli.py").is_file():
        print(f"benchmark: no relay_outage sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    workload = WORKLOADS[args.workload]
    print(f"workload {workload.name}: {why(workload.name)}")
    for key, value in environment().items():
        print(f"env {key}: {value}")
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        tmp = Path(tmp)
        if workload.argv[:3] == ("outage", "--scenario", FINE_GRID_FILE):
            (tmp / FINE_GRID_FILE).write_text(FINE_GRID_SCENARIO, encoding="utf-8")
        run = traced if args.trace else untraced
        outcome = run(workload, args.seed, args.seconds, tmp)

    for name, (value, unit) in outcome.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
