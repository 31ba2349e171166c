"""Scenario files: sectioned key-value run descriptions plus shipped presets.

A scenario fixes the network (mode and per-hop antenna/power parameters),
the rate grid, sampling sizes, and the output directory.  Grammar::

    [section]
    key = value          # '#' starts a comment, blank lines ignored

Sections: ``[network]``, ``[hop]`` (defaults for every hop except the
last), ``[hop.K]`` (1-based per-hop overrides), ``[rates]``,
``[sampling]``, ``[output]``, ``[distribution]``.  Unknown sections or
keys are errors, as is any malformed value; diagnostics carry the source
name and line number.

The last hop is interference-free by default (the terminal node only
receives); give it a ``[hop.K]`` override to model interference there.
dB values are converted to linear ratios exactly once, here at parse
time.
"""
from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .mutual_info import HopConfig
from .outage import DuplexMode, NetworkConfig

DEFAULT_RATE_START = 0.0
DEFAULT_RATE_STOP = 14.0
DEFAULT_RATE_STEP = 0.25
DEFAULT_MOMENT_SAMPLES = 10_000
DEFAULT_MC_REALIZATIONS = 10_000
DEFAULT_SEED = 12345
DEFAULT_OUTPUT_DIR = "results"
DEFAULT_BIN_WIDTH = 0.1
# Largest rate grid accepted; the presets use 57 points, the finest benchmark grid 281.
MAX_RATE_POINTS = 100_000

_HOP_KEYS = frozenset(
    {"tx_antennas", "rx_antennas", "snr_db", "rsi_snr_db", "rsi_tx_antennas"}
)
_SECTION_KEYS: dict[str, frozenset[str]] = {
    "network": frozenset({"mode", "hops"}),
    "hop": _HOP_KEYS,
    "rates": frozenset({"start", "stop", "step"}),
    "sampling": frozenset({"moment_samples", "mc_realizations", "seed"}),
    "output": frozenset({"directory"}),
    "distribution": frozenset({"hop", "bin_width", "samples"}),
}
_RSI_KEYS = frozenset({"rsi_snr_db", "rsi_tx_antennas"})


class ScenarioError(ValueError):
    """Malformed scenario content, with source and line when available."""

    def __init__(self, message: str, source: str = "<scenario>", line: int | None = None):
        location = source if line is None else f"{source}:{line}"
        super().__init__(f"{location}: {message}")
        self.source = source
        self.line = line


@dataclass(frozen=True)
class Scenario:
    """One fully resolved run description."""

    name: str
    network: NetworkConfig
    rate_start: float
    rate_stop: float
    rate_step: float
    n_moment_samples: int
    n_mc_realizations: int
    seed: int
    output_dir: str
    dist_hop: int | None
    dist_bin_width: float
    dist_samples: int | None

    @property
    def rates(self) -> np.ndarray:
        n = int(_rate_points(self.rate_start, self.rate_stop, self.rate_step))
        return self.rate_start + self.rate_step * np.arange(n)


def _rate_points(start: float, stop: float, step: float) -> float:
    """Points of the grid ``start, start + step, ...`` up to ``stop``.

    A float, so that a grid too large for any integer type reads inf.
    """
    return np.floor((stop - start) / step + 1e-9) + 1.0


_Entry = tuple[str, int]  # raw value, line number


def _read_sections(
    text: str, source: str
) -> tuple[dict[str, dict[str, _Entry]], dict[str, int]]:
    sections: dict[str, dict[str, _Entry]] = {}
    section_lines: dict[str, int] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise ScenarioError(f"malformed section header {raw.strip()!r}", source, lineno)
            name = line[1:-1].strip()
            if name in sections:
                raise ScenarioError(f"duplicate section [{name}]", source, lineno)
            sections[name] = {}
            section_lines[name] = lineno
            current = name
            continue
        if "=" not in line:
            raise ScenarioError(f"expected 'key = value', got {raw.strip()!r}", source, lineno)
        if current is None:
            raise ScenarioError("key outside of any [section]", source, lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ScenarioError("empty key", source, lineno)
        if not value:
            raise ScenarioError(f"empty value for key '{key}'", source, lineno)
        if key in sections[current]:
            raise ScenarioError(f"duplicate key '{key}' in [{current}]", source, lineno)
        sections[current][key] = (value, lineno)
    return sections, section_lines


def _check_known(
    sections: dict[str, dict[str, _Entry]],
    section_lines: dict[str, int],
    n_hops: int,
    source: str,
) -> None:
    for name, entries in sections.items():
        if name.startswith("hop."):
            suffix = name[4:]
            if not suffix.isdigit() or int(suffix) < 1:
                raise ScenarioError(
                    f"bad hop section [{name}]: index must be a positive integer",
                    source,
                    section_lines[name],
                )
            if int(suffix) > n_hops:
                raise ScenarioError(
                    f"hop index {suffix} out of range ({n_hops} hops)",
                    source,
                    section_lines[name],
                )
            allowed = _HOP_KEYS
        elif name in _SECTION_KEYS:
            allowed = _SECTION_KEYS[name]
        else:
            raise ScenarioError(f"unknown section [{name}]", source, section_lines[name])
        for key, (_, lineno) in entries.items():
            if key not in allowed:
                raise ScenarioError(f"unknown key '{key}' in [{name}]", source, lineno)


def _parse_int(entry: _Entry, field: str, source: str, minimum: int | None = None) -> int:
    value, lineno = entry
    try:
        out = int(value)
    except ValueError:
        raise ScenarioError(f"{field}: expected an integer, got {value!r}", source, lineno)
    if minimum is not None and out < minimum:
        raise ScenarioError(f"{field}: must be >= {minimum}, got {out}", source, lineno)
    return out


def _parse_float(entry: _Entry, field: str, source: str) -> float:
    value, lineno = entry
    try:
        out = float(value)
    except ValueError:
        raise ScenarioError(f"{field}: expected a number, got {value!r}", source, lineno)
    if not np.isfinite(out):
        raise ScenarioError(f"{field}: must be finite, got {value!r}", source, lineno)
    return out


def _require(
    entries: dict[str, _Entry], key: str, section: str, source: str,
    section_line: int | None,
) -> _Entry:
    if key not in entries:
        raise ScenarioError(f"missing required key '{key}' in [{section}]", source, section_line)
    return entries[key]


def _build_hops(
    sections: dict[str, dict[str, _Entry]],
    section_lines: dict[str, int],
    n_hops: int,
    mode: DuplexMode,
    source: str,
) -> tuple[HopConfig, ...]:
    defaults = sections.get("hop", {})
    merged_per_hop: list[dict[str, _Entry]] = []
    for k in range(1, n_hops + 1):
        merged = dict(defaults)
        if k == n_hops:
            # Terminal receiver: interference defaults do not apply.
            for key in _RSI_KEYS:
                merged.pop(key, None)
        merged.update(sections.get(f"hop.{k}", {}))
        merged_per_hop.append(merged)

    raw_hops = []
    for k, merged in enumerate(merged_per_hop, start=1):
        section = f"hop.{k}"
        line = section_lines.get(section, section_lines.get("hop"))
        tx = _parse_int(_require(merged, "tx_antennas", section, source, line),
                        f"{section}.tx_antennas", source, minimum=1)
        rx = _parse_int(_require(merged, "rx_antennas", section, source, line),
                        f"{section}.rx_antennas", source, minimum=1)
        snr = _parse_float(_require(merged, "snr_db", section, source, line),
                           f"{section}.snr_db", source)
        rsi_entry = merged.get("rsi_snr_db")
        rsi: float | None = None
        if rsi_entry is not None and rsi_entry[0].lower() != "none":
            rsi = _parse_float(rsi_entry, f"{section}.rsi_snr_db", source)
            if mode is DuplexMode.HALF_DUPLEX:
                raise ScenarioError(
                    f"{section}.rsi_snr_db: self-interference is not modeled "
                    "in half-duplex mode",
                    source,
                    rsi_entry[1],
                )
        rsi_tx_entry = merged.get("rsi_tx_antennas")
        rsi_tx: int | None = None
        if rsi_tx_entry is not None and rsi_tx_entry[0].lower() != "none":
            rsi_tx = _parse_int(rsi_tx_entry, f"{section}.rsi_tx_antennas", source, minimum=1)
        raw_hops.append((tx, rx, snr, rsi, rsi_tx))

    hops = []
    for k, (tx, rx, snr, rsi, rsi_tx) in enumerate(raw_hops):
        if rsi is not None and rsi_tx is None:
            # Interferer is the next stage's transmitter.
            rsi_tx = raw_hops[k + 1][0] if k + 1 < n_hops else tx
        hops.append(
            HopConfig(
                tx_antennas=tx,
                rx_antennas=rx,
                snr_db=snr,
                rsi_snr_db=rsi,
                rsi_tx_antennas=rsi_tx if rsi is not None else None,
            )
        )
    return tuple(hops)


def parse_scenario_text(text: str, name: str, source: str = "<scenario>") -> Scenario:
    """Parse scenario content; every defect raises :class:`ScenarioError`."""
    sections, section_lines = _read_sections(text, source)

    if "network" not in sections:
        raise ScenarioError("missing required section [network]", source)
    network = sections["network"]
    net_line = section_lines["network"]
    mode_entry = _require(network, "mode", "network", source, net_line)
    try:
        mode = DuplexMode.parse(mode_entry[0])
    except ValueError as exc:
        raise ScenarioError(str(exc), source, mode_entry[1])
    n_hops = _parse_int(_require(network, "hops", "network", source, net_line),
                        "network.hops", source, minimum=1)

    _check_known(sections, section_lines, n_hops, source)

    hops = _build_hops(sections, section_lines, n_hops, mode, source)
    try:
        net = NetworkConfig(hops=hops, mode=mode)
    except ValueError as exc:
        raise ScenarioError(str(exc), source)

    rates = sections.get("rates", {})
    rates_line = section_lines.get("rates")
    start = _parse_float(rates["start"], "rates.start", source) if "start" in rates else DEFAULT_RATE_START
    stop = _parse_float(rates["stop"], "rates.stop", source) if "stop" in rates else DEFAULT_RATE_STOP
    step = _parse_float(rates["step"], "rates.step", source) if "step" in rates else DEFAULT_RATE_STEP
    if step <= 0.0:
        raise ScenarioError(f"rates.step: must be positive, got {step}", source, rates_line)
    if stop < start:
        raise ScenarioError(
            f"rates: stop ({stop}) must not be below start ({start})", source, rates_line
        )
    if _rate_points(start, stop, step) > MAX_RATE_POINTS:
        raise ScenarioError(
            f"rates: the grid from {start} to {stop} in steps of {step} has more "
            f"than {MAX_RATE_POINTS} points",
            source,
            rates_line,
        )

    sampling = sections.get("sampling", {})
    n_moment = (
        _parse_int(sampling["moment_samples"], "sampling.moment_samples", source, minimum=1)
        if "moment_samples" in sampling
        else DEFAULT_MOMENT_SAMPLES
    )
    n_mc = (
        _parse_int(sampling["mc_realizations"], "sampling.mc_realizations", source, minimum=1)
        if "mc_realizations" in sampling
        else DEFAULT_MC_REALIZATIONS
    )
    seed = (
        _parse_int(sampling["seed"], "sampling.seed", source, minimum=0)
        if "seed" in sampling
        else DEFAULT_SEED
    )

    output = sections.get("output", {})
    out_dir = output["directory"][0] if "directory" in output else DEFAULT_OUTPUT_DIR

    dist = sections.get("distribution", {})
    dist_hop: int | None = None
    if "hop" in dist:
        dist_hop = _parse_int(dist["hop"], "distribution.hop", source, minimum=1)
        if dist_hop > n_hops:
            raise ScenarioError(
                f"distribution.hop: index {dist_hop} out of range ({n_hops} hops)",
                source,
                dist["hop"][1],
            )
    bin_width = (
        _parse_float(dist["bin_width"], "distribution.bin_width", source)
        if "bin_width" in dist
        else DEFAULT_BIN_WIDTH
    )
    if bin_width <= 0.0:
        line = dist["bin_width"][1] if "bin_width" in dist else None
        raise ScenarioError(f"distribution.bin_width: must be positive, got {bin_width}", source, line)
    dist_samples = (
        _parse_int(dist["samples"], "distribution.samples", source, minimum=1)
        if "samples" in dist
        else None
    )

    return Scenario(
        name=name,
        network=net,
        rate_start=start,
        rate_stop=stop,
        rate_step=step,
        n_moment_samples=n_moment,
        n_mc_realizations=n_mc,
        seed=seed,
        output_dir=out_dir,
        dist_hop=dist_hop,
        dist_bin_width=bin_width,
        dist_samples=dist_samples,
    )


def parse_scenario(path: str | Path) -> Scenario:
    """Read and parse a scenario file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}", str(path))
    return parse_scenario_text(text, name=path.stem, source=str(path))


def _preset_dir():
    return resources.files(__package__) / "presets"


def preset_names() -> list[str]:
    """Names of the scenario presets shipped with the package."""
    return sorted(
        entry.name.removesuffix(".scenario")
        for entry in _preset_dir().iterdir()
        if entry.name.endswith(".scenario")
    )


def load_preset(name: str) -> Scenario:
    """Load a shipped preset by name."""
    entry = _preset_dir() / f"{name}.scenario"
    if not entry.is_file():
        known = ", ".join(preset_names())
        raise ScenarioError(f"unknown preset '{name}' (available: {known})", f"preset:{name}")
    return parse_scenario_text(entry.read_text(encoding="utf-8"), name=name, source=f"preset:{name}")
