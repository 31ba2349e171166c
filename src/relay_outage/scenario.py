"""Scenario files: sectioned key-value run descriptions plus shipped presets.

A scenario fixes the network (mode and per-hop antenna/power parameters),
the rate grid, sampling sizes, and the output directory.  Grammar::

    [section]
    key = value          # '#' starts a comment, blank lines ignored

Sections: ``[network]``, ``[hop]`` (defaults for every hop except the
last), ``[hop.K]`` (per-hop overrides; ``K`` is 1-based, written as a
plain positive integer), ``[rates]``, ``[sampling]``, ``[output]``,
``[distribution]``.  Each key is declared once, with its value parser and
default, in ``_SECTIONS`` or (for the hop sections) ``_HOP_KEYS``.

One pass checks each line with its section's table and parses its value
there, even a value that applies to no hop, so the first bad line in file
order is reported, with the source name and the line.  The rules on the
whole file follow, in this order: missing ``[network]`` section or keys;
hop indices beyond the chain; each hop's missing keys and power range
(:class:`~relay_outage.mutual_info.HopConfig`), at the hop's section
line; the chain's, owned by :class:`~relay_outage.outage.NetworkConfig`
(which alone sets each interferer's size), at the ``[network]`` line; the
rate grid; the distribution hop.  Sample counts
are capped at ``MAX_DRAWS`` here; the sampling functions enforce their
minimums when a run starts.

The last hop is interference-free by default (the terminal node only
receives); give it a ``[hop.K]`` override to model interference there.
"""
from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .mutual_info import HopConfig
from .outage import DuplexMode, NetworkConfig, check_rate_grid

DEFAULT_SEED = 12345
# Most rows a result CSV may have: the points of a rate grid (the presets
# use 57, the finest benchmark grid 281) or a distribution's histogram bins
# (the presets' 0.1-bit bins make 92 to 143).  It also caps [network] hops:
# each hop writes two '#' header lines of an outage CSV.
MAX_CSV_ROWS = 100_000
# Largest draw count accepted, from a scenario key or a --samples or
# --realizations flag; the largest benchmark run draws 10^6.
MAX_DRAWS = 100_000_000


class ScenarioError(ValueError):
    """Malformed scenario content, with source and line when available."""

    def __init__(self, message: str, source: str = "<scenario>", line: int | None = None):
        location = source if line is None else f"{source}:{line}"
        super().__init__(f"{location}: {message}")


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


_REQUIRED = object()  # the default of a key that must be given


def _integer(minimum: int, maximum: int | None = None):
    def parse(text: str, field: str) -> int:
        try:
            out = int(text)
        except ValueError:
            raise ValueError(f"{field}: expected an integer, got {text!r}") from None
        if out < minimum:
            raise ValueError(f"{field}: must be >= {minimum}, got {out}")
        if maximum is not None and out > maximum:
            raise ValueError(f"{field}: must be <= {maximum}, got {out}")
        return out

    return parse


# The one seed rule, shared by [sampling] seed and every --seed flag.
parse_seed = _integer(0)
# The one draw-count rule, shared by the sample-count keys and every
# --samples and --realizations flag.  The sampling functions own the
# minimums of a run (``mutual_info.MIN_MOMENT_SAMPLES`` samples,
# ``outage.MIN_MC_REALIZATIONS`` realizations).
parse_draws = _integer(1, MAX_DRAWS)


def _number(positive: bool = False):
    def parse(text: str, field: str) -> float:
        try:
            out = float(text)
        except ValueError:
            raise ValueError(f"{field}: expected a number, got {text!r}") from None
        if not np.isfinite(out):
            raise ValueError(f"{field}: must be finite, got {text!r}")
        if positive and out <= 0.0:
            raise ValueError(f"{field}: must be positive, got {out}")
        return out

    return parse


def _or_none(parse):
    """``parse``, except that ``none`` (any case) reads ``None``."""
    return lambda text, field: None if text.lower() == "none" else parse(text, field)


# Every section but the hop ones: key -> (value parser, default, field).
# The [network] fields build the NetworkConfig; the rest are Scenario fields.
_SECTIONS = {
    "network": {
        "mode": (lambda text, field: DuplexMode(text), _REQUIRED, "mode"),
        "hops": (_integer(1, MAX_CSV_ROWS), _REQUIRED, "n_hops"),
    },
    "rates": {
        "start": (_number(), 0.0, "rate_start"),
        "stop": (_number(), 14.0, "rate_stop"),
        "step": (_number(positive=True), 0.25, "rate_step"),
    },
    "sampling": {
        "moment_samples": (parse_draws, 10_000, "n_moment_samples"),
        "mc_realizations": (parse_draws, 10_000, "n_mc_realizations"),
        "seed": (parse_seed, DEFAULT_SEED, "seed"),
    },
    "output": {"directory": (lambda text, field: text, "results", "output_dir")},
    "distribution": {
        "hop": (_integer(1), None, "dist_hop"),
        "bin_width": (_number(positive=True), 0.1, "dist_bin_width"),
        "samples": (parse_draws, None, "dist_samples"),
    },
}
# [hop] and [hop.K]: HopConfig field -> (value parser, default).
_HOP_KEYS = {
    "tx_antennas": (_integer(1), _REQUIRED),
    "rx_antennas": (_integer(1), _REQUIRED),
    "snr_db": (_number(), _REQUIRED),
    "rsi_snr_db": (_or_none(_number()), None),
}
_TABLES = {**_SECTIONS, "hop": _HOP_KEYS}  # [hop.K] sections use the "hop" table
_Entry = tuple[object, int]  # parsed value, line number


def _key_table(name: str) -> dict[str, tuple]:
    """The key table of section ``name``; each entry's first item is the key's parser."""
    if name.startswith("hop."):
        index = name[4:]
        if not (index.isascii() and index.isdigit() and index[0] != "0"):
            raise ValueError(f"bad hop section [{name}]: index must be a positive integer")
        name = "hop"
    if name not in _TABLES:
        raise ValueError(f"unknown section [{name}]")
    return _TABLES[name]


def _read_sections(
    text: str, source: str
) -> tuple[dict[str, dict[str, _Entry]], dict[str, int]]:
    """Each section's parsed values and header line, from one pass that
    checks every section name, key and value at its own line."""
    sections: dict[str, dict[str, _Entry]] = {}
    section_lines: dict[str, int] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("["):
                if not line.endswith("]") or len(line) < 3:
                    raise ValueError(f"malformed section header {raw.strip()!r}")
                current = line[1:-1].strip()
                if current in sections:
                    raise ValueError(f"duplicate section [{current}]")
                table = _key_table(current)
                sections[current] = {}
                section_lines[current] = lineno
                continue
            if "=" not in line:
                raise ValueError(f"expected 'key = value', got {raw.strip()!r}")
            if current is None:
                raise ValueError("key outside of any [section]")
            key, value = (part.strip() for part in line.split("=", 1))
            if not key:
                raise ValueError("empty key")
            if not value:
                raise ValueError(f"empty value for key '{key}'")
            if key not in table:
                raise ValueError(f"unknown key '{key}' in [{current}]")
            if key in sections[current]:
                raise ValueError(f"duplicate key '{key}' in [{current}]")
            sections[current][key] = (table[key][0](value, f"{current}.{key}"), lineno)
        except ValueError as exc:
            raise ScenarioError(str(exc), source, lineno) from None
    return sections, section_lines


def _value(
    entries: dict[str, _Entry], section: str, key: str, default, source: str,
    section_line: int | None,
):
    """The parsed value of ``key``, or its default; a missing required key is an error."""
    if key in entries:
        return entries[key][0]
    if default is _REQUIRED:
        raise ScenarioError(f"missing required key '{key}' in [{section}]", source, section_line)
    return default


def _build_hops(
    sections: dict[str, dict[str, _Entry]],
    section_lines: dict[str, int],
    n_hops: int,
    source: str,
) -> tuple[HopConfig, ...]:
    for name, line in section_lines.items():
        if name.startswith("hop.") and int(name[4:]) > n_hops:
            raise ScenarioError(f"hop index {name[4:]} out of range ({n_hops} hops)", source, line)
    # A hop's fields come from its own section, if it has one, over the
    # [hop] defaults, less the interference default on the terminal hop; so
    # each (section, terminal) pair is built once, at its first hop, which
    # is where a bad field set fails.
    built: dict[tuple[str, bool], HopConfig] = {}
    hops = []
    for k in range(1, n_hops + 1):
        section = f"hop.{k}"
        terminal = k == n_hops
        origin = (section if section in sections else "hop", terminal)
        if origin not in built:
            merged = dict(sections.get("hop", {}))
            if terminal:
                # Terminal receiver: the interference default does not apply.
                merged.pop("rsi_snr_db", None)
            merged.update(sections.get(section, {}))
            line = section_lines.get(section, section_lines.get("hop"))
            fields = {
                key: _value(merged, section, key, default, source, line)
                for key, (_, default) in _HOP_KEYS.items()
            }
            try:
                built[origin] = HopConfig(**fields)
            except ValueError as exc:
                raise ScenarioError(f"hop {k}: {exc}", source, line) from None
        hops.append(built[origin])
    return tuple(hops)


def parse_scenario_text(text: str, name: str, source: str = "<scenario>") -> Scenario:
    """Parse scenario content; every defect raises :class:`ScenarioError`."""
    sections, section_lines = _read_sections(text, source)
    if "network" not in sections:
        raise ScenarioError("missing required section [network]", source)
    values = {
        field: _value(
            sections.get(section, {}), section, key, default, source,
            section_lines.get(section),
        )
        for section, keys in _SECTIONS.items()
        for key, (_, default, field) in keys.items()
    }
    n_hops = values.pop("n_hops")
    hops = _build_hops(sections, section_lines, n_hops, source)
    try:
        network = NetworkConfig(hops=hops, mode=values.pop("mode"))
    except ValueError as exc:
        raise ScenarioError(str(exc), source, section_lines["network"]) from None
    scenario = Scenario(name=name, network=network, **values)

    start, stop, step = scenario.rate_start, scenario.rate_stop, scenario.rate_step
    rates_line = section_lines.get("rates")
    if stop < start:
        raise ScenarioError(
            f"rates: stop ({stop}) must not be below start ({start})", source, rates_line
        )
    if _rate_points(start, stop, step) > MAX_CSV_ROWS:
        raise ScenarioError(
            f"rates: the grid from {start} to {stop} in steps of {step} has more "
            f"than {MAX_CSV_ROWS} points",
            source,
            rates_line,
        )
    try:
        check_rate_grid(scenario.rates)
    except ValueError as exc:  # a grid whose points collapse in floating point
        raise ScenarioError(f"rates: {exc}", source, rates_line) from None
    if scenario.dist_hop is not None and scenario.dist_hop > n_hops:
        raise ScenarioError(
            f"distribution.hop: index {scenario.dist_hop} out of range ({n_hops} hops)",
            source,
            sections["distribution"]["hop"][1],
        )
    return scenario


def parse_scenario(path: str | Path) -> Scenario:
    """Read and parse a scenario file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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
