"""Scenario files: sectioned key-value run descriptions plus shipped presets.

A scenario fixes the network (mode and per-hop antenna/power parameters),
the rate grid, sampling sizes, and the output directory.  Grammar::

    [section]
    key = value          # '#' starts a comment, blank lines ignored

Sections: ``[network]``, ``[hop]`` (defaults for every hop except the
last), ``[hop.K]`` (1-based per-hop overrides), ``[rates]``,
``[sampling]``, ``[output]``, ``[distribution]``.  Each key is declared
once, with its value parser and default, in ``_SECTIONS`` or (for the hop
sections) ``_HOP_KEYS``; the accepted key sets come from those tables.
Unknown sections or keys are errors, as is any malformed value;
diagnostics carry the source name and the line of the offending key.
Rules on the chain as a whole, the interferer size among them, belong to
:class:`~relay_outage.outage.NetworkConfig` and are reported at the
``[network]`` line.  Sample-count minimums are not scenario rules: the
sampling functions enforce them when a run starts.

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

DEFAULT_SEED = 12345
# Largest rate grid accepted; the presets use 57 points, the finest benchmark grid 281.
MAX_RATE_POINTS = 100_000


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


_REQUIRED = object()  # the default of a key that must be given


def _integer(minimum: int):
    def parse(text: str, field: str) -> int:
        try:
            out = int(text)
        except ValueError:
            raise ValueError(f"{field}: expected an integer, got {text!r}") from None
        if out < minimum:
            raise ValueError(f"{field}: must be >= {minimum}, got {out}")
        return out

    return parse


# The one seed rule, shared by [sampling] seed and every --seed flag.
parse_seed = _integer(0)


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


# Every section but the hop ones: key -> (field, value parser, default).
# The [network] fields build the NetworkConfig; the rest are Scenario fields.
_SECTIONS = {
    "network": {
        "mode": ("mode", lambda text, field: DuplexMode.parse(text), _REQUIRED),
        "hops": ("n_hops", _integer(1), _REQUIRED),
    },
    "rates": {
        "start": ("rate_start", _number(), 0.0),
        "stop": ("rate_stop", _number(), 14.0),
        "step": ("rate_step", _number(positive=True), 0.25),
    },
    "sampling": {
        "moment_samples": ("n_moment_samples", _integer(1), 10_000),
        "mc_realizations": ("n_mc_realizations", _integer(1), 10_000),
        "seed": ("seed", parse_seed, DEFAULT_SEED),
    },
    "output": {"directory": ("output_dir", lambda text, field: text, "results")},
    "distribution": {
        "hop": ("dist_hop", _integer(1), None),
        "bin_width": ("dist_bin_width", _number(positive=True), 0.1),
        "samples": ("dist_samples", _integer(1), None),
    },
}
# [hop] and [hop.K]: HopConfig field -> (value parser, default).
_HOP_KEYS = {
    "tx_antennas": (_integer(1), _REQUIRED),
    "rx_antennas": (_integer(1), _REQUIRED),
    "snr_db": (_number(), _REQUIRED),
    "rsi_snr_db": (_or_none(_number()), None),
    "rsi_tx_antennas": (_or_none(_integer(1)), None),
}
_RSI_KEYS = frozenset(key for key in _HOP_KEYS if key.startswith("rsi_"))
_ALLOWED_KEYS = {**_SECTIONS, "hop": _HOP_KEYS}


def _parse(
    entries: dict[str, _Entry], section: str, key: str, parser, default,
    source: str, section_line: int | None,
):
    """The parsed value of ``key``, or its default; errors carry the key's line."""
    if key not in entries:
        if default is _REQUIRED:
            raise ScenarioError(
                f"missing required key '{key}' in [{section}]", source, section_line
            )
        return default
    text, line = entries[key]
    try:
        return parser(text, f"{section}.{key}")
    except ValueError as exc:
        raise ScenarioError(str(exc), source, line) from None


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
        elif name in _ALLOWED_KEYS:
            allowed = _ALLOWED_KEYS[name]
        else:
            raise ScenarioError(f"unknown section [{name}]", source, section_lines[name])
        for key, (_, lineno) in entries.items():
            if key not in allowed:
                raise ScenarioError(f"unknown key '{key}' in [{name}]", source, lineno)


def _build_hops(
    sections: dict[str, dict[str, _Entry]],
    section_lines: dict[str, int],
    n_hops: int,
    source: str,
) -> tuple[HopConfig, ...]:
    hops = []
    for k in range(1, n_hops + 1):
        section = f"hop.{k}"
        merged = dict(sections.get("hop", {}))
        if k == n_hops:
            # Terminal receiver: interference defaults do not apply.
            for key in _RSI_KEYS:
                merged.pop(key, None)
        merged.update(sections.get(section, {}))
        line = section_lines.get(section, section_lines.get("hop"))
        fields = {
            key: _parse(merged, section, key, parser, default, source, line)
            for key, (parser, default) in _HOP_KEYS.items()
        }
        hops.append(HopConfig(**fields))
    return tuple(hops)


def parse_scenario_text(text: str, name: str, source: str = "<scenario>") -> Scenario:
    """Parse scenario content; every defect raises :class:`ScenarioError`."""
    sections, section_lines = _read_sections(text, source)
    if "network" not in sections:
        raise ScenarioError("missing required section [network]", source)
    values = {
        field: _parse(
            sections.get(section, {}), section, key, parser, default, source,
            section_lines.get(section),
        )
        for section, keys in _SECTIONS.items()
        for key, (field, parser, default) in keys.items()
    }
    n_hops = values.pop("n_hops")
    _check_known(sections, section_lines, n_hops, source)
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
    if _rate_points(start, stop, step) > MAX_RATE_POINTS:
        raise ScenarioError(
            f"rates: the grid from {start} to {stop} in steps of {step} has more "
            f"than {MAX_RATE_POINTS} points",
            source,
            rates_line,
        )
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
