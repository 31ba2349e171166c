"""The README's examples run against the package: the library example
against the public API, the scenario example through the parser."""
import ast
import re
from pathlib import Path

import numpy as np

import relay_outage
from relay_outage.scenario import _HOP_KEYS, _SECTIONS, parse_scenario_text

README = Path(__file__).resolve().parents[1] / "README.md"


def _example(heading: str, language: str) -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n{heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_example_runs():
    code = _example("## Library", "python")
    imported = {
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "relay_outage"
        for alias in node.names
    }
    assert imported, "the example imports nothing from relay_outage"
    assert imported <= set(relay_outage.__all__)
    assert all(hasattr(relay_outage, name) for name in relay_outage.__all__)
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    rates = namespace["rates"]
    assert len(namespace["moments"]) == namespace["net"].n_hops
    for curve in (namespace["analytical"], namespace["montecarlo"]):
        assert curve.shape == rates.shape
        assert np.all(np.diff(curve) >= 0.0)


def test_readme_scenario_example_sets_every_key():
    example = _example("### Scenario files", "ini")
    parse_scenario_text(example, name="readme", source=str(README))
    shown, section = set(), None
    for line in example.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line[1:-1].split(".", 1)[0]  # [hop.K] sets hop keys
        elif line:
            shown.add((section, line.split("=", 1)[0].strip()))
    accepted = {(section, key) for section, keys in _SECTIONS.items() for key in keys}
    accepted |= {("hop", key) for key in _HOP_KEYS}
    assert accepted - shown == set()
