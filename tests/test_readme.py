"""The README's library example runs against the package's public API."""
import ast
import re
from pathlib import Path

import numpy as np

import relay_outage

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_example_runs():
    code = _library_example()
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
    for curve in (namespace["analytical"], namespace["montecarlo"]):
        assert curve.shape == rates.shape
        assert np.all(np.diff(curve) >= 0.0)
