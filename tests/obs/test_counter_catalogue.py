"""docs/observability.md's counter catalogue matches the code.

For the flow, graph, expansion, merge and certificate layers, every
catalogue row names a counter some ``obs.count("...")`` literal in
``src/`` emits, and every such literal has a row — so removing a code
path cannot leave its counters documented, and a new counter cannot
ship undocumented.
"""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]

PREFIXES = ("flow.", "graph.", "expansion.", "merge.", "certificate.")


def _names_in(node: ast.expr) -> set[str]:
    """String literals a counter-name argument can evaluate to."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, ast.IfExp):
        return _names_in(node.body) | _names_in(node.orelse)
    return set()


def _emitted() -> set[str]:
    names: set[str] = set()
    for path in (REPO / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "count"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "obs"
                and node.args
            ):
                names |= _names_in(node.args[0])
    return {name for name in names if name.startswith(PREFIXES)}


def _catalogued() -> set[str]:
    text = (REPO / "docs" / "observability.md").read_text(encoding="utf-8")
    section = text.split("## Counter catalogue", 1)[1].split("\n## ", 1)[0]
    names: set[str] = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            names.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
    return {name for name in names if name.startswith(PREFIXES)}


def test_every_catalogued_counter_is_emitted():
    stale = _catalogued() - _emitted()
    assert not stale, f"catalogue rows no code emits: {sorted(stale)}"


def test_every_emitted_counter_is_catalogued():
    emitted = _emitted()
    assert len(emitted) >= 20  # the scan found the instrumented layers
    missing = emitted - _catalogued()
    assert not missing, f"counters without a catalogue row: {sorted(missing)}"
