"""docs/observability.md's counter catalogue matches the code.

For every enumeration layer (flow, graph, certificate, seeding,
expansion, merge, pipeline, parallel, VCCE-TD, hierarchy), the
resilience layer and the serving tier, every catalogue row names a
counter some ``obs.count("...")`` literal in ``src/`` emits, and every
such literal has a row — so removing a code path cannot leave its
counters documented, and a new counter cannot ship undocumented. A
name with a ``<placeholder>`` (``serving.errors.<code>``) stands for
counters built at run time and is left out of the lock. Every counter
name is dotted (``layer.event``), so an unprefixed name cannot come
back.
"""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]

PREFIXES = (
    "flow.",
    "graph.",
    "certificate.",
    "seeding.",
    "expansion.",
    "merge.",
    "pipeline.",
    "parallel.",
    "vcce_td.",
    "hierarchy.",
    "resilience.",
    "serving.",
)


def _names_in(node: ast.expr) -> set[str]:
    """String literals a counter-name argument can evaluate to."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, ast.IfExp):
        return _names_in(node.body) | _names_in(node.orelse)
    return set()


def _literals() -> set[str]:
    """Every counter-name literal passed to ``obs.count`` in ``src/``."""
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
    return names


def _emitted() -> set[str]:
    return {name for name in _literals() if name.startswith(PREFIXES)}


def _catalogued() -> set[str]:
    text = (REPO / "docs" / "observability.md").read_text(encoding="utf-8")
    section = text.split("## Counter catalogue", 1)[1].split("\n## ", 1)[0]
    names: set[str] = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            names.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
    return {name for name in names if name.startswith(PREFIXES) and "<" not in name}


def test_every_catalogued_counter_is_emitted():
    stale = _catalogued() - _emitted()
    assert not stale, f"catalogue rows no code emits: {sorted(stale)}"


def test_every_emitted_counter_is_catalogued():
    emitted = _emitted()
    assert len(emitted) >= 60  # the scan found the instrumented layers
    missing = emitted - _catalogued()
    assert not missing, f"counters without a catalogue row: {sorted(missing)}"


def test_every_counter_name_is_dotted():
    literals = _literals()
    assert len(literals) >= 80  # the scan reached serving.* too
    bare = sorted(name for name in literals if "." not in name)
    assert not bare, f"counter names without a layer prefix: {bare}"
