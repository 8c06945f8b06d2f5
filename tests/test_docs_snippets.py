"""Execute every ```python fence in docs/*.md so the docs stay honest.

Each page's fences run in order in one shared namespace (later fences
may use names earlier ones defined), seeded with the small standing
context the prose assumes: a two-community graph bound to both ``g``
and ``graph``, ``k = 3``, and ``ripple`` imported. The working
directory is a tmpdir holding the ``my_graph.txt`` the tutorial loads.

A fence that genuinely cannot run (requires hardware, network, hours)
can be opted out by putting ``<!-- snippet: skip -->`` on the line
before it; no current fence needs this.

Every page runs at least one fence except those in ``NO_FENCES``, so a
page that loses its last fence fails instead of passing unchecked.
"""

import re
from pathlib import Path

import pytest

DOCS = Path(__file__).resolve().parent.parent / "docs"
PAGES = sorted(DOCS.glob("*.md"))

PREAMBLE = """\
from repro import ripple
from repro.graph import community_graph

g = community_graph([10, 10], k=3, seed=1)
graph = g
k = 3
"""

#: The tutorial reads this SNAP-style file; an 8-clique keeps every
#: follow-on snippet (k=5 enumeration, disjoint 0->7 paths) meaningful.
MY_GRAPH = "\n".join(
    f"{u} {v}" for u in range(8) for v in range(u + 1, 8)
)

#: Pages without a python fence by design: the API reference is tables
#: and the architecture page is prose. A listed page that gains a fence
#: fails until it is dropped from this set.
NO_FENCES = {"api.md", "architecture.md"}

_FENCE = re.compile(r"(<!-- snippet: skip -->\s*)?```python\n(.*?)```", re.S)


def _python_fences(page: Path) -> list[str]:
    return [
        match.group(2)
        for match in _FENCE.finditer(page.read_text(encoding="utf-8"))
        if not match.group(1)
    ]


def test_docs_directory_has_pages():
    assert PAGES, f"no markdown pages under {DOCS}"


@pytest.mark.parametrize("page", PAGES, ids=lambda page: page.name)
def test_python_fences_run(page, tmp_path, monkeypatch):
    fences = _python_fences(page)
    if page.name in NO_FENCES:
        assert not fences, f"{page.name} has python fences; drop it from NO_FENCES"
        return
    assert fences, f"{page.name} has no python fence; add one or list it in NO_FENCES"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "my_graph.txt").write_text(MY_GRAPH + "\n", encoding="utf-8")
    namespace: dict = {}
    exec(compile(PREAMBLE, "<docs-preamble>", "exec"), namespace)
    for position, source in enumerate(fences):
        location = f"{page.name} python fence #{position}"
        try:
            exec(compile(source, location, "exec"), namespace)
        except Exception as exc:  # pragma: no cover - message is the point
            pytest.fail(f"{location} raised {type(exc).__name__}: {exc}")
