"""Docs ↔ API drift gate: docs/api.md's Enumeration signatures are real.

Each row of the Enumeration table names one or more functions of the
top-level ``repro`` package and shows a parameter list. The names in
that list must be the function's parameters, in order. A row that
elides with ``…`` is compared up to its first ``…``: the names written
before it must open the function's parameter list.
"""

import inspect
import re
from pathlib import Path

import pytest

import repro

API = Path(__file__).resolve().parent.parent / "docs" / "api.md"


def _enumeration_rows() -> list[tuple[list[str], str]]:
    """``(function names, signature text)`` per Enumeration table row."""
    text = API.read_text(encoding="utf-8")
    section = text.split("\n## Enumeration\n", 1)[1].split("\n#", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = re.split(r"(?<!\\)\|", line)
        if len(cells) > 3 and cells[1].strip().startswith("`"):
            rows.append(
                (re.findall(r"`(\w+)`", cells[1]), cells[2].strip().strip("`"))
            )
    return rows


ROWS = _enumeration_rows()


def test_enumeration_table_found():
    assert ROWS, f"no Enumeration table rows found in {API}"


@pytest.mark.parametrize(
    "names, signature", ROWS, ids=[" / ".join(names) for names, _ in ROWS]
)
def test_row_matches_signature(names, signature):
    head, elided, _ = signature.split(" -> ")[0].partition("…")
    documented = re.findall(r"[(,]\s*(\w+)", head)
    for name in names:
        actual = list(inspect.signature(getattr(repro, name)).parameters)
        shown = actual[: len(documented)] if elided else actual
        assert documented == shown, (
            f"docs/api.md shows {name}{signature}, but its parameters "
            f"are ({', '.join(actual)})"
        )
