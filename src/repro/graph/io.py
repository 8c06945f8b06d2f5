"""Reading and writing graphs as edge lists.

Supports the whitespace-separated edge-list format used by SNAP and the
Network Repository (one ``u v`` pair per line, ``#`` or ``%`` comments).
Self-loops in input files are rejected by default because the k-VCC
machinery is defined on simple graphs; parallel edges collapse silently.

Malformed input raises :class:`repro.errors.GraphFormatError` carrying
the source name and 1-based line number, never a bare ``ValueError``
traceback — a file that is not UTF-8 text (a gzip archive, say)
included. The default policy is forgiving (string labels allowed,
extra columns ignored, bare labels declare isolated vertices);
``strict=True`` locks the format down to exactly two integer tokens
per data line for pipelines that must catch corrupted exports early.
"""

from __future__ import annotations

import os
from collections.abc import Iterable

from repro.errors import GraphError, GraphFormatError
from repro.graph.adjacency import Graph

__all__ = [
    "coerce_label",
    "not_utf8_error",
    "parse_edge_list",
    "read_edge_list",
    "write_edge_list",
]


def parse_edge_list(
    lines: Iterable[str],
    *,
    allow_self_loops: bool = False,
    strict: bool = False,
    source: str | None = None,
) -> Graph:
    """Build a graph from an iterable of edge-list lines.

    Lines that are blank or start with ``#`` / ``%`` are skipped; a line
    with a single token declares an isolated vertex. Vertex labels that
    look like integers are stored as ``int``; anything else stays a
    string (see :func:`coerce_label`). With ``allow_self_loops`` set,
    self-loop lines are silently dropped instead of raising (some
    public datasets contain them).

    ``strict`` rejects anything but two integer tokens per data line
    (truncated lines, trailing weight columns, non-integer labels).
    ``source`` names the input in error messages (set automatically by
    :func:`read_edge_list`). All rejections raise
    :class:`~repro.errors.GraphFormatError` with the offending line
    number.
    """
    graph = Graph()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith(("#", "%")):
            continue
        parts = line.split()
        if strict and len(parts) != 2:
            raise GraphFormatError(
                f"expected exactly 2 tokens, got {len(parts)}: {line!r}",
                source=source,
                lineno=lineno,
            )
        if len(parts) == 1:
            # A bare label declares an isolated vertex (lossless
            # round-tripping of graphs with degree-0 vertices).
            graph.add_vertex(_coerce(parts[0], strict, source, lineno))
            continue
        u = _coerce(parts[0], strict, source, lineno)
        v = _coerce(parts[1], strict, source, lineno)
        if u == v:
            if allow_self_loops:
                graph.add_vertex(u)
                continue
            raise GraphFormatError(
                f"self-loop on {u!r}", source=source, lineno=lineno
            )
        try:
            graph.add_edge(u, v)
        except GraphError as exc:  # pragma: no cover - defensive
            raise GraphFormatError(
                str(exc), source=source, lineno=lineno
            ) from exc
    return graph


def coerce_label(token: str) -> int | str:
    """An ASCII ``-?[0-9]+`` token as ``int``, anything else unchanged.

    Python's ``int()`` also accepts ``1_0``, ``+3`` and non-ASCII
    digits, which would merge distinct labels (``"1_0"`` and ``10``)
    into one vertex. Leading zeros still collapse (``007`` is 7).
    """
    if token.isdigit() and token.isascii():
        return int(token)
    if token[:1] == "-" and token[1:].isdigit() and token.isascii():
        return int(token)
    return token


def _coerce(token: str, strict: bool, source: str | None, lineno: int):
    """Interpret a vertex token via :func:`coerce_label`.

    In strict mode a non-integer token is a format error instead.
    """
    label = coerce_label(token)
    if strict and not isinstance(label, int):
        raise GraphFormatError(
            f"non-integer vertex token {token!r}",
            source=source,
            lineno=lineno,
        )
    return label


def read_edge_list(
    path: str | os.PathLike,
    *,
    allow_self_loops: bool = False,
    strict: bool = False,
) -> Graph:
    """Read a graph from an edge-list file.

    Parse failures and non-UTF-8 content raise
    :class:`~repro.errors.GraphFormatError` naming the file and line;
    unreadable files surface as ``OSError`` from the ``open`` call.
    """
    source = os.fspath(path)
    try:
        with open(path, encoding="utf-8") as handle:
            return parse_edge_list(
                handle,
                allow_self_loops=allow_self_loops,
                strict=strict,
                source=source,
            )
    except UnicodeDecodeError as exc:
        raise not_utf8_error(path, exc) from None


def not_utf8_error(
    path: str | os.PathLike, exc: UnicodeDecodeError, opener=open
) -> GraphFormatError:
    """The :class:`GraphFormatError` for a file that is not UTF-8 text.

    Text mode decodes in chunks, so ``exc`` cannot say which line held
    the bad byte; the file is re-read as bytes through ``opener`` to
    find the first undecodable line.
    """
    lineno = None
    with opener(path, "rb") as handle:
        for number, raw in enumerate(handle, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                lineno = number
                break
    bad = exc.object[exc.start]
    return GraphFormatError(
        f"not UTF-8 text (byte {bad:#04x}: {exc.reason})",
        source=os.fspath(path),
        lineno=lineno,
    )


def write_edge_list(graph: Graph, path: str | os.PathLike) -> None:
    """Write a graph as a sorted edge list (stable output for diffing)."""
    lines = sorted(
        f"{u} {v}" if _key(u) <= _key(v) else f"{v} {u}"
        for u, v in graph.edges()
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            f"# repro edge list: n={graph.num_vertices} m={graph.num_edges}\n"
        )
        for u in sorted(graph.vertices(), key=_key):
            if graph.degree(u) == 0:
                handle.write(f"{u}\n")
        handle.write("\n".join(lines))
        if lines:
            handle.write("\n")


def _key(value) -> tuple[int, str]:
    """Ordering key that works across mixed int/str vertex labels."""
    if isinstance(value, int):
        return (0, f"{value:020d}")
    return (1, str(value))
