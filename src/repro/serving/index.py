"""The persistent k-VCC index: the hierarchy, materialised and versioned.

k-VCCs nest (every (k+1)-VCC lies inside a k-VCC), so the full
:func:`repro.core.hierarchy.kvcc_hierarchy` decomposition is the
natural precomputable answer store for per-vertex connectivity queries
— the same observation behind Wen et al.'s top-down enumeration and
Chang's hierarchical decompositions. A :class:`KvccIndex` freezes one
decomposition into an O(1)-lookup structure:

* ``vertex → {k: component ids}`` membership, covering overlap
  vertices that belong to several k-VCCs of the same level;
* a **fingerprint** of the graph it was built from, so a stale index
  is detected instead of silently serving wrong answers;
* a **ceiling**: the largest indexed k. Every index is built to
  exhaustion, so above the ceiling there are provably no components
  and any k is answerable from the index alone.

Serialisation is a canonical, versioned JSON document
(``repro.kvcc-index/1``): key order, member order, and separators are
fixed, so ``save → load → save`` is byte-identical and index files
diff cleanly. The format is documented in ``docs/serving.md``.

Durability: the document embeds a sha256 ``checksum`` over its core
payload, :meth:`KvccIndex.save` is atomic (temp file + fsync +
``os.replace``, so a crash mid-save leaves the previous file intact),
and :meth:`KvccIndex.load` *quarantines* torn or corrupt files by
renaming them to ``<path>.corrupt`` and raising
:class:`~repro.errors.IndexCorruptionError` — a daemon restarting onto
bad state degrades to a rebuild from the graph instead of crash-looping
on the same unreadable file.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from collections.abc import Hashable

from repro import obs
from repro.core.hierarchy import kvcc_hierarchy
from repro.errors import IndexCorruptionError, ParameterError, ParseError
from repro.graph.adjacency import Graph
from repro.graph.adjacency import label_key as _label_key
from repro.resilience.faults import FaultInjected
from repro.serving import chaos

__all__ = ["INDEX_SCHEMA", "KvccIndex", "graph_fingerprint", "ordered_members"]

#: Schema identifier embedded in every index file; bumped on layout
#: changes so old files are rejected instead of misread.
INDEX_SCHEMA = "repro.kvcc-index/1"


def _check_label(vertex: Hashable) -> Hashable:
    """Index files are JSON; only int and str labels survive a round trip."""
    if isinstance(vertex, bool) or not isinstance(vertex, (int, str)):
        raise ParameterError(
            f"indexable graphs need int or str vertex labels, "
            f"got {vertex!r} ({type(vertex).__name__})"
        )
    return vertex


def ordered_members(component: frozenset) -> tuple:
    """A component's members in canonical label order — the order the
    index file stores and the wire protocol sends."""
    return tuple(sorted(component, key=_label_key))


def graph_fingerprint(graph: Graph) -> str:
    """A deterministic hex digest of the graph's exact structure.

    Hashes the canonical sorted edge list plus the sorted vertex list
    (so isolated vertices count too). Two graphs share a fingerprint
    iff they have identical vertex and edge sets — the staleness test
    behind :meth:`KvccIndex.is_stale`.
    """
    digest = hashlib.sha256()
    for vertex in sorted(graph.vertices(), key=_label_key):
        digest.update(json.dumps(_check_label(vertex)).encode("utf-8"))
        digest.update(b"\x00")
    digest.update(b"\x01")
    edges = sorted(
        (tuple(sorted(edge, key=_label_key)) for edge in graph.edges()),
        key=lambda edge: (_label_key(edge[0]), _label_key(edge[1])),
    )
    for u, v in edges:
        digest.update(json.dumps([u, v]).encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def _payload_checksum(core: dict) -> str:
    """sha256 hex digest of a core payload's canonical JSON bytes."""
    serialised = json.dumps(core, separators=(",", ":"), sort_keys=False)
    return hashlib.sha256(serialised.encode("utf-8")).hexdigest()


class KvccIndex:
    """An immutable, serialisable k-VCC hierarchy with O(1) membership.

    Build one with :meth:`build`, persist it with :meth:`save`, and
    reload it with :meth:`load`; answer queries with :meth:`containing`
    (all k-VCCs of a vertex at level k).
    """

    __slots__ = (
        "_fingerprint",
        "_levels",
        "_members",
        "_membership",
        "_num_edges",
        "_num_vertices",
        "_vertices",
    )

    def __init__(
        self,
        fingerprint: str,
        levels: dict[int, list[frozenset]],
        vertices: frozenset,
        *,
        num_vertices: int,
        num_edges: int,
    ) -> None:
        self._fingerprint = fingerprint
        self._levels = {
            k: tuple(levels[k]) for k in sorted(levels)
        }
        # Each component's members in canonical label order, sorted
        # once per index generation: the file and every answer reuse it.
        self._members = {
            k: tuple(ordered_members(component) for component in components)
            for k, components in self._levels.items()
        }
        self._vertices = vertices
        self._num_vertices = num_vertices
        self._num_edges = num_edges
        # vertex -> {k: (component positions, ascending)}: the O(1)
        # lookup table; overlap vertices get several positions per k.
        membership: dict[Hashable, dict[int, tuple[int, ...]]] = {}
        for k, components in self._levels.items():
            for position, component in enumerate(components):
                for vertex in component:
                    slots = membership.setdefault(vertex, {})
                    slots[k] = slots.get(k, ()) + (position,)
        self._membership = membership

    # -- construction --------------------------------------------------

    @classmethod
    def build(cls, graph: Graph) -> "KvccIndex":
        """Materialise the whole hierarchy of ``graph`` into an index."""
        for vertex in graph.vertices():
            _check_label(vertex)
        with obs.start_span("serving.index.build"):
            levels = kvcc_hierarchy(graph)
            index = cls(
                graph_fingerprint(graph),
                levels,
                frozenset(graph.vertices()),
                num_vertices=graph.num_vertices,
                num_edges=graph.num_edges,
            )
        obs.count("serving.index.builds")
        obs.count(
            "serving.index.components",
            sum(len(components) for components in levels.values()),
        )
        return index

    # -- basic facts ---------------------------------------------------

    @property
    def fingerprint(self) -> str:
        """The source graph's :func:`graph_fingerprint`."""
        return self._fingerprint

    @property
    def ceiling(self) -> int:
        """The largest k with indexed components (0 for empty graphs)."""
        return max(self._levels, default=0)

    @property
    def levels(self) -> dict[int, tuple[frozenset, ...]]:
        """Level → components, exactly as :func:`kvcc_hierarchy` orders them."""
        return dict(self._levels)

    @property
    def vertices(self) -> frozenset:
        """The indexed graph's full vertex set (isolated vertices included)."""
        return self._vertices

    @property
    def num_vertices(self) -> int:
        """``|V|`` of the indexed graph."""
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        """``|E|`` of the indexed graph."""
        return self._num_edges

    def __contains__(self, vertex: Hashable) -> bool:
        return vertex in self._vertices

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KvccIndex(n={self._num_vertices}, m={self._num_edges}, "
            f"ceiling={self.ceiling})"
        )

    # -- queries -------------------------------------------------------

    def containing(self, vertex: Hashable, k: int) -> tuple[frozenset, ...]:
        """All k-VCCs at level ``k`` containing ``vertex`` (maybe several:
        distinct k-VCCs overlap in up to k-1 vertices).

        Above the ceiling the answer is empty: the index holds every
        level. Raises :class:`ParameterError` for vertices outside the
        indexed graph and for k < 1.
        """
        return self.lookup(vertex, k)[0]

    def lookup(
        self, vertex: Hashable, k: int
    ) -> tuple[tuple[frozenset, ...], tuple[tuple, ...]]:
        """:meth:`containing` together with each component's members in
        canonical label order (:func:`ordered_members`), from one lookup.
        """
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        if vertex not in self._vertices:
            raise ParameterError(f"vertex {vertex!r} not in indexed graph")
        positions = self._membership.get(vertex, {}).get(k, ())
        components = self._levels.get(k, ())
        members = self._members.get(k, ())
        return (
            tuple(components[i] for i in positions),
            tuple(members[i] for i in positions),
        )

    def membership_levels(self) -> dict[Hashable, int]:
        """Per-vertex deepest level, like
        :func:`repro.core.hierarchy.membership_levels` but from the index."""
        depth = {u: 0 for u in self._vertices}
        for k in sorted(self._levels):
            for component in self._levels[k]:
                for u in component:
                    depth[u] = k
        return depth

    def is_stale(self, graph: Graph) -> bool:
        """Whether ``graph`` no longer matches the indexed fingerprint."""
        return graph_fingerprint(graph) != self._fingerprint

    # -- serialisation -------------------------------------------------

    def _core_payload(self) -> dict:
        """The checksummed part of the document, in canonical key order."""
        return {
            "schema": INDEX_SCHEMA,
            "fingerprint": self._fingerprint,
            # Constants: every index is built to exhaustion, so it is
            # never capped and always complete. The two keys stay so
            # that every saved index keeps loading and keeps its bytes.
            "max_k": None,
            "ceiling": self.ceiling,
            "complete": True,
            "num_vertices": self._num_vertices,
            "num_edges": self._num_edges,
            "vertices": sorted(self._vertices, key=_label_key),
            "levels": {
                str(k): [list(component) for component in members]
                for k, members in self._members.items()
            },
        }

    def to_json(self) -> str:
        """Canonical ``repro.kvcc-index/1`` document (stable bytes).

        ``checksum`` is the sha256 hex digest of the canonical JSON of
        everything *except* the checksum itself — a torn or bit-flipped
        file is detected at load time instead of served as answers.
        """
        core = self._core_payload()
        checksum = _payload_checksum(core)
        document = {"schema": core["schema"], "checksum": checksum}
        document.update(
            (key, value) for key, value in core.items() if key != "schema"
        )
        return json.dumps(document, separators=(",", ":"), sort_keys=False)

    @classmethod
    def from_json(cls, document: str) -> "KvccIndex":
        """Rebuild an index from :meth:`to_json` output.

        Raises :class:`repro.errors.ParseError` on malformed documents,
        unknown schemas, membership/count inconsistencies, and capped
        documents (``max_k`` other than null, or ``complete`` other
        than true), which lack the levels above their cap.
        """
        try:
            payload = json.loads(document)
            if payload.get("schema") != INDEX_SCHEMA:
                raise ValueError(
                    f"unknown schema {payload.get('schema')!r}, "
                    f"expected {INDEX_SCHEMA!r}"
                )
            if "checksum" in payload:
                core = {
                    key: payload[key]
                    for key in (
                        "schema",
                        "fingerprint",
                        "max_k",
                        "ceiling",
                        "complete",
                        "num_vertices",
                        "num_edges",
                        "vertices",
                        "levels",
                    )
                }
                expected = _payload_checksum(core)
                if payload["checksum"] != expected:
                    raise ValueError(
                        f"checksum mismatch: document says "
                        f"{payload['checksum']!r}, payload hashes to "
                        f"{expected!r}"
                    )
            if payload["max_k"] is not None or payload["complete"] is not True:
                raise ValueError(
                    f"capped index (max_k={payload['max_k']!r}, "
                    f"complete={payload['complete']!r}); rebuild it "
                    f"with `ripple index build`"
                )
            vertices = frozenset(
                _check_label(v) for v in payload["vertices"]
            )
            levels = {
                int(k): [frozenset(members) for members in components]
                for k, components in payload["levels"].items()
            }
            index = cls(
                str(payload["fingerprint"]),
                levels,
                vertices,
                num_vertices=int(payload["num_vertices"]),
                num_edges=int(payload["num_edges"]),
            )
            if index.ceiling != int(payload["ceiling"]):
                raise ValueError(
                    f"ceiling {payload['ceiling']} does not match "
                    f"levels (computed {index.ceiling})"
                )
            if len(vertices) != index.num_vertices:
                raise ValueError(
                    f"num_vertices {index.num_vertices} does not match "
                    f"vertex list ({len(vertices)})"
                )
            for k, components in index.levels.items():
                for component in components:
                    if not component <= vertices:
                        raise ValueError(
                            f"level {k} component mentions vertices "
                            f"outside the vertex list"
                        )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ParseError(
                f"not a valid {INDEX_SCHEMA} document: {exc}"
            ) from exc
        return index

    def save(self, path: str | os.PathLike) -> None:
        """Atomically write the canonical document to ``path``.

        The document lands in a same-directory temp file, is fsynced,
        and is moved into place with ``os.replace`` — so a crash (even
        SIGKILL) at any instant leaves either the complete old file or
        the complete new one, never a torn mixture. Stray ``.tmp``
        files from killed saves are inert and may be deleted.
        """
        document = self.to_json() + "\n"
        payload = document.encode("utf-8")
        path = os.fspath(path)
        mode = chaos.draw("index.save")
        if mode == "raise":
            raise FaultInjected("injected raise fault at index.save")
        if mode == "garbage":
            # Corrupt the payload but still place it atomically: the
            # file is whole at the filesystem level yet fails its
            # checksum, exercising the quarantine path on next load.
            payload = payload[: len(payload) // 2] + b'"bitrot"}\n'
        directory = os.path.dirname(path) or "."
        descriptor, temp_path = tempfile.mkstemp(
            dir=directory,
            prefix=os.path.basename(path) + ".",
            suffix=".tmp",
        )
        try:
            with os.fdopen(descriptor, "wb") as handle:
                if mode == "crash":
                    # A hard kill mid-write: half the bytes reach the
                    # temp file, the target is never touched.
                    handle.write(payload[: len(payload) // 2])
                    handle.flush()
                    os.fsync(handle.fileno())
                    os._exit(1)
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            if mode == "hang":
                time.sleep(chaos.hang_seconds())
            os.replace(temp_path, path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        # Persist the rename itself; best-effort — not every platform
        # or filesystem lets us fsync a directory.
        try:
            dir_fd = os.open(directory, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(dir_fd)
        except OSError:
            pass
        finally:
            os.close(dir_fd)
        obs.count("serving.index.saves")

    @classmethod
    def load(cls, path: str | os.PathLike) -> "KvccIndex":
        """Read an index saved by :meth:`save`.

        A file that fails parsing or its checksum is *quarantined*:
        renamed to ``<path>.corrupt`` (so the next startup does not
        trip over it again) and reported via
        :class:`~repro.errors.IndexCorruptionError`. A missing file
        raises plain :class:`FileNotFoundError` — absence is not
        corruption.
        """
        path = os.fspath(path)
        mode = chaos.draw("index.load")
        if mode == "hang":
            time.sleep(chaos.hang_seconds())
        elif mode == "crash":
            os._exit(1)
        elif mode == "raise":
            raise FaultInjected("injected raise fault at index.load")
        elif mode == "garbage":
            # Simulated integrity failure: report corruption without
            # quarantining the (actually intact) file on disk.
            raise IndexCorruptionError(
                f"injected integrity failure loading {path}",
                quarantine=None,
            )
        with open(path, encoding="utf-8") as handle:
            document = handle.read()
        try:
            index = cls.from_json(document)
        except ParseError as exc:
            quarantine: str | None = f"{path}.corrupt"
            try:
                os.replace(path, quarantine)
            except OSError:
                quarantine = None
            obs.count("serving.index.quarantined")
            raise IndexCorruptionError(
                f"corrupt index at {path}: {exc}", quarantine=quarantine
            ) from exc
        obs.count("serving.index.loads")
        return index
