"""Compressed-sparse-row graph: the SNAP loader's ingestion target.

The SNAP loader streams a raw edge file through :class:`CsrGraph` on
its way to a :class:`repro.graph.Graph`: the edge stream is
deduplicated once (self-loops and duplicate orientations dropped and
counted), densely renumbered to ``0 … n-1`` and packed into two
``array('q')`` buffers::

    indptr   : n+1 offsets        indices : m*2 neighbour ids
    ┌───┬───┬───┬─────┬───┐       ┌─────────┬───────┬─────────┐
    │ 0 │ d0│...│Σd   │ 2m│       │ row 0   │ row 1 │ ...     │
    └───┴───┴───┴─────┴───┘       └─────────┴───────┴─────────┘
    row i = indices[indptr[i] : indptr[i+1]], sorted ascending

Identifiers are assigned in **sorted label order** (``repr`` as the
tie-break when the label set has no natural order), so
:meth:`CsrGraph.to_graph` inserts vertices in a deterministic order.
"""

from __future__ import annotations

from array import array
from collections.abc import Hashable, Iterable

from repro import obs

__all__ = ["CsrGraph"]


class CsrGraph:
    """An immutable CSR snapshot of an undirected simple graph.

    Attributes
    ----------
    n / num_edges:
        Vertex and edge counts.
    labels:
        Vertex labels in id order (``labels[i]`` is the label of id i).
    indptr / indices:
        The offset and neighbour ``array('q')`` buffers; row ``i`` is
        ``indices[indptr[i]:indptr[i+1]]``, sorted ascending.
    """

    __slots__ = ("n", "num_edges", "labels", "indptr", "indices")

    def __init__(self, labels: list, indptr: array, indices: array) -> None:
        self.labels = labels
        self.indptr = indptr
        self.indices = indices
        self.n = len(labels)
        self.num_edges = len(indices) // 2

    @classmethod
    def from_edge_stream(
        cls, edges: Iterable[tuple[Hashable, Hashable]]
    ) -> "CsrGraph":
        """Build directly from an edge iterable — no dict graph in between.

        Self-loops are dropped and duplicate edges (either orientation)
        collapse, so a raw SNAP-style stream can be fed in as-is. The
        stream is consumed once; the deduplicated pair list is the only
        per-edge state held.
        """
        obs.count("graph.csr.stream_builds")
        seen: set = set()
        pairs: list = []
        vertices: set = set()
        loops = 0
        duplicates = 0
        for u, v in edges:
            if u == v:
                loops += 1
                vertices.add(u)
                continue
            try:
                key = (u, v) if u <= v else (v, u)
            except TypeError:
                key = (u, v) if repr(u) <= repr(v) else (v, u)
            if key in seen:
                duplicates += 1
                continue
            seen.add(key)
            pairs.append(key)
            vertices.add(u)
            vertices.add(v)
        if loops:
            obs.count("graph.csr.stream_selfloops_dropped", loops)
        if duplicates:
            obs.count("graph.csr.stream_duplicates_dropped", duplicates)
        labels = list(vertices)
        try:
            labels.sort()
        except TypeError:
            labels.sort(key=repr)
        index = {u: i for i, u in enumerate(labels)}
        n = len(labels)
        degree = array("q", bytes(8 * n))
        for u, v in pairs:
            degree[index[u]] += 1
            degree[index[v]] += 1
        indptr = array("q", bytes(8 * (n + 1)))
        total = 0
        for i in range(n):
            indptr[i] = total
            total += degree[i]
        indptr[n] = total
        indices = array("q", bytes(8 * total))
        cursor = list(indptr[:n])
        for u, v in pairs:
            iu, iv = index[u], index[v]
            indices[cursor[iu]] = iv
            cursor[iu] += 1
            indices[cursor[iv]] = iu
            cursor[iv] += 1
        for i in range(n):
            start, stop = indptr[i], indptr[i + 1]
            if stop - start > 1:
                indices[start:stop] = array(
                    "q", sorted(indices[start:stop])
                )
        return cls(labels, indptr, indices)

    def to_graph(self):
        """Densify into a :class:`repro.graph.Graph`."""
        from repro.graph.adjacency import Graph

        graph = Graph()
        labels, indptr, indices = self.labels, self.indptr, self.indices
        adj = graph._adj
        for i, u in enumerate(labels):
            adj[u] = {
                labels[j] for j in indices[indptr[i] : indptr[i + 1]]
            }
        graph._num_edges = self.num_edges
        return graph

    def __repr__(self) -> str:
        return f"CsrGraph(n={self.n}, m={self.num_edges})"
