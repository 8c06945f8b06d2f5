"""Vertex-split flow networks for vertex-connectivity queries.

Menger's theorem reduces "how many vertex-disjoint u→v paths exist" to a
max-flow question on the *split* network: every vertex ``w`` becomes an
arc ``w_in → w_out`` of capacity 1, and every undirected edge {u, v}
becomes the two arcs ``u_out → v_in`` and ``v_out → u_in``. A flow from
``u_out`` to ``v_in`` then counts internally-vertex-disjoint paths.

:class:`VertexSplitNetwork` builds the arc structure once per graph and
resets capacities between queries, so repeated local-connectivity tests
(the inner loop of ME and FBM) do not rebuild adjacency arrays. The
reset between queries restores only the arcs the previous query touched
(``Dinic.dirty``), turning the per-query O(E) capacity copy into
O(touched).

Vertex labels are indexed in a sorted (repr-keyed) order and incident
arcs are laid out in index order, so the network's edge layout — and
therefore residual-cut tie-breaks — is identical across processes
regardless of ``PYTHONHASHSEED`` (``tests/test_determinism.py``).

Virtual vertices (the σ and τ of Theorems 1 and 3) are ordinary vertices
here: callers pass them with their attachments as ``virtual_sources``.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

from repro import obs
from repro.errors import GraphError, ParameterError
from repro.flow.dinic import Dinic
from repro.graph.adjacency import Graph

__all__ = ["VertexSplitNetwork"]


class VertexSplitNetwork:
    """Reusable vertex-split flow network over an induced subgraph.

    Parameters
    ----------
    graph:
        The host graph.
    members:
        Vertex set to induce the network on (defaults to all vertices).
    virtual_sources:
        Mapping of virtual vertex label → iterable of member vertices it
        is adjacent to. Virtual labels must not collide with members.
    """

    __slots__ = ("_index", "_dinic", "_caps0", "_adjacent", "_queries")

    def __init__(
        self,
        graph: Graph,
        members: Iterable[Hashable] | None = None,
        virtual_sources: dict[Hashable, Iterable[Hashable]] | None = None,
    ) -> None:
        if members is None:
            member_set = graph.vertex_set()
        else:
            member_set = set(members)
            if not member_set.issubset(graph.vertex_view()):
                missing = sorted(
                    member_set.difference(graph.vertex_view()), key=repr
                )
                raise GraphError(f"members not in graph: {missing[:5]!r}")
        virtuals = virtual_sources or {}
        collisions = set(virtuals) & member_set
        if collisions:
            raise ParameterError(
                f"virtual labels collide with members: {collisions!r}"
            )

        obs.count("flow.network.builds")
        # Index members in sorted order so the arc layout does not
        # depend on set iteration order (hash randomisation); repr is
        # the tie-break for label sets no natural order covers. Virtual
        # labels follow in their mapping's insertion order.
        try:
            member_order = sorted(member_set)
        except TypeError:
            member_order = sorted(member_set, key=repr)
        index: dict[Hashable, int] = {
            u: i for i, u in enumerate(member_order)
        }
        for label in virtuals:
            index[label] = len(index)
        self._index = index

        n = len(index)
        dinic = Dinic(2 * n)
        # w_in = 2i, w_out = 2i + 1; internal arc capacity 1. Added
        # first and in index order, so label i's internal arc sits at
        # edge index 2i — and the flattened (2i, 2i+1) pair list is
        # just 0..2n-1.
        dinic.add_split_pairs()
        # Edge arcs must exceed any possible flow value so minimum cuts
        # cross only internal arcs — that is what lets
        # vertex_cut_if_below read the cut as a set of *vertices*. Total
        # flow is capped by the n unit internal arcs, so 2n + 1 is
        # safely "infinite".
        big = 2 * n + 1
        endpoints: list[int] = []
        adjacent: dict[Hashable, set] = {}
        self._adjacent = adjacent
        neighbors = graph.neighbors
        for ui, u in enumerate(member_order):
            inside = neighbors(u) & member_set
            adjacent[u] = inside
            # Each undirected edge is laid out once, from its lower
            # index; sorting the (halved) index list keeps the arc
            # layout independent of set iteration order.
            upper = [vi for v in inside if (vi := index[v]) > ui]
            upper.sort()
            out = 2 * ui + 1
            base = 2 * ui
            for vi in upper:
                endpoints += (out, 2 * vi, 2 * vi + 1, base)
        for label, attached in virtuals.items():
            attach_set = set(attached)
            outside = attach_set - member_set
            if outside:
                raise ParameterError(
                    f"virtual vertex {label!r} attaches outside "
                    f"members: {sorted(map(repr, outside))[:5]}"
                )
            adjacent[label] = attach_set
            li = index[label]
            l_out = 2 * li + 1
            l_in = 2 * li
            attach_indices = [index[v] for v in attach_set]
            attach_indices.sort()
            for vi in attach_indices:
                adjacent[member_order[vi]].add(label)
                endpoints += (l_out, 2 * vi, 2 * vi + 1, l_in)
        dinic.add_edges(endpoints, big)
        self._dinic = dinic
        self._caps0 = list(dinic.cap)
        self._queries = 0

    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of (real + virtual) vertices in the network."""
        return len(self._index)

    def adjacent(self, u: Hashable, v: Hashable) -> bool:
        """Whether ``u`` and ``v`` are adjacent inside the network."""
        return v in self._adjacent[u]

    def _reset(self) -> None:
        restored = self._dinic.restore_capacities(self._caps0)
        if restored < 0:
            obs.count("flow.reset.full")
        else:
            obs.count("flow.reset.dirty_edges", restored)

    def max_flow(
        self, source: Hashable, sink: Hashable, cutoff: float = float("inf")
    ) -> int | float:
        """Max flow (= vertex-disjoint path count) for a non-adjacent pair.

        Equals κ(source, sink) inside the network by Menger's theorem.
        Adjacent pairs are rejected: no vertex removal separates an
        edge's endpoints, the paper defines κ = ∞ there, and the split
        network's unbounded direct arc would return garbage. Callers
        test :meth:`adjacent` first, or use :meth:`vertex_cut_if_below`,
        which folds the adjacency convention in.
        """
        if source == sink:
            raise ParameterError("source and sink must differ")
        for label in (source, sink):
            if label not in self._index:
                raise ParameterError(f"{label!r} is not in the network")
        if self.adjacent(source, sink):
            raise ParameterError(
                f"{source!r} and {sink!r} are adjacent: κ is unbounded"
            )
        if self._queries:
            obs.count("flow.network.reuses")
        self._queries += 1
        self._reset()
        s = 2 * self._index[source] + 1  # source's out-node
        t = 2 * self._index[sink]  # sink's in-node
        return self._dinic.max_flow(s, t, cutoff=cutoff)

    def vertex_cut_if_below(
        self, source: Hashable, sink: Hashable, k: int
    ) -> set | None:
        """A minimum vertex cut separating source/sink if κ < k, else None.

        Runs the flow with a cutoff of ``k``: if the true connectivity is
        below the cutoff, Dinic runs to completion, the residual network
        is exact, and the cut can be read off it; otherwise we learn
        "≥ k" cheaply and return None. Adjacent pairs can never be
        separated and return None.
        """
        if self.adjacent(source, sink):
            return None
        flow = self.max_flow(source, sink, cutoff=k)
        if flow >= k:
            return None
        # A vertex is in the cut iff the residual network reaches its
        # in-node from the source but not its out-node.
        side = self._dinic.min_cut_side(2 * self._index[source] + 1)
        cut: set = set()
        for label, i in self._index.items():
            if 2 * i in side and 2 * i + 1 not in side:
                cut.add(label)
        return cut

    def saturated_arcs(self) -> list[tuple[Hashable, Hashable]]:
        """Edge arcs (u, v) carrying flow after the last max_flow call.

        Only inter-vertex arcs are reported (u_out → v_in), as label
        pairs; internal arcs are implied. Used by the flow-to-paths
        decomposition.
        """
        labels = {i: label for label, i in self._index.items()}
        arcs: list[tuple[Hashable, Hashable]] = []
        for arc in range(0, len(self._dinic.to), 2):
            if self._caps0[arc] - self._dinic.cap[arc] <= 0:
                continue
            head = self._dinic.to[arc]
            tail = self._dinic.to[arc ^ 1]
            if tail % 2 == 1 and head % 2 == 0:
                arcs.append((labels[tail // 2], labels[head // 2]))
        return arcs
