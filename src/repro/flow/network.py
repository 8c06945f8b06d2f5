"""Vertex-connectivity flows by augmenting paths over adjacency sets.

Menger's theorem reduces "how many internally-vertex-disjoint u→v
paths exist" to a max-flow question on the *split* network: every
vertex ``w`` becomes an arc ``w_in → w_out`` of capacity 1, and every
undirected edge {u, v} becomes the two unbounded arcs ``u_out → v_in``
and ``v_out → u_in``. A flow from ``u_out`` to ``v_in`` then counts
internally-vertex-disjoint paths.

:class:`VertexSplitNetwork` answers that question without building the
split network. Its in- and out-nodes are implicit states over the
member adjacency sets, and the flow is one dict: ``pred[v]`` names the
vertex whose out-node feeds ``v``'s in-node, for every vertex ``v`` that
carries flow (the source and the sink never appear as keys). The
residual arcs follow from it:

* ``u_out → v_in`` for every neighbour ``v``: edge arcs never saturate;
* ``v_in → v_out`` when ``v`` is free;
* ``v_in → pred[v]_out`` and ``v_out → v_in`` when ``v`` carries flow
  (the reverses of its feeding edge arc and of its saturated internal
  arc).

Each augmenting path is one breadth-first search, and an expanded
out-node finds all of its unseen in-nodes with one set difference. An
in-node has exactly one residual exit, so only out-nodes are queued.
Every augmentation carries one unit, and a query stops at its cutoff.

Why the answers are exact, whichever paths the set order picks:

* The max-flow value is unique, so :meth:`max_flow` returns
  min(κ, cutoff) and each query counts exactly that many
  augmentations.
* For *any* maximum flow, the vertices reachable from the source in the
  residual network are the source side of the minimum cut closest to
  the source. (Every minimum cut's source side contains that reachable
  set, since no residual arc leaves a minimum cut's source side, and
  the reachable set is itself a minimum cut's source side.) So
  :meth:`vertex_cut_if_below`, which reads the cut off the final,
  failed search, returns the same cut for every maximum flow.

Virtual vertices (the σ and τ of Theorems 1 and 3) are ordinary
vertices here: callers pass them with their attachments as
``virtual_sources``.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

from repro import obs
from repro.errors import GraphError, ParameterError
from repro.graph.adjacency import Graph

__all__ = ["VertexSplitNetwork"]


class VertexSplitNetwork:
    """Reusable vertex-split flow network over an induced subgraph.

    Parameters
    ----------
    graph:
        The host graph. With neither ``members`` nor ``virtual_sources``
        the network reads the graph's own adjacency in place, so the
        graph must not change while the network is in use.
    members:
        Vertex set to induce the network on (defaults to all vertices).
    virtual_sources:
        Mapping of virtual vertex label → iterable of member vertices it
        is adjacent to. Virtual labels must not collide with members.
    """

    __slots__ = ("_adj", "_pred", "_sink", "_reached", "_queries")

    def __init__(
        self,
        graph: Graph,
        members: Iterable[Hashable] | None = None,
        virtual_sources: dict[Hashable, Iterable[Hashable]] | None = None,
    ) -> None:
        virtuals = virtual_sources or {}
        if members is None and not virtuals:
            adj = graph._adj
        else:
            if members is None:
                member_set = graph.vertex_set()
            else:
                member_set = set(members)
                if not member_set.issubset(graph.vertex_view()):
                    missing = sorted(
                        member_set.difference(graph.vertex_view()), key=repr
                    )
                    raise GraphError(f"members not in graph: {missing[:5]!r}")
            collisions = set(virtuals) & member_set
            if collisions:
                raise ParameterError(
                    f"virtual labels collide with members: {collisions!r}"
                )
            neighbors = graph.neighbors
            adj = {u: neighbors(u) & member_set for u in member_set}
            for label, attached in virtuals.items():
                attach_set = set(attached)
                outside = attach_set - member_set
                if outside:
                    raise ParameterError(
                        f"virtual vertex {label!r} attaches outside "
                        f"members: {sorted(map(repr, outside))[:5]}"
                    )
                adj[label] = attach_set
                for v in attach_set:
                    adj[v].add(label)
        obs.count("flow.network.builds")
        self._adj: dict[Hashable, set] = adj
        self._pred: dict[Hashable, Hashable] = {}
        self._sink: Hashable = None
        self._reached: tuple[set, dict] = (set(), {})
        self._queries = 0

    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of (real + virtual) vertices in the network."""
        return len(self._adj)

    def adjacent(self, u: Hashable, v: Hashable) -> bool:
        """Whether ``u`` and ``v`` are adjacent inside the network."""
        return v in self._adj[u]

    def max_flow(
        self, source: Hashable, sink: Hashable, cutoff: float = float("inf")
    ) -> int:
        """Max flow (= vertex-disjoint path count) for a non-adjacent pair.

        Equals κ(source, sink) inside the network by Menger's theorem,
        or ``cutoff`` once that many paths are found. Adjacent pairs are
        rejected: no vertex removal separates an edge's endpoints, and
        the paper defines κ = ∞ there. Callers test :meth:`adjacent`
        first, or use :meth:`vertex_cut_if_below`, which folds the
        adjacency convention in.
        """
        if source == sink:
            raise ParameterError("source and sink must differ")
        for label in (source, sink):
            if label not in self._adj:
                raise ParameterError(f"{label!r} is not in the network")
        if self.adjacent(source, sink):
            raise ParameterError(
                f"{source!r} and {sink!r} are adjacent: κ is unbounded"
            )
        if self._queries:
            obs.count("flow.network.reuses")
        self._queries += 1
        # Counted under the flow.dinic names every flow engine shares.
        obs.count("flow.dinic.calls")
        with obs.agg_span("flow.dinic.max_flow"):
            self._pred = {}
            self._sink = sink
            flow = 0
            while flow < cutoff and self._augment(source, sink):
                flow += 1
        if flow:
            obs.count("flow.dinic.augmentations", flow)
            obs.count("flow.dinic.bfs_phases", flow)
        if flow >= cutoff:
            obs.count("flow.dinic.cutoff_exits")
        return flow

    def _augment(self, source: Hashable, sink: Hashable) -> bool:
        """One breadth-first search; push a unit along the path it finds.

        ``parent[v] = (u, w)`` records that ``v``'s out-node was reached
        from ``u``'s out-node through ``w``'s in-node. A failed search
        leaves its reached in- and out-nodes in ``self._reached``.
        """
        adj = self._adj
        pred = self._pred
        # A real set: with a dict.keys() view on the right, the
        # difference below would iterate the whole view per out-node.
        seen_in = {source}
        parent: dict[Hashable, tuple] = {source: None}
        queue = [source]
        for u in queue:
            fresh = adj[u] - seen_in
            if fresh:
                if sink in fresh:
                    break
                seen_in |= fresh
                for w in fresh:
                    v = pred.get(w, w)  # w's only residual exit
                    if v not in parent:
                        parent[v] = (u, w)
                        queue.append(v)
            if u in pred and u not in seen_in:
                seen_in.add(u)  # the reverse of u's internal arc
                v = pred[u]
                if v not in parent:
                    parent[v] = (u, u)
                    queue.append(v)
        else:
            self._reached = (seen_in, parent)
            return False
        # Walk back from the out-node that reached the sink. A forward
        # edge arc into w re-points pred[w]; the reverse of u's internal
        # arc (w == u) frees u.
        v = u
        while v != source:
            u, w = parent[v]
            if w == u:
                del pred[w]
            else:
                pred[w] = u
            v = u
        return True

    def vertex_cut_if_below(
        self, source: Hashable, sink: Hashable, k: int
    ) -> set | None:
        """A minimum vertex cut separating source/sink if κ < k, else None.

        Runs the flow with a cutoff of ``k``: if the true connectivity is
        below the cutoff, the flow is maximum and the cut is read off
        the final, failed search; otherwise we learn "≥ k" cheaply and
        return None. Adjacent pairs can never be separated and return
        None.
        """
        if self.adjacent(source, sink):
            return None
        flow = self.max_flow(source, sink, cutoff=k)
        if flow >= k:
            return None
        # A vertex is in the cut iff the residual network reaches its
        # in-node from the source but not its out-node.
        seen_in, reached_out = self._reached
        return {w for w in seen_in if w not in reached_out}

    def saturated_arcs(self) -> list[tuple[Hashable, Hashable]]:
        """Edge arcs (u, v) carrying flow after the last max_flow call.

        Only inter-vertex arcs are reported (u_out → v_in), as label
        pairs; internal arcs are implied. A vertex carrying flow that
        feeds no other vertex feeds the sink. Used by the flow-to-paths
        decomposition.
        """
        pred = self._pred
        feeding = set(pred.values())
        arcs = [(u, v) for v, u in pred.items()]
        arcs += [(u, self._sink) for u in pred if u not in feeding]
        return arcs
