"""k-core decomposition by iterative peeling.

RIPPLE (Algorithm 5, line 2) prunes the input to its k-core before any
seeding: every vertex of a k-VCC has degree ≥ k inside the component, so
vertices outside the k-core can never belong to one. The same min-degree
peeling yields core numbers and the degeneracy ordering that
Bron–Kerbosch walks.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable

from repro.errors import ParameterError
from repro.graph.adjacency import Graph

__all__ = ["k_core", "core_numbers", "degeneracy_ordering"]


def k_core(graph: Graph, k: int) -> Graph:
    """Return the maximal subgraph in which every vertex has degree ≥ k.

    The result may be empty or disconnected. Runs in O(n + m).
    """
    if k < 0:
        raise ParameterError(f"k must be non-negative, got {k}")
    degree = {u: graph.degree(u) for u in graph.vertices()}
    queue = deque(u for u, d in degree.items() if d < k)
    removed: set = set(queue)
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            if v in removed:
                continue
            degree[v] -= 1
            if degree[v] < k:
                removed.add(v)
                queue.append(v)
    return graph.subgraph(graph.vertex_set() - removed)


def core_numbers(graph: Graph) -> dict:
    """Core number of every vertex (the largest k whose k-core contains it).

    Standard Batagelj–Zaveršnik bucket peeling, O(n + m).
    """
    degree = {u: graph.degree(u) for u in graph.vertices()}
    if not degree:
        return {}
    max_degree = max(degree.values())
    buckets: list[set] = [set() for _ in range(max_degree + 1)]
    for u, d in degree.items():
        buckets[d].add(u)
    core: dict = {}
    current = 0
    remaining = dict(degree)
    for _ in range(len(degree)):
        while not buckets[current]:
            current += 1
        # A vertex of minimum remaining degree is peeled at core level
        # max(current, its own degree floor) — ``current`` never decreases
        # past a previously assigned core value.
        u = buckets[current].pop()
        core[u] = current
        for v in graph.neighbors(u):
            if v in core:
                continue
            d = remaining[v]
            if d > current:
                buckets[d].remove(v)
                buckets[d - 1].add(v)
                remaining[v] = d - 1
    return core


def degeneracy_ordering(graph: Graph) -> list:
    """Vertices in degeneracy (min-degree peeling) order.

    Used by Bron–Kerbosch: iterating outer vertices in this order bounds
    each candidate set by the degeneracy, giving the
    O(d · n · 3^(d/3)) clique enumeration bound.
    """
    degree = {u: graph.degree(u) for u in graph.vertices()}
    if not degree:
        return []
    max_degree = max(degree.values())
    buckets: list[set] = [set() for _ in range(max_degree + 1)]
    for u, d in degree.items():
        buckets[d].add(u)
    order: list[Hashable] = []
    placed: set = set()
    current = 0
    remaining = dict(degree)
    for _ in range(len(degree)):
        while not buckets[current]:
            current += 1
        u = buckets[current].pop()
        order.append(u)
        placed.add(u)
        for v in graph.neighbors(u):
            if v in placed:
                continue
            d = remaining[v]
            buckets[d].remove(v)
            buckets[d - 1].add(v)
            remaining[v] = d - 1
        # Removing u can only lower a neighbour's degree by one, so the
        # new minimum is at least current - 1.
        if current > 0:
            current -= 1
    return order
