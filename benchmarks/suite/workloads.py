"""The four workloads: their inputs, commands, oracles and counter checks.

Every input comes from an existing generator in
``repro.graph.generators`` seeded from ``--seed`` and reaches the
program only as an edge-list file. The structures are planted ones on
purpose: their cost is a sum over many independent communities, so it
barely moves from seed to seed. A single power-law graph does not have
that property: across ten seeds of ``powerlaw_cluster_graph`` the
RIPPLE wall time spread by 22-55% of its median, because a handful of
LkVCS fallback calls decide it. ``enum-powerlaw`` therefore chains many
small power-law blocks instead of growing one large graph.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass

from repro.core.vcce_td import vcce_td
from repro.flow.connectivity import is_k_vertex_connected
from repro.graph import generators
from repro.graph.adjacency import Graph


def powerlaw_blocks(seed: int, blocks: int, size: int) -> Graph:
    """``blocks`` Holme-Kim power-law graphs chained by single edges.

    A one-edge bridge keeps every block its own k-VCC for any k >= 2,
    so the blocks' seeding, flow and merge work add up independently.
    """
    rng = random.Random(seed)
    graph = Graph()
    for block in range(blocks):
        part = generators.powerlaw_cluster_graph(
            size, 4, 0.5, seed=seed * 1000 + block
        )
        offset = block * size
        for u, v in part.edges():
            graph.add_edge(u + offset, v + offset)
        if block:
            graph.add_edge(offset - 1 - rng.randrange(size),
                           offset + rng.randrange(size))
    return graph


def trap_communities(seed: int, communities: int) -> Graph:
    """Planted 5-VCCs carrying the UE and NBM traps of paper Figs. 2-3."""
    return generators.community_graph(
        [45] * communities,
        k=5,
        seed=seed,
        bridge_style="two_star",
        periphery_pairs=2,
        mixed_chains=1,
    )


def clique_chain(seed: int, cliques: int) -> Graph:
    """10-cliques sharing 2 vertices with each neighbour, one noise edge
    per clique. Denser noise occasionally lets two cliques pass the merge
    bound (measured: 1 seed in 30 at two noise edges per clique), which
    would break both the zero-flow control and the planted answer."""
    return generators.overlapping_cliques_graph(
        cliques, 10, 2, seed=seed, noise_edges=cliques
    )


def planted_cliques(graph: Graph) -> set[frozenset]:
    """The answer ``clique_chain`` plants: consecutive cliques start 8
    labels apart, so c cliques span 8c + 2 labels and clique i is
    ``[8i, 8i + 10)``."""
    cliques = (graph.num_vertices - 2) // 8
    return {frozenset(range(8 * i, 8 * i + 10)) for i in range(cliques)}


@dataclass(frozen=True)
class EnumWorkload:
    """One ``ripple enumerate`` workload."""

    name: str
    k: int
    #: Extra ``ripple enumerate`` arguments after ``-k``.
    cli_args: tuple[str, ...]
    #: ``(seed, quick) -> graph``.
    build: Callable[[int, bool], Graph]
    #: ``graph -> the exact set of k-VCCs``.
    oracle: Callable[[Graph], set[frozenset]]
    #: ``(description, predicate over repro.obs counters)``: what this
    #: workload exists to exercise, asserted on every traced run.
    checks: tuple[tuple[str, Callable[[dict], bool]], ...]
    #: Whether every output component is re-checked for k-vertex
    #: connectivity (the oracle is planted rather than computed).
    audit_components: bool = False


def _vcce_td_oracle(k: int):
    def oracle(graph: Graph) -> set[frozenset]:
        return set(vcce_td(graph, k).components)

    return oracle


_FLOW_AND_FALLBACK_CHECKS = (
    ("max-flow calls > 0", lambda c: c.get("flow.dinic.calls", 0) > 0),
    ("LkVCS seeds > 0", lambda c: c.get("seeding.fallback_seeds", 0) > 0),
    ("merge tests > 0", lambda c: c.get("merge.tests_attempted", 0) > 0),
)

ENUM_WORKLOADS: dict[str, EnumWorkload] = {
    workload.name: workload
    for workload in (
        EnumWorkload(
            name="enum-powerlaw",
            k=4,
            cli_args=(),
            build=lambda seed, quick: powerlaw_blocks(
                seed, 3 if quick else 16, 150 if quick else 400
            ),
            oracle=_vcce_td_oracle(4),
            checks=_FLOW_AND_FALLBACK_CHECKS,
        ),
        EnumWorkload(
            name="enum-traps",
            k=5,
            cli_args=("--algorithm", "ripple-me"),
            build=lambda seed, quick: trap_communities(
                seed, 10 if quick else 80
            ),
            oracle=_vcce_td_oracle(5),
            checks=_FLOW_AND_FALLBACK_CHECKS,
        ),
        EnumWorkload(
            name="enum-cliques",
            k=4,
            cli_args=(),
            build=lambda seed, quick: clique_chain(
                seed, 200 if quick else 1500
            ),
            oracle=planted_cliques,
            checks=(
                ("max-flow calls == 0",
                 lambda c: c.get("flow.dinic.calls", 0) == 0),
                ("merge tests > 0",
                 lambda c: c.get("merge.tests_attempted", 0) > 0),
            ),
            audit_components=True,
        ),
    )
}


def audit_components(graph: Graph, components: set[frozenset], k: int) -> int:
    """How many ``components`` are not k-vertex connected in ``graph``."""
    return sum(
        1
        for component in components
        if not is_k_vertex_connected(graph.subgraph(component), k)
    )


@dataclass(frozen=True)
class ServeWorkload:
    """The serving workload: its graph and the traffic it is sent."""

    name: str
    build: Callable[[int, bool], Graph]
    #: The repository's scenario whose traffic shape (mix, batch size,
    #: k range, uniform keys) every step and slice reuses; the benchmark
    #: sets only its rate, length, connections and seed.
    scenario: str = "smoke"
    #: Client connections of a ladder step, all from the benchmark's one
    #: process (a paired slice opens one to the daemon and one to the
    #: stand-in).
    connections: int = 2
    check_keys: int = 500


SERVE_WORKLOAD = ServeWorkload(
    name="serve-ladder",
    build=lambda seed, quick: trap_communities(seed, 10),
)

WORKLOAD_NAMES = (*ENUM_WORKLOADS, SERVE_WORKLOAD.name)
