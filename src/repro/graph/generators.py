"""Seeded synthetic graph generators.

The paper evaluates on ten real graphs (SNAP / Network Repository) of up
to 59M vertices. Those downloads are unavailable here and pure Python
cannot chew graphs that large, so the benchmark datasets are synthetic
stand-ins built by these generators (see DESIGN.md §4 for the mapping).
Every generator takes an explicit ``seed`` and is fully deterministic.

The structural ingredients the evaluation needs, and who provides them:

* **k-vertex connected communities** — :func:`community_graph` builds
  each community as a *clique ring* (circulant of width k: every k+1
  consecutive vertices form a clique, vertex connectivity 2k ≥ k). Real
  collaboration/web graphs are triangle-rich like this; it is also what
  makes clique-based seeding and ring expansion meaningful.
* **UE-vs-ME separation** — ``periphery`` attaches mutually-supporting
  vertex pairs to a community: each pair vertex has only k-1 anchors
  into the community but the pair edge supplies the k-th disjoint path
  (paper Figure 2). Unitary Expansion stalls on them; Multiple/Ring
  Expansion absorbs them; the exact k-VCC includes them.
* **NBM-vs-FBM separation** — ``bridge_style="two_star"`` joins two
  communities with two (k-1)-leaf stars: ≥ k boundary neighbours on
  both sides (so Neighbor-Based Merging fires) but a vertex cut of size
  2 (so the union is *not* k-connected and Flow-Based Merging refuses;
  paper Figure 3).
* plain sparse bridges, fringes, noise, and heavy-tailed degrees for
  realistic surroundings.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from repro.errors import ParameterError
from repro.graph.adjacency import Graph

__all__ = [
    "CommunitySpec",
    "attach_mixed_chains",
    "attach_support_pairs",
    "circulant_graph",
    "clique_graph",
    "community_graph",
    "mixed_community_graph",
    "nbm_trap_graph",
    "overlapping_cliques_graph",
    "planted_kvcc_graph",
    "powerlaw_cluster_graph",
    "random_gnm",
    "ue_trap_graph",
]

#: Community construction styles accepted by :func:`community_graph`.
_STYLES = ("clique_ring", "circulant")

#: Bridge construction styles accepted by :func:`community_graph`.
_BRIDGE_STYLES = ("random", "two_star")


def circulant_graph(n: int, width: int, offset: int = 0) -> Graph:
    """Circulant graph C_n(1..width): vertex i links to i±1 … i±width.

    Its vertex connectivity is exactly ``2 * width`` (for n > 2*width).
    With ``width = k`` every window of k+1 consecutive vertices is a
    clique — the "clique ring" community brick. Labels start at
    ``offset``.
    """
    if n < 3 or width < 1:
        raise ParameterError("need n >= 3 and width >= 1")
    if 2 * width >= n:
        return clique_graph(n, offset=offset)
    graph = Graph()
    for i in range(n):
        for j in range(1, width + 1):
            graph.add_edge(offset + i, offset + (i + j) % n)
    return graph


def clique_graph(n: int, offset: int = 0) -> Graph:
    """Complete graph K_n with labels ``offset … offset + n - 1``."""
    if n < 1:
        raise ParameterError("need n >= 1")
    graph = Graph()
    graph.add_vertex(offset)
    for i, j in itertools.combinations(range(n), 2):
        graph.add_edge(offset + i, offset + j)
    return graph


def random_gnm(n: int, m: int, seed: int) -> Graph:
    """Uniform random simple graph with ``n`` vertices and ``m`` edges."""
    max_edges = n * (n - 1) // 2
    if m > max_edges:
        raise ParameterError(f"m={m} exceeds max {max_edges} for n={n}")
    rng = random.Random(seed)
    graph = Graph()
    for i in range(n):
        graph.add_vertex(i)
    added = 0
    while added < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
            added += 1
    return graph


def _merge_into(target: Graph, source: Graph) -> None:
    """Union ``source``'s vertices/edges into ``target`` in place."""
    for u in source.vertices():
        target.add_vertex(u)
    for u, v in source.edges():
        target.add_edge(u, v)


def attach_support_pairs(
    graph: Graph,
    targets: list,
    count: int,
    k: int,
    seed: int,
    label_start: int | None = None,
) -> list[int]:
    """Attach ``count`` mutually-supporting pairs to ``targets``.

    Each pair (a, b) gets the edge a–b plus k-1 anchors each into
    ``targets`` with disjoint anchor sets, so the pair extends a k-VCC
    containing the targets (paper Figure 2): Unitary Expansion cannot
    absorb either vertex alone, Multiple/Ring Expansion absorbs the
    pair jointly. Returns the new labels.
    """
    if k < 3:
        raise ParameterError("support pairs need k >= 3")
    if len(targets) < 2 * (k - 1):
        raise ParameterError("not enough targets for disjoint anchor sets")
    rng = random.Random(seed)
    label = graph.num_vertices if label_start is None else label_start
    added: list[int] = []
    for _ in range(count):
        a, b = label, label + 1
        label += 2
        graph.add_edge(a, b)
        anchors_a = rng.sample(targets, k - 1)
        anchors_b = rng.sample(
            [v for v in targets if v not in anchors_a], k - 1
        )
        for w in anchors_a:
            graph.add_edge(a, w)
        for w in anchors_b:
            graph.add_edge(b, w)
        added.extend((a, b))
    return added


def attach_mixed_chains(
    graph: Graph,
    targets: list,
    count: int,
    k: int,
    seed: int,
    label_start: int | None = None,
) -> list[int]:
    """Attach ``count`` three-vertex chains whose members span buckets.

    A chain u–v–t: u and t carry k-1 anchors into ``targets``, v only
    k-2 plus the two chain edges, all anchor sets disjoint. The trio is
    jointly k-connected with any k-VCC containing the targets, but the
    members land in *different* rings of the boundary classification —
    exact Multiple Expansion absorbs them, RME's same-bucket clique
    rule cannot, and Unitary Expansion cannot either. This is the
    structure behind the RIPPLE vs RIPPLE-ME gap (Table IV). Returns
    the new labels.
    """
    if k < 3:
        raise ParameterError("mixed chains need k >= 3")
    if len(targets) < 3 * k - 4:
        raise ParameterError("not enough targets for disjoint anchor sets")
    rng = random.Random(seed)
    label = graph.num_vertices if label_start is None else label_start
    added: list[int] = []
    for _ in range(count):
        u, v, t = label, label + 1, label + 2
        label += 3
        graph.add_edge(u, v)
        graph.add_edge(v, t)
        pool = list(targets)
        anchors_u = rng.sample(pool, k - 1)
        pool = [w for w in pool if w not in anchors_u]
        anchors_t = rng.sample(pool, k - 1)
        pool = [w for w in pool if w not in anchors_t]
        anchors_v = rng.sample(pool, k - 2)
        for w in anchors_u:
            graph.add_edge(u, w)
        for w in anchors_t:
            graph.add_edge(t, w)
        for w in anchors_v:
            graph.add_edge(v, w)
        added.extend((u, v, t))
    return added


def _build_community(
    graph: Graph,
    offset: int,
    size: int,
    k: int,
    style: str,
    periphery_pairs: int,
    mixed_chains: int,
    extra_edge_prob: float,
    clique_pockets: int,
    rng: random.Random,
) -> list[int]:
    """Add one community on labels [offset, offset + size) to ``graph``.

    Returns the community's *core* vertex labels (anchoring targets for
    bridges). The core is k-vertex connected by construction; with
    ``periphery_pairs`` > 0 the last ``2 * periphery_pairs`` labels are
    mutually-supporting pairs hanging off the core with k-1 anchors
    each, and the full community is still one k-VCC.
    """
    core_size = size - 2 * periphery_pairs - 3 * mixed_chains
    if core_size < max(k + 2, 3 * k - 4):
        raise ParameterError(
            f"community of size {size} with {periphery_pairs} peripheral "
            f"pairs and {mixed_chains} chains leaves a core of "
            f"{core_size} vertices; need at least {max(k + 2, 3 * k - 4)}"
        )
    width = k if style == "clique_ring" else (k + 1) // 2
    _merge_into(graph, circulant_graph(core_size, width, offset=offset))
    core = list(range(offset, offset + core_size))
    if clique_pockets > 0 and core_size > k + 1:
        # Densify evenly spaced windows of k+1 consecutive ring vertices
        # into cliques. On a minimal-width ring these pockets are the
        # only spots local heuristics can seed from — the partial-
        # coverage regime of the paper's hardest datasets.
        stride = max(1, core_size // clique_pockets)
        for pocket in range(clique_pockets):
            base = (pocket * stride) % core_size
            window = [
                offset + (base + j) % core_size for j in range(k + 1)
            ]
            for u, v in itertools.combinations(window, 2):
                graph.add_edge(u, v)
    chords = int(extra_edge_prob * core_size)
    for _ in range(chords):
        u, v = rng.sample(core, 2)
        graph.add_edge(u, v)
    label = offset + core_size
    if periphery_pairs:
        pairs = attach_support_pairs(
            graph, core, periphery_pairs, k,
            seed=rng.randrange(1 << 30), label_start=label,
        )
        label += len(pairs)
    if mixed_chains:
        attach_mixed_chains(
            graph, core, mixed_chains, k,
            seed=rng.randrange(1 << 30), label_start=label,
        )
    return core


def _add_random_bridge(
    graph: Graph,
    left_core: list[int],
    right_core: list[int],
    width: int,
    rng: random.Random,
) -> None:
    """Up to ``width`` random cross edges (duplicates collapse)."""
    for _ in range(width):
        graph.add_edge(rng.choice(left_core), rng.choice(right_core))


def _add_two_star_bridge(
    graph: Graph,
    left_core: list[int],
    right_core: list[int],
    k: int,
    rng: random.Random,
) -> None:
    """The NBM trap: two (k-1)-leaf stars crossing between communities.

    A left centre gets k-1 leaves on the right and a right centre gets
    k-1 leaves on the left, all six sets disjoint. Both sides then see
    ≥ k boundary neighbours (Neighbor-Based Merging fires) but {left
    centre, right centre} is a vertex cut of size 2 (the union is not
    k-connected; Flow-Based Merging refuses). Every cross endpoint has
    cross-degree ≤ k-1, so no expansion strategy can legally absorb a
    vertex across the bridge either.
    """
    left_centre = rng.choice(left_core)
    right_centre = rng.choice(right_core)
    right_leaves = rng.sample(
        [v for v in right_core if v != right_centre], k - 1
    )
    left_leaves = rng.sample(
        [v for v in left_core if v != left_centre], k - 1
    )
    for leaf in right_leaves:
        graph.add_edge(left_centre, leaf)
    for leaf in left_leaves:
        graph.add_edge(right_centre, leaf)


@dataclass(frozen=True)
class CommunitySpec:
    """Recipe for one planted community inside a mixed graph.

    ``k`` is the *build* connectivity: the core is a circulant of
    width k (``clique_ring`` style) or width ⌈k/2⌉ (``circulant``
    style), so the core stays one k'-VCC for every k' up to the core
    connectivity. Periphery pairs and mixed chains are anchored at
    exactly this k, which is where their expansion traps bite.
    """

    size: int
    k: int
    style: str = "clique_ring"
    periphery_pairs: int = 0
    mixed_chains: int = 0
    clique_pockets: int = 0
    extra_edge_prob: float = 0.1

    def validate(self) -> None:
        if self.k < 2:
            raise ParameterError(f"k must be >= 2, got {self.k}")
        if self.style not in _STYLES:
            raise ParameterError(
                f"style must be one of {_STYLES}, got {self.style!r}"
            )
        for field_name in ("periphery_pairs", "mixed_chains", "clique_pockets"):
            if getattr(self, field_name) < 0:
                raise ParameterError(f"{field_name} must be non-negative")
        if (self.mixed_chains or self.periphery_pairs) and self.k < 3:
            raise ParameterError("pairs and chains need k >= 3")


def mixed_community_graph(
    specs: list[CommunitySpec],
    seed: int,
    bridge_width: int = 1,
    bridge_style: str = "random",
) -> Graph:
    """Planted communities with per-community structure, sparsely bridged.

    The workhorse behind the benchmark datasets: each
    :class:`CommunitySpec` plants one community that is exactly one
    k-VCC at its own build ``k``; consecutive communities are joined by
    bridges that never reach cross connectivity min(k) — ``"random"``
    thin bridges or ``"two_star"`` NBM-trap bridges (paper Figure 3).

    Mixing build-k values is how a dataset keeps UE/RME expansion traps
    alive at *every* evaluated k: traps anchored at build k are
    transparent below it and gone above it.
    """
    if not specs:
        raise ParameterError("need at least one CommunitySpec")
    for spec in specs:
        spec.validate()
    if bridge_style not in _BRIDGE_STYLES:
        raise ParameterError(
            f"bridge_style must be one of {_BRIDGE_STYLES}, "
            f"got {bridge_style!r}"
        )
    min_k = min(spec.k for spec in specs)
    if bridge_width >= min_k:
        raise ParameterError("bridge_width must stay below every spec's k")
    if bridge_style == "two_star" and min_k < 3:
        raise ParameterError("two_star bridges need k >= 3")
    rng = random.Random(seed)
    graph = Graph()
    cores: list[list[int]] = []
    offset = 0
    for spec in specs:
        core = _build_community(
            graph, offset, spec.size, spec.k, spec.style,
            spec.periphery_pairs, spec.mixed_chains,
            spec.extra_edge_prob, spec.clique_pockets, rng,
        )
        cores.append(core)
        offset += spec.size
    for idx in range(len(specs) - 1):
        if bridge_style == "random":
            _add_random_bridge(
                graph, cores[idx], cores[idx + 1], bridge_width, rng
            )
        else:
            # The trap is built at the smaller of the two build-k
            # values so it keeps firing at every evaluated k below it.
            pair_k = min(specs[idx].k, specs[idx + 1].k)
            _add_two_star_bridge(
                graph, cores[idx], cores[idx + 1], pair_k, rng
            )
    return graph


def community_graph(
    sizes: list[int],
    k: int,
    seed: int,
    style: str = "clique_ring",
    extra_edge_prob: float = 0.1,
    bridge_width: int = 1,
    bridge_style: str = "random",
    periphery_pairs: int = 0,
    mixed_chains: int = 0,
    clique_pockets: int = 0,
) -> Graph:
    """Planted k-VCC communities chained by sparse bridges.

    Uniform-k convenience wrapper over :func:`mixed_community_graph`:
    each entry of ``sizes`` becomes one community that is exactly one
    k-VCC; consecutive communities are joined by a bridge that never
    raises the cross connectivity to k, so the communities stay
    distinct k-VCCs.

    ``style``: ``"clique_ring"`` (triangle-rich, realistic, friendly to
    clique seeding and ring expansion) or ``"circulant"`` (minimal
    width, clique-poor — the adversarial regime where every local
    heuristic struggles). ``bridge_style``: ``"random"`` thin bridges or
    ``"two_star"`` NBM-trap bridges.
    """
    specs = [
        CommunitySpec(
            size=size,
            k=k,
            style=style,
            periphery_pairs=periphery_pairs,
            mixed_chains=mixed_chains,
            clique_pockets=clique_pockets,
            extra_edge_prob=extra_edge_prob,
        )
        for size in sizes
    ]
    return mixed_community_graph(
        specs, seed, bridge_width=bridge_width, bridge_style=bridge_style
    )


def planted_kvcc_graph(
    num_communities: int,
    community_size: int,
    k: int,
    seed: int,
    style: str = "clique_ring",
    extra_edge_prob: float = 0.15,
    bridge_width: int = 1,
    bridge_style: str = "random",
    periphery_pairs: int = 0,
    noise_vertices: int = 0,
) -> Graph:
    """Equal-size planted k-VCC communities plus optional low-degree noise.

    ``noise_vertices`` fringe vertices attach to < k vertices of a
    *single* random community each, so they are pruned by the k-core
    and belong to no k-VCC — they exercise the pruning and
    seeding-fallback paths without adding cross-community connectivity.
    """
    graph = community_graph(
        [community_size] * num_communities,
        k,
        seed,
        style=style,
        extra_edge_prob=extra_edge_prob,
        bridge_width=bridge_width,
        bridge_style=bridge_style,
        periphery_pairs=periphery_pairs,
    )
    rng = random.Random(seed + 1)
    base = num_communities * community_size
    for i in range(noise_vertices):
        fringe = base + i
        home = rng.randrange(num_communities)
        population = list(
            range(home * community_size, (home + 1) * community_size)
        )
        attachments = rng.randint(1, max(1, k - 1))
        for target in rng.sample(population, attachments):
            graph.add_edge(fringe, target)
    return graph


def overlapping_cliques_graph(
    num_cliques: int,
    clique_size: int,
    overlap: int,
    seed: int,
    noise_edges: int = 0,
) -> Graph:
    """A chain of cliques where consecutive cliques share ``overlap`` vertices.

    Models collaboration networks (ca-CondMat / ca-dblp style): papers
    are cliques of their authors, and prolific authors sit in many
    cliques. With ``overlap >= k`` adjacent cliques fuse into one
    k-VCC; with ``overlap < k`` they stay separate.
    """
    if overlap >= clique_size:
        raise ParameterError("overlap must be smaller than clique_size")
    rng = random.Random(seed)
    graph = Graph()
    stride = clique_size - overlap
    for c in range(num_cliques):
        offset = c * stride
        _merge_into(graph, clique_graph(clique_size, offset=offset))
    n = graph.num_vertices
    for _ in range(noise_edges):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            graph.add_edge(u, v)
    return graph


def powerlaw_cluster_graph(
    n: int, attach: int, triangle_prob: float, seed: int
) -> Graph:
    """Holme–Kim style scale-free graph with tunable clustering.

    Grows by preferential attachment of ``attach`` edges per new vertex;
    each attachment is followed with probability ``triangle_prob`` by a
    triad-closing edge. Produces heavy-tailed degrees with dense
    pockets, the cit-patent style regime.
    """
    if attach < 1 or n <= attach:
        raise ParameterError("need n > attach >= 1")
    rng = random.Random(seed)
    graph = clique_graph(attach + 1)
    # Repeated-endpoint list implements preferential attachment.
    repeated: list[int] = []
    for u in graph.vertices():
        repeated.extend([u] * graph.degree(u))
    for new in range(attach + 1, n):
        graph.add_vertex(new)
        targets: set[int] = set()
        while len(targets) < attach:
            candidate = rng.choice(repeated)
            if candidate == new or candidate in targets:
                continue
            targets.add(candidate)
            graph.add_edge(new, candidate)
            repeated.extend((new, candidate))
            if rng.random() < triangle_prob:
                closing = [
                    w
                    for w in graph.neighbors(candidate)
                    if w != new and not graph.has_edge(new, w)
                ]
                if closing:
                    w = rng.choice(closing)
                    graph.add_edge(new, w)
                    repeated.extend((new, w))
    return graph


def ue_trap_graph(k: int, tail: int, seed: int = 0) -> Graph:
    """A seed community plus a chain of mutually supporting vertex pairs.

    Reproduces Figure 2 of the paper at any scale: a k-vertex connected
    core is followed by ``tail`` pairs ``(a_i, b_i)`` where each vertex
    has only k-1 neighbours in the current component but the pair
    together has ≥ k — Unitary Expansion is stuck at the core while
    Multiple Expansion absorbs the whole chain. The true k-VCC is the
    entire graph.
    """
    if k < 3:
        raise ParameterError("the trap needs k >= 3")
    core_size = 2 * k
    graph = circulant_graph(core_size, (k + 1) // 2)
    rng = random.Random(seed)
    frontier = list(range(core_size))
    next_label = core_size
    for _ in range(tail):
        a, b = next_label, next_label + 1
        next_label += 2
        graph.add_edge(a, b)
        # Each of a, b gets k-1 anchors; disjoint anchor sets keep the
        # pair's k vertex-disjoint paths intact.
        anchors_a = rng.sample(frontier, k - 1)
        anchors_b = rng.sample(
            [w for w in frontier if w not in anchors_a], k - 1
        )
        for w in anchors_a:
            graph.add_edge(a, w)
        for w in anchors_b:
            graph.add_edge(b, w)
        frontier.extend((a, b))
    return graph


def nbm_trap_graph(k: int, seed: int = 0) -> Graph:
    """Two k-VCCs joined so Neighbor-Based Merging wrongly fuses them.

    Reproduces Figure 3: the two-star cross pattern puts ≥ k boundary
    neighbours on each side (NBM's count reaches k) while the actual
    cross connectivity is 2 (the two star centres form a cut). The
    communities are clique rings, so seeding and expansion recover each
    side — the merge decision is the only thing under test.
    """
    if k < 3:
        raise ParameterError("the trap needs k >= 3")
    size = 3 * k
    return community_graph(
        [size, size],
        k,
        seed,
        style="clique_ring",
        bridge_style="two_star",
    )
