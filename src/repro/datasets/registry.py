"""Synthetic stand-ins for the paper's ten real-world benchmark graphs.

The paper's Table II graphs (SNAP / Network Repository, up to 59M
vertices) are unavailable offline and far beyond pure-Python scale, so
each dataset here is a seeded generator configuration that preserves
the *property the paper's evaluation uses that graph for* — see the
``mirrors`` / ``why`` fields and DESIGN.md §4. Sizes are chosen so the
exact VCCE-TD oracle finishes in seconds per run.

Every dataset fixes the three ``k`` values its accuracy rows use
(mirroring "the top three k values per dataset" of Table III) and a
``default_k`` for single-k experiments.
"""

from __future__ import annotations

import gzip
import random

from collections.abc import Hashable, Iterable, Iterator
from dataclasses import dataclass
from typing import Callable

from repro.errors import GraphFormatError, ParameterError
from repro.graph.adjacency import Graph
from repro.graph.csr import CsrGraph
from repro.graph.generators import (
    CommunitySpec,
    attach_mixed_chains,
    attach_support_pairs,
    community_graph,
    mixed_community_graph,
    planted_kvcc_graph,
    powerlaw_cluster_graph,
)
from repro.graph.io import coerce_label, not_utf8_error
from repro.graph.kcore import k_core

__all__ = [
    "Dataset",
    "DATASETS",
    "get_dataset",
    "dataset_names",
    "load_snap_edge_list",
    "load_snap_graph",
    "stream_snap_edges",
]


@dataclass(frozen=True)
class Dataset:
    """One benchmark dataset: a named, seeded generator configuration."""

    name: str
    mirrors: str
    why: str
    build: Callable[[], Graph]
    ks: tuple[int, ...]
    default_k: int

    def graph(self) -> Graph:
        """Build the graph (deterministic; call freely)."""
        return self.build()


def _condmat() -> Graph:
    # Collaboration network: communities of varied density (build-k 3–5)
    # so the expansion traps stay live at every evaluated k.
    specs = [
        CommunitySpec(size=26, k=3, periphery_pairs=1),
        CommunitySpec(size=42, k=4, periphery_pairs=1, mixed_chains=1),
        CommunitySpec(size=58, k=5, periphery_pairs=1),
        CommunitySpec(size=28, k=3, mixed_chains=1),
        CommunitySpec(size=60, k=5, periphery_pairs=2),
        CommunitySpec(size=40, k=4, periphery_pairs=1, mixed_chains=1),
        CommunitySpec(size=42, k=4, periphery_pairs=1),
    ]
    return mixed_community_graph(specs, seed=11, bridge_width=2)


def _uk2005() -> Graph:
    # Few very dense web communities; cliques dominate seeding.
    return community_graph(
        [60, 50, 55], k=8, seed=23, extra_edge_prob=0.5, bridge_width=3
    )


def _arabic2005() -> Graph:
    # Dense web cores with light periphery: the high-accuracy regime.
    return planted_kvcc_graph(
        4, 45, 5, seed=31, periphery_pairs=1, bridge_width=2,
        noise_vertices=20,
    )


def _shipsec() -> Graph:
    # Mesh-like communities stitched by two-star bridges: the NBM trap
    # dataset where VCCE-BU's J_Index collapses.
    return community_graph(
        [45, 45, 45, 45], k=5, seed=41, bridge_style="two_star",
        periphery_pairs=2, mixed_chains=1,
    )


def _citeseer() -> Graph:
    # Many mid-size communities of varied density, moderate periphery.
    specs = [
        CommunitySpec(size=40, k=4, periphery_pairs=1, mixed_chains=1),
        CommunitySpec(size=56, k=5, periphery_pairs=1),
        CommunitySpec(size=26, k=3, periphery_pairs=1),
        CommunitySpec(size=58, k=5, mixed_chains=1),
        CommunitySpec(size=40, k=4, periphery_pairs=1),
        CommunitySpec(size=26, k=3, mixed_chains=1),
    ]
    return mixed_community_graph(specs, seed=53, bridge_width=2)


def _dblp() -> Graph:
    # Larger collaboration structure with heavy periphery and mixed
    # chains at varied build-k: the accuracy-gap regime of Tables IV/V.
    specs = [
        CommunitySpec(size=36, k=3, periphery_pairs=3, mixed_chains=2),
        CommunitySpec(size=52, k=4, periphery_pairs=3, mixed_chains=2),
        CommunitySpec(size=66, k=5, periphery_pairs=3, mixed_chains=2),
        CommunitySpec(size=50, k=4, periphery_pairs=2, mixed_chains=2),
        CommunitySpec(size=64, k=5, periphery_pairs=3, mixed_chains=1),
    ]
    return mixed_community_graph(specs, seed=61, bridge_width=2)


def _mathscinet() -> Graph:
    # Sparse collaboration graph: clique-poor circulant communities
    # with a few dense pockets — seeding finds only the pockets and
    # every heuristic leaves most of the ring uncovered.
    return community_graph(
        [150, 140, 145], k=4, seed=71, style="circulant",
        clique_pockets=30, extra_edge_prob=0.1, bridge_width=2,
    )


def _it2004() -> Graph:
    # Dense web graph: near-perfect accuracy for both heuristics.
    return community_graph(
        [70, 64], k=7, seed=83, extra_edge_prob=0.4, bridge_width=2
    )


def _citpatent() -> Graph:
    # Heavy-tailed citation-style graph with dense pockets, decorated
    # with support pairs and mixed chains anchored in the dense core:
    # accuracy decreases with k as expansions miss more of them.
    graph = powerlaw_cluster_graph(430, attach=3, triangle_prob=0.85, seed=97)
    for build_k, seed in ((3, 1), (4, 2), (5, 3)):
        # Anchor the traps in the densest part of the giant component:
        # the deepest core that still has enough room for disjoint
        # anchor sets.
        level = 2 * build_k
        targets: list = []
        while level > build_k and len(targets) < 6 * build_k:
            targets = sorted(k_core(graph, level).vertex_set())
            level -= 1
        attach_support_pairs(graph, targets, 3, build_k, seed=seed)
        attach_mixed_chains(graph, targets, 2, build_k, seed=seed + 10)
    return graph


def _socfb() -> Graph:
    # One giant community plus a large sparse fringe and a trap bridge
    # to a second community: the socfb-konect regime.
    core = community_graph(
        [80, 40], k=4, seed=103, bridge_style="two_star",
        periphery_pairs=3,
    )
    # Attach low-degree tendrils to the giant community directly.
    rng = random.Random(107)
    next_label = core.num_vertices
    for _ in range(120):
        chain = rng.randint(1, 3)
        prev = rng.randrange(80)
        for _ in range(chain):
            core.add_edge(prev, next_label)
            prev = next_label
            next_label += 1
    return core


DATASETS: dict[str, Dataset] = {
    dataset.name: dataset
    for dataset in (
        Dataset(
            name="ca-condmat",
            mirrors="ca-CondMat",
            why="overlapping author cliques, moderate k_max",
            build=_condmat,
            ks=(3, 4, 5),
            default_k=4,
        ),
        Dataset(
            name="uk-2005",
            mirrors="uk-2005",
            why="very dense communities; BK-MCQ covers ~100% of seeds",
            build=_uk2005,
            ks=(6, 7, 8),
            default_k=7,
        ),
        Dataset(
            name="arabic-2005",
            mirrors="arabic-2005",
            why="dense cores + light periphery; high-accuracy regime",
            build=_arabic2005,
            ks=(3, 4, 5),
            default_k=4,
        ),
        Dataset(
            name="sc-shipsec",
            mirrors="sc-shipsec",
            why="two-star bridges: NBM over-merges, J_Index collapses",
            build=_shipsec,
            ks=(3, 4, 5),
            default_k=4,
        ),
        Dataset(
            name="ca-citeseer",
            mirrors="ca-citeseer",
            why="many mid-size k-VCCs",
            build=_citeseer,
            ks=(3, 4, 5),
            default_k=4,
        ),
        Dataset(
            name="ca-dblp",
            mirrors="ca-dblp",
            why="heavy periphery: the Table IV/V accuracy-gap regime",
            build=_dblp,
            ks=(3, 4, 5),
            default_k=4,
        ),
        Dataset(
            name="ca-mathscinet",
            mirrors="ca-MathSciNet",
            why="clique-poor sparse communities; seeding-dominated time",
            build=_mathscinet,
            ks=(3, 4),
            default_k=4,
        ),
        Dataset(
            name="it-2004",
            mirrors="it-2004",
            why="dense web communities; ~100% accuracy for all methods",
            build=_it2004,
            ks=(5, 6, 7),
            default_k=6,
        ),
        Dataset(
            name="cit-patent",
            mirrors="cit-patent",
            why="heavy-tailed degrees; accuracy decreases with k",
            build=_citpatent,
            ks=(3, 4, 5),
            default_k=4,
        ),
        Dataset(
            name="socfb-konect",
            mirrors="socfb-konect",
            why="giant k-VCC + sparse fringe + trap bridge",
            build=_socfb,
            ks=(3, 4),
            default_k=4,
        ),
    )
}


# ---------------------------------------------------------------------------
# Streaming SNAP loader
# ---------------------------------------------------------------------------
#
# The paper's real graphs ship as SNAP-style edge lists: ``# comment``
# header blocks, one whitespace-separated vertex pair per line, often
# with self-loops and duplicate edges left in. The loaders below stream
# such a file straight into a :class:`CsrGraph` — no intermediate dict
# graph, no per-edge adjacency sets — so the peak transient state is the
# deduplicated pair list that the CSR builder keeps anyway.


def stream_snap_edges(
    lines: Iterable[str], source: str | None = None
) -> Iterator[tuple[Hashable, Hashable]]:
    """Yield raw vertex pairs from SNAP-style edge-list lines.

    Blank lines and ``#`` / ``%`` comment lines are skipped. Self-loops
    and duplicate edges are *not* filtered here —
    :meth:`CsrGraph.from_edge_stream` drops them while counting what it
    dropped, so the observability counters reflect the raw file. Extra
    columns (timestamps, weights) are ignored. A line with fewer than
    two tokens raises :class:`~repro.errors.GraphFormatError` with its
    1-based line number.
    """
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith(("#", "%")):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise GraphFormatError(
                f"expected a vertex pair, got {line!r}",
                source=source,
                lineno=lineno,
            )
        yield coerce_label(parts[0]), coerce_label(parts[1])


def load_snap_edge_list(path: str) -> CsrGraph:
    """Stream a SNAP-style edge-list file into a :class:`CsrGraph`.

    ``.gz`` paths are decompressed on the fly. The file is read exactly
    once; see :func:`stream_snap_edges` for the tolerated format.
    Content that is not UTF-8 text, or a truncated gzip stream, raises
    :class:`~repro.errors.GraphFormatError` naming the file.
    """
    opener = gzip.open if str(path).endswith(".gz") else open
    try:
        with opener(path, "rt", encoding="utf-8") as handle:
            return CsrGraph.from_edge_stream(
                stream_snap_edges(handle, source=str(path))
            )
    except UnicodeDecodeError as exc:
        raise not_utf8_error(path, exc, opener) from None
    except EOFError as exc:
        raise GraphFormatError(
            f"truncated gzip stream ({exc})", source=str(path)
        ) from None


def load_snap_graph(path: str) -> Graph:
    """SNAP file → adjacency :class:`Graph`, streamed through
    :class:`CsrGraph` (the input path of ``ripple enumerate --format
    snap``).
    """
    return load_snap_edge_list(path).to_graph()


def dataset_names() -> list[str]:
    """All registered dataset names, registry order."""
    return list(DATASETS)


def get_dataset(name: str) -> Dataset:
    """Look up a dataset by name (raises with the valid choices)."""
    try:
        return DATASETS[name]
    except KeyError:
        raise ParameterError(
            f"unknown dataset {name!r}; choose from {dataset_names()}"
        ) from None
