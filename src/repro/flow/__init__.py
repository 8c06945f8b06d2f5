"""Flow substrate: Dinic max-flow and vertex-connectivity queries."""

from repro.flow.connectivity import (
    connectivity_search,
    find_vertex_cut,
    global_vertex_connectivity,
    is_k_vertex_connected,
)
from repro.flow.dinic import Dinic
from repro.flow.network import VertexSplitNetwork
from repro.flow.paths import vertex_disjoint_paths

__all__ = [
    "Dinic",
    "VertexSplitNetwork",
    "connectivity_search",
    "find_vertex_cut",
    "global_vertex_connectivity",
    "is_k_vertex_connected",
    "vertex_disjoint_paths",
]
