"""Flow substrate: Dinic max-flow and vertex-connectivity queries."""

from repro.flow.connectivity import (
    connectivity_search,
    find_vertex_cut,
    global_vertex_connectivity,
    is_k_vertex_connected,
    is_k_vertex_connected_subset,
    is_side_vertex,
    local_connectivity,
    local_connectivity_at_least,
)
from repro.flow.dinic import Dinic
from repro.flow.even_tarjan import EvenTarjan
from repro.flow.network import VertexSplitNetwork
from repro.flow.paths import vertex_disjoint_paths

__all__ = [
    "Dinic",
    "EvenTarjan",
    "VertexSplitNetwork",
    "connectivity_search",
    "find_vertex_cut",
    "global_vertex_connectivity",
    "is_k_vertex_connected",
    "is_k_vertex_connected_subset",
    "is_side_vertex",
    "local_connectivity",
    "local_connectivity_at_least",
    "vertex_disjoint_paths",
]
