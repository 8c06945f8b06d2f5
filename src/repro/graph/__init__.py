"""Graph substrate: adjacency-set graphs and the algorithms on them.

Everything the k-VCC pipelines need from a graph library — traversal,
k-core peeling, BFS forests, maximal cliques, generators, and IO — is
implemented here from scratch for speed on CPython.
"""

from repro._lazy import lazy_exports

#: Re-exported name → its module, imported on first access (repro._lazy).
_EXPORTS = {
    "Graph": "repro.graph.adjacency",
    "maximal_cliques_at_least": "repro.graph.cliques",
    "CsrGraph": "repro.graph.csr",
    "k_bfs_forests": "repro.graph.forests",
    "k_bfs_seed_components": "repro.graph.forests",
    "sparse_certificate": "repro.graph.forests",
    "CommunitySpec": "repro.graph.generators",
    "attach_mixed_chains": "repro.graph.generators",
    "attach_support_pairs": "repro.graph.generators",
    "circulant_graph": "repro.graph.generators",
    "clique_graph": "repro.graph.generators",
    "community_graph": "repro.graph.generators",
    "mixed_community_graph": "repro.graph.generators",
    "nbm_trap_graph": "repro.graph.generators",
    "overlapping_cliques_graph": "repro.graph.generators",
    "planted_kvcc_graph": "repro.graph.generators",
    "powerlaw_cluster_graph": "repro.graph.generators",
    "random_gnm": "repro.graph.generators",
    "ue_trap_graph": "repro.graph.generators",
    "parse_edge_list": "repro.graph.io",
    "read_edge_list": "repro.graph.io",
    "write_edge_list": "repro.graph.io",
    "core_numbers": "repro.graph.kcore",
    "degeneracy_ordering": "repro.graph.kcore",
    "k_core": "repro.graph.kcore",
    "bfs_order": "repro.graph.traversal",
    "component_of": "repro.graph.traversal",
    "connected_components": "repro.graph.traversal",
    "is_connected": "repro.graph.traversal",
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "CommunitySpec",
    "CsrGraph",
    "Graph",
    "attach_mixed_chains",
    "attach_support_pairs",
    "bfs_order",
    "circulant_graph",
    "clique_graph",
    "community_graph",
    "component_of",
    "connected_components",
    "core_numbers",
    "degeneracy_ordering",
    "is_connected",
    "k_bfs_forests",
    "k_bfs_seed_components",
    "k_core",
    "maximal_cliques_at_least",
    "mixed_community_graph",
    "nbm_trap_graph",
    "overlapping_cliques_graph",
    "parse_edge_list",
    "planted_kvcc_graph",
    "powerlaw_cluster_graph",
    "random_gnm",
    "read_edge_list",
    "sparse_certificate",
    "ue_trap_graph",
    "write_edge_list",
]
