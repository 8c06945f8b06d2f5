"""RIPPLE: bottom-up k-vertex connected component enumeration.

A from-scratch reproduction of "Bottom-up k-Vertex Connected Component
Enumeration by Multiple Expansion" (Liu, Wang, Xu, Li — ICDE 2024):
the RIPPLE pipeline (QkVCS seeding + Flow-Based Merging + Ring-based
Multiple Expansion), the exact Multiple Expansion it approximates, the
VCCE-TD and VCCE-BU baselines it is evaluated against, and every graph
and max-flow substrate they rest on.

Quickstart::

    from repro import Graph, ripple

    graph = Graph.from_edges([(0, 1), (1, 2), (0, 2), (0, 3), (1, 3),
                              (2, 3)])
    result = ripple(graph, k=3)
    print(result.summary())

See :mod:`repro.core` for the algorithms, :mod:`repro.graph` and
:mod:`repro.flow` for the substrates, :mod:`repro.datasets` for the
benchmark graphs, and :mod:`repro.bench` for the experiment harness.
"""

from repro._lazy import lazy_exports

#: Re-exported name → its module, imported on first access (repro._lazy).
_EXPORTS = {
    "ComponentReport": "repro.core",
    "PhaseTimer": "repro.core",
    "VCCResult": "repro.core",
    "bottom_up_pipeline": "repro.core",
    "kvcc_containing": "repro.core",
    "kvcc_hierarchy": "repro.core",
    "max_kvcc_level": "repro.core",
    "membership_levels": "repro.core",
    "ripple": "repro.core",
    "ripple_me": "repro.core",
    "vcce_bu": "repro.core",
    "vcce_hybrid": "repro.core",
    "vcce_td": "repro.core",
    "verify_component": "repro.core",
    "verify_result": "repro.core",
    "GraphError": "repro.errors",
    "GraphFormatError": "repro.errors",
    "ParameterError": "repro.errors",
    "ParseError": "repro.errors",
    "ReproError": "repro.errors",
    "global_vertex_connectivity": "repro.flow",
    "is_k_vertex_connected": "repro.flow",
    "Graph": "repro.graph",
    "read_edge_list": "repro.graph",
    "write_edge_list": "repro.graph",
    "accuracy_report": "repro.metrics",
    "f_same": "repro.metrics",
    "j_index": "repro.metrics",
    "ParallelConfig": "repro.parallel",
    "parallel_ripple": "repro.parallel",
    "Deadline": "repro.resilience",
    "FaultPlan": "repro.resilience",
    "SupervisionConfig": "repro.resilience",
    "KvccIndex": "repro.serving",
    "QueryEngine": "repro.serving",
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__version__ = "1.0.0"

__all__ = [
    "ComponentReport",
    "Deadline",
    "FaultPlan",
    "Graph",
    "GraphError",
    "GraphFormatError",
    "KvccIndex",
    "ParallelConfig",
    "ParameterError",
    "ParseError",
    "PhaseTimer",
    "QueryEngine",
    "ReproError",
    "SupervisionConfig",
    "VCCResult",
    "accuracy_report",
    "bottom_up_pipeline",
    "f_same",
    "global_vertex_connectivity",
    "is_k_vertex_connected",
    "j_index",
    "kvcc_containing",
    "kvcc_hierarchy",
    "max_kvcc_level",
    "membership_levels",
    "parallel_ripple",
    "read_edge_list",
    "ripple",
    "ripple_me",
    "vcce_bu",
    "vcce_hybrid",
    "vcce_td",
    "verify_component",
    "verify_result",
    "write_edge_list",
    "__version__",
]
