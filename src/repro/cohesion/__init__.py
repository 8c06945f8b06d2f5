"""Related cohesive-subgraph models the paper positions k-VCCs against.

The introduction's cohesion ladder: k-core (degree) < k-truss
(triangles) < k-ECC (edge connectivity) < k-VCC (vertex connectivity).
k-core lives in :mod:`repro.graph.kcore`; this package adds the other
two comparators.
"""

from repro.cohesion.kecc import find_edge_cut, k_edge_components
from repro.cohesion.ktruss import k_truss

__all__ = ["find_edge_cut", "k_edge_components", "k_truss"]
