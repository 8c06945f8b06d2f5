"""Anatomy of the paper's core idea: UE vs ME vs RME on Figure 2.

Rebuilds the paper's Figure 2 instance — a seed community surrounded by
pairs of vertices that each have only k-1 links into the seed but
support each other — and walks the three expansion strategies over it:

* Unitary Expansion (the VCCE-BU baseline) is stuck immediately;
* exact Multiple Expansion absorbs everything (and is provably maximal);
* Ring-based Multiple Expansion gets the same result via cheap clique
  checks instead of max-flow calls.

Run:  python examples/expansion_anatomy.py
"""

from repro import obs
from repro.core import multiple_expansion, ring_expansion, unitary_expansion
from repro.graph import clique_graph, ue_trap_graph


def figure2() -> tuple:
    """The exact Figure 2 instance of the paper (k = 3)."""
    g = clique_graph(5, offset=1)  # seed {1..5}
    edges = [
        (6, 1), (6, 2),      # v6: two anchors
        (7, 4), (7, 5),      # v7: two anchors
        (6, 7),              # …but they support each other
        (8, 6), (8, 2),      # second pair, reachable once {6,7} join
        (9, 7), (9, 3),
        (8, 9),
    ]
    for u, v in edges:
        g.add_edge(u, v)
    return g, {1, 2, 3, 4, 5}


def main() -> None:
    k = 3
    graph, seed = figure2()
    print(f"Figure 2 instance: seed {sorted(seed)} in a "
          f"{graph.num_vertices}-vertex graph, k={k}\n")

    ue = unitary_expansion(graph, k, seed)
    print(f"Unitary Expansion  : {sorted(ue)}"
          f"   (stalled — every candidate alone has < {k} anchors)")

    with obs.collecting() as counts:
        me = multiple_expansion(graph, k, seed, hops=None)
    print(f"Multiple Expansion : {sorted(me)}"
          f"   ({counts.counter('expansion.me.flow_tests')} max-flow calls)")

    with obs.collecting() as counts:
        rme = ring_expansion(graph, k, seed)
    print(f"Ring-based ME      : {sorted(rme)}"
          f"   ({counts.counter('expansion.rme.cliques_absorbed')} cliques"
          f" absorbed, zero max-flow calls)")

    # The same effect at scale: a long chain of mutually supporting
    # pairs. UE recovers none of the tail, RME recovers all of it.
    print("\n--- scaling the trap: a chain of 12 support pairs ---")
    chain = ue_trap_graph(k, tail=12, seed=1)
    core = set(range(2 * k))
    ue_tail = len(unitary_expansion(chain, k, core)) - len(core)
    rme_tail = len(ring_expansion(chain, k, core)) - len(core)
    print(f"tail vertices absorbed: UE {ue_tail}/24, RME {rme_tail}/24")


if __name__ == "__main__":
    main()
