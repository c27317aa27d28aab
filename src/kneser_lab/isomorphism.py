"""Graph isomorphism by joint colour refinement plus arc consistency.

Both graphs are colour-refined in one shared palette, starting from the
sizes of the connected components, and each vertex of g starts with the
vertices of h in its colour class as candidates. `homsolver._run_search`
searches them under arc consistency on the edges and on the non-edges. Any
map found is re-verified by an independent checker.
"""

from __future__ import annotations

from .budget import SearchBudget, resolve_budget
from .graphs import Graph, complement, connected_components, iter_bits, verify_homomorphism
from .homsolver import _arc_consistency, _run_search


def verify_isomorphism(g: Graph, h: Graph, mapping) -> bool:
    """Independent check: a bijection preserving edges and non-edges both ways.

    Between graphs with equally many edges, a bijection sending edges to
    edges hits every edge of h, so it also sends non-edges to non-edges.
    """
    return (
        g.order == h.order
        and g.edge_count == h.edge_count
        and verify_homomorphism(g, h, mapping)
        and len(set(mapping)) == g.order
    )


def _component_sizes(g: Graph) -> list[int]:
    """The size of each vertex's connected component."""
    size = [0] * g.order
    for comp in connected_components(g):
        for u in comp:
            size[u] = len(comp)
    return size


def _joint_refinement(g: Graph, h: Graph) -> tuple[list[int], list[int]]:
    """Color-refine both graphs in a shared palette until stable, starting
    from component sizes; refinement sorts out degrees on its own."""
    values = _component_sizes(g) + _component_sizes(h)
    palette = {v: i for i, v in enumerate(sorted(set(values)))}
    colors = [palette[v] for v in values]
    n = g.order
    while True:
        sig = []
        for u in range(n):
            nbr = tuple(sorted(colors[v] for v in iter_bits(g.adj[u])))
            sig.append((colors[u], nbr))
        for u in range(h.order):
            nbr = tuple(sorted(colors[n + v] for v in iter_bits(h.adj[u])))
            sig.append((colors[n + u], nbr))
        palette = {v: i for i, v in enumerate(sorted(set(sig)))}
        new = [palette[v] for v in sig]
        if new == colors:
            return colors[:n], colors[n:]
        colors = new


def _edges_and_non_edges(g: Graph, h: Graph):
    """The propagator for `_run_search`: arc consistency on g -> h and on
    complement(g) -> complement(h), each re-run from the vertices the other
    narrowed, to their joint (unique) fixpoint. Neither h nor its complement
    has a loop, so a map keeping both is injective."""
    propagators = (_arc_consistency(g, h), _arc_consistency(complement(g), complement(h)))

    def enforce(doms: list[int], seeds) -> bool:
        todo, i = [set(seeds), set(seeds)], 0  # narrowed since each last ran
        while todo[i]:
            before = doms.copy()
            if not propagators[i](doms, todo[i]):
                return False
            todo[i], i = set(), i ^ 1
            todo[i].update(u for u, d in enumerate(before) if d != doms[u])
        return True

    return enforce


def are_isomorphic(g: Graph, h: Graph, budget: SearchBudget | None = None):
    """A vertex bijection g -> h keeping edges and non-edges, or None after a
    completed search; every leaf of the search is one. The budget ticks at
    each branching step and each candidate tried; forced placements propagate
    without a tick. Running out raises BudgetExhausted."""
    clock = resolve_budget(budget).start()
    n = g.order
    if n != h.order or g.edge_count != h.edge_count:
        return None
    cg, ch = _joint_refinement(g, h)
    if sorted(cg) != sorted(ch):
        return None
    doms = [sum(1 << w for w in range(n) if ch[w] == cg[u]) for u in range(n)]
    result = _run_search(doms, _edges_and_non_edges(g, h), clock, None)
    if result is not None and not verify_isomorphism(g, h, result):
        raise RuntimeError("isomorphism search produced a map the checker rejects")
    return result
