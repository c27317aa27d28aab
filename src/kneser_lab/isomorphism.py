"""Graph isomorphism by joint colour refinement plus forward checking.

Both graphs are colour-refined in one shared palette, starting from the
sizes of the connected components, and each vertex of g starts with the
vertices of h in its colour class as candidates. The search is
`homsolver._run_search` with forward checking. An empty candidate set prunes
the branch. Any map found is re-verified by an independent checker.
"""

from __future__ import annotations

from .budget import SearchBudget, resolve_budget
from .graphs import Graph, connected_components, iter_bits, verify_homomorphism
from .homsolver import _run_search


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


def _forward_checking(g: Graph, h: Graph):
    """The propagator for `_run_search`: a vertex u with the single candidate
    w keeps every other vertex among the neighbours of w if it is adjacent to
    u, else among the non-neighbours of w other than w, so the map stays
    injective."""
    full = (1 << g.order) - 1

    def enforce(doms: list[int], seeds) -> bool:
        queue = [u for u in seeds if doms[u].bit_count() == 1]
        while queue:
            u = queue.pop()
            adj, near = g.adj[u], h.adj[doms[u].bit_length() - 1]
            far = full & ~near & ~doms[u]
            for x, d in enumerate(doms):
                new = d & (near if adj >> x & 1 else far)
                if new != d and x != u:
                    if not new:
                        return False
                    doms[x] = new
                    if new & (new - 1) == 0:
                        queue.append(x)
        return True

    return enforce


def are_isomorphic(g: Graph, h: Graph, budget: SearchBudget | None = None):
    """A vertex bijection g -> h preserving adjacency both ways, or None
    after a completed search. The budget ticks at each branching step and
    each candidate tried; forced placements propagate without a tick. Running
    out raises BudgetExhausted."""
    clock = resolve_budget(budget).start()
    n = g.order
    if n != h.order or g.edge_count != h.edge_count:
        return None
    cg, ch = _joint_refinement(g, h)
    if sorted(cg) != sorted(ch):
        return None
    doms = [sum(1 << w for w in range(n) if ch[w] == cg[u]) for u in range(n)]
    result = _run_search(doms, _forward_checking(g, h), clock, None)
    if result is not None and not verify_isomorphism(g, h, result):
        raise RuntimeError("isomorphism search produced a map the checker rejects")
    return result
