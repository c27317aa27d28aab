"""Graph isomorphism by joint colour refinement plus forward checking.

Both graphs are colour-refined in one shared palette, starting from the
sizes of the connected components, and each vertex of g starts with the
vertices of h in its colour class as candidates. The search
branches on the unplaced vertex with the fewest candidates; placing u at w
narrows every unplaced vertex to the neighbours of w if it is adjacent to u,
and to the other non-neighbours of w if not. An empty candidate set prunes
the branch. Any map found is re-verified by an independent checker.
"""

from __future__ import annotations

from .budget import SearchBudget, resolve_budget
from .graphs import Graph, connected_components, iter_bits, verify_homomorphism


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


def are_isomorphic(g: Graph, h: Graph, budget: SearchBudget | None = None):
    """A vertex bijection g -> h preserving adjacency both ways, or None
    after a completed search. Each search node ticks the budget; running
    out raises BudgetExhausted."""
    clock = resolve_budget(budget).start()
    n = g.order
    if n != h.order or g.edge_count != h.edge_count:
        return None
    cg, ch = _joint_refinement(g, h)
    if sorted(cg) != sorted(ch):
        return None

    full = (1 << n) - 1
    mapping = [-1] * n

    def branch_vertex(doms: dict[int, int]) -> int:
        # a search node: the unplaced vertex with the fewest candidates, or -1
        clock.tick()
        return min(doms, key=lambda x: (doms[x].bit_count(), x)) if doms else -1

    def search(doms: dict[int, int]) -> bool:
        # depth first on an explicit stack of (domains, branching vertex,
        # untried candidate bits), so depth is not bounded by the recursion limit
        u = branch_vertex(doms)
        if u < 0:
            return True
        stack = [(doms, u, doms[u])]
        while stack:
            doms, u, untried = stack.pop()
            while untried:
                low = untried & -untried
                untried ^= low
                w = low.bit_length() - 1
                # leaving w out of every other domain keeps the map injective
                near, far = h.adj[w], full & ~h.adj[w] & ~low
                child = {}
                for x, d in doms.items():
                    if x != u:
                        d &= near if g.adj[u] >> x & 1 else far
                        if not d:
                            break
                        child[x] = d
                else:
                    mapping[u] = w
                    nxt = branch_vertex(child)
                    if nxt < 0:
                        return True
                    if untried:
                        stack.append((doms, u, untried))
                    doms, u, untried = child, nxt, child[nxt]
        return False

    if not search({u: sum(1 << w for w in range(n) if ch[w] == cg[u]) for u in range(n)}):
        return None
    result = tuple(mapping)
    if not verify_isomorphism(g, h, result):
        raise RuntimeError("isomorphism search produced a map the checker rejects")
    return result
