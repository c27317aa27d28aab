"""Graph isomorphism by invariant refinement plus backtracking.

Meant for the desk-scale instances this lab works with (tens of vertices).
Candidate sets are cut down by degree/distance profiles refined to a fixed
point; the search then extends a partial bijection vertex by vertex. Any
map found is re-verified by an independent checker before being returned.
"""

from __future__ import annotations

from .graphs import Graph, bfs_distances, iter_bits, verify_homomorphism


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


def _initial_invariants(g: Graph) -> list[tuple]:
    out = []
    for u in range(g.order):
        dist = bfs_distances(g, u)
        reachable = sorted(d for d in dist if d > 0)
        out.append((g.degree(u), tuple(reachable), dist.count(-1)))
    return out


def _joint_refinement(g: Graph, h: Graph) -> tuple[list[int], list[int]]:
    """Color-refine both graphs in a shared palette until stable."""
    values = _initial_invariants(g) + _initial_invariants(h)
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


def are_isomorphic(g: Graph, h: Graph):
    """A vertex bijection g -> h preserving adjacency both ways, or None."""
    n = g.order
    if n != h.order or g.edge_count != h.edge_count:
        return None
    cg, ch = _joint_refinement(g, h)
    if sorted(cg) != sorted(ch):
        return None

    cand = []
    for u in range(n):
        mask = 0
        for w in range(n):
            if ch[w] == cg[u]:
                mask |= 1 << w
        cand.append(mask)

    # place vertices adjacent to already-placed ones first, smallest
    # candidate set breaking ties, for early pruning
    order = []
    placed_adj = [0] * n
    remaining = set(range(n))
    while remaining:
        u = min(
            remaining,
            key=lambda x: (-placed_adj[x], cand[x].bit_count(), x),
        )
        order.append(u)
        remaining.remove(u)
        for w in iter_bits(g.adj[u]):
            placed_adj[w] += 1

    mapping = [-1] * n

    def dfs(pos: int, used: int) -> bool:
        if pos == n:
            return True
        u = order[pos]
        for w in iter_bits(cand[u] & ~used):
            ok = True
            for q in order[:pos]:
                if g.has_edge(u, q) != h.has_edge(w, mapping[q]):
                    ok = False
                    break
            if ok:
                mapping[u] = w
                if dfs(pos + 1, used | 1 << w):
                    return True
                mapping[u] = -1
        return False

    if not dfs(0, 0):
        return None
    result = tuple(mapping)
    if not verify_isomorphism(g, h, result):
        raise RuntimeError("isomorphism search produced a map the checker rejects")
    return result
