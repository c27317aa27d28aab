"""Graph isomorphism: colour refinement of g + h, then arc consistency.

`_refine` colour-refines one graph from colours its caller chooses; g + h,
refined from component sizes, gives both graphs colours in one palette.
Each vertex of g starts with the vertices of h in its colour class as
candidates, and `homsolver._run_search` searches them under arc consistency
on the edges and on the non-edges. Any map found is re-verified by an
independent checker.
"""

from __future__ import annotations

from .budget import BudgetClock, SearchBudget
from .graphs import Graph, complement, connected_components, disjoint_union, verify_isomorphism
from .homsolver import _arc_consistency, _neighbour_lists, _run_search


def _ranks(values) -> list[int]:
    """Each value's rank among the distinct values."""
    palette = {v: i for i, v in enumerate(sorted(set(values)))}
    return [palette[v] for v in values]


def _refine(g: Graph, colors) -> list[int]:
    """Colour-refine g from `colors` until the partition is stable: each round
    ranks every vertex's (colour, sorted colours of its neighbours)."""
    nbrs = _neighbour_lists(g)
    colors = _ranks(colors)
    while True:
        new = _ranks([(c, tuple(sorted(colors[v] for v in nbr))) for c, nbr in zip(colors, nbrs)])
        if new == colors:
            return colors
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
    completed search; every leaf of the search is one. The components of g + h
    are those of g and of h, so its refinement from component sizes colours
    both in one palette. The budget ticks at each branching step and each
    candidate tried; forced placements propagate without a tick. Running out
    raises BudgetExhausted."""
    clock = BudgetClock(budget)
    n = g.order
    if n != h.order or g.edge_count != h.edge_count:
        return None
    union = disjoint_union(g, h)
    sizes = {u: len(comp) for comp in connected_components(union) for u in comp}
    colors = _refine(union, [sizes[u] for u in range(2 * n)])
    if sorted(colors[:n]) != sorted(colors[n:]):
        return None
    classes = dict.fromkeys(colors[n:], 0)  # colour -> bitset of h's vertices in it
    for w, c in enumerate(colors[n:]):
        classes[c] |= 1 << w
    doms = [classes[c] for c in colors[:n]]
    result = _run_search(doms, _edges_and_non_edges(g, h), clock, None)
    if result is not None and not verify_isomorphism(g, h, result):
        raise RuntimeError("isomorphism search produced a map the checker rejects")
    return result
