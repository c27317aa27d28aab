"""Exact maximum clique and maximum independent set, with witnesses.

Branch and bound over bitset candidate sets with a greedy-coloring bound.
Exhaustion raises BudgetExhausted rather than returning a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .budget import SearchBudget, resolve_budget
from .graphs import Graph, complement, complete_graph, verify_homomorphism


@dataclass(frozen=True)
class ExtremalSet:
    size: int
    vertices: tuple[int, ...]
    nodes: int


def _color_sort(pmask: int, adj) -> tuple[list[int], list[int]]:
    """Greedy color classes of the candidate set; returns vertices and bounds.

    bounds[i] is the number of the color class of verts[i]; any clique
    inside verts[: i + 1] has at most bounds[i] vertices.
    """
    verts: list[int] = []
    bounds: list[int] = []
    rest = pmask
    color = 0
    while rest:
        color += 1
        avail = rest
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            verts.append(v)
            bounds.append(color)
            avail &= ~adj[v]
            avail ^= low
            rest ^= low
    return verts, bounds


def _max_clique(g: Graph, clock) -> tuple[int, tuple[int, ...]]:
    n = g.order
    if n == 0:
        return 0, ()
    adj = g.adj
    best_size = 0
    best: tuple[int, ...] = ()
    current: list[int] = []

    def expand(pmask: int) -> None:
        nonlocal best_size, best
        clock.tick()
        if not pmask:
            if len(current) > best_size:
                best_size = len(current)
                best = tuple(current)
            return
        verts, bounds = _color_sort(pmask, adj)
        avail = pmask
        for i in range(len(verts) - 1, -1, -1):
            if len(current) + bounds[i] <= best_size:
                return
            v = verts[i]
            current.append(v)
            expand(avail & adj[v])
            current.pop()
            avail &= ~(1 << v)

    expand((1 << n) - 1)
    return best_size, tuple(sorted(best))


def clique_number(g: Graph, budget: SearchBudget | None = None) -> ExtremalSet:
    """Exact maximum clique size with one witness clique."""
    clock = resolve_budget(budget).start()
    size, witness = _max_clique(g, clock)
    return ExtremalSet(size, witness, clock.nodes)


def independence_number(g: Graph, budget: SearchBudget | None = None) -> ExtremalSet:
    """Exact maximum independent set size with one witness set."""
    clock = resolve_budget(budget).start()
    size, witness = _max_clique(complement(g), clock)
    return ExtremalSet(size, witness, clock.nodes)


def is_clique(g: Graph, vertices) -> bool:
    """Distinct vertices of g, pairwise adjacent: a homomorphism from K_m."""
    vs = tuple(vertices)
    return verify_homomorphism(complete_graph(len(vs)), g, vs)


def is_independent_set(g: Graph, vertices) -> bool:
    return is_clique(complement(g), vertices)
