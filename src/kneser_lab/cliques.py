"""Exact maximum clique and maximum independent set, with witnesses.

Branch and bound over bitset candidate sets with a greedy-coloring bound.
At the root, one vertex per orbit of the caller's `orbit_leaders` of g is
searched: a clique through sigma(v) maps under sigma^-1 to one through v, so
once v is done its whole orbit leaves the candidates. g and its complement
have the same automorphisms, so `independence_number` uses g's leaders.
Exhaustion raises BudgetExhausted rather than returning a wrong answer, and
every witness passes the map checker `graphs.verify_homomorphism`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .budget import BudgetClock, SearchBudget
from .dihedral import orbit_leaders
from .graphs import Graph, complement, complete_graph, verify_homomorphism


@dataclass(frozen=True)
class ExtremalSet:
    size: int
    vertices: tuple[int, ...]
    nodes: int


def _color_sort(pmask: int, nonadj, kmin: int) -> tuple[list[int], list[int]]:
    """Greedy color classes of the candidate set; returns vertices and bounds.

    nonadj[v] is every vertex but v and its neighbours, so a class sheds the
    neighbours of each vertex it takes with one AND.

    bounds[i] is the number of the color class of verts[i]; any clique
    inside verts[: i + 1] has at most bounds[i] vertices. Only the vertices of
    classes numbered kmin or more are listed: the others cannot be reached by
    a branch that must find a clique of kmin vertices among the candidates.
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
            if color >= kmin:
                verts.append(v)
                bounds.append(color)
            avail &= nonadj[v]
            rest ^= low
    return verts, bounds


def _max_clique(g: Graph, clock, leader) -> tuple[int, tuple[int, ...]]:
    """A maximum clique of g on `clock`, re-checked as a map from K_size;
    leader[v] is the least vertex of v's orbit under a group of automorphisms
    of g, as `orbit_leaders` gives it."""
    size, clique = _clique_search(g, clock, leader)
    if not verify_homomorphism(complete_graph(size), g, clique):
        raise RuntimeError("search produced a clique the independent checker rejects")
    return size, clique


def _clique_search(g: Graph, clock, leader) -> tuple[int, tuple[int, ...]]:
    n = g.order
    if n == 0:
        return 0, ()
    adj = g.adj
    full = (1 << n) - 1
    nonadj = [full & ~(row | 1 << v) for v, row in enumerate(adj)]
    orbit = [0] * n  # orbit[l]: the vertices led by l
    for u, l in enumerate(leader):
        orbit[l] |= 1 << u
    best_size = 0
    best: tuple[int, ...] = ()
    current: list[int] = []  # the clique being extended, of `size` vertices
    size = 0

    # depth first on an explicit stack of suspended frames: colour-sorted
    # candidates, their bounds, the next index and the candidates left
    clock.tick()
    avail = full
    verts, bounds = _color_sort(avail, nonadj, 1)
    i = n - 1
    stack = []
    while True:
        while i >= 0 and size + bounds[i] > best_size:
            v = verts[i]
            i -= 1
            if not avail >> v & 1:
                continue  # a root whose orbit is already searched
            pmask = avail & adj[v]
            avail &= ~(orbit[leader[v]] if size == 0 else 1 << v)
            clock.tick()
            if not pmask:
                if size >= best_size:
                    best_size = size + 1
                    best = (*current, v)
                continue
            stack.append((verts, bounds, i, avail))
            current.append(v)
            size += 1
            verts, bounds = _color_sort(pmask, nonadj, best_size - size + 1)
            i, avail = len(verts) - 1, pmask
        if not stack:
            break
        verts, bounds, i, avail = stack.pop()
        current.pop()
        size -= 1
    return best_size, tuple(sorted(best))


def clique_number(g: Graph, budget: SearchBudget | None = None) -> ExtremalSet:
    """Exact maximum clique size with one witness clique."""
    clock = BudgetClock(budget)
    size, witness = _max_clique(g, clock, orbit_leaders(g))
    return ExtremalSet(size, witness, clock.nodes)


def independence_number(g: Graph, budget: SearchBudget | None = None) -> ExtremalSet:
    """Exact maximum independent set size with one witness set."""
    clock = BudgetClock(budget)
    size, witness = _max_clique(complement(g), clock, orbit_leaders(g))
    return ExtremalSet(size, witness, clock.nodes)
