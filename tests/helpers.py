"""Independent oracles used to cross-check the solvers, and fixture graphs.

Everything here is deliberately written along different lines than the
package code: plain recursion without propagation, direct subset sweeps,
pairwise distances instead of gap arithmetic. A disagreement means a bug.
The exceptions are `reference_dsatur`, the max-scan colouring search that
the incremental kernel in `coloring` must reproduce node for node,
`reference_joint_refinement`, the two-graph colour refinement whose colours
`isomorphism._refine` on the disjoint union must reproduce,
`reference_components`, the vertex-by-vertex walk whose components
`graphs.connected_components` must list in the same order,
`label_automorphism`, which turns one element's label action into a vertex
permutation by looking each fresh image label up among g's labels: the
reference for the permutations `dihedral.label_orbits` reads off its keys,
`reference_chromatic`, the chromatic search with an untimed greedy
upper bound, whose answers `coloring.chromatic_number` must reproduce, and
`reference_is_core`, the core test that searches every endomorphism under
the stabiliser of the banned vertex, whose statuses `homsolver.is_core`
must reproduce.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from itertools import combinations, permutations

from kneser_lab.budget import BudgetClock
from kneser_lab.cliques import _max_clique
from kneser_lab.coloring import ColoringResult, _colorable
from kneser_lab.dihedral import (
    DihedralElement,
    act_on_vertex,
    all_elements,
    compose,
    label_orbits,
    orbit_leaders,
)
from kneser_lab.graphs import Graph, iter_bits, make_graph, verify_homomorphism
from kneser_lab.homsolver import Outcome, _arc_consistency, _solve, _symmetry
from kneser_lab.labels import CyclicElem, KSubset


def empty_graph(n: int) -> Graph:
    return make_graph(n, ())


def path_graph(n: int) -> Graph:
    return make_graph(n, [(u, u + 1) for u in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    """The unlabelled n-cycle, from its edge list rather than `cycle_power`."""
    return make_graph(n, [(u, (u + 1) % n) for u in range(n)])


def audit_graph(g: Graph) -> bool:
    """Structural audit: symmetric, loop-free rows inside range, distinct labels."""
    rows_ok = all(
        not g.adj[u] >> u & 1
        and not g.adj[u] >> g.order
        and all(g.adj[v] >> u & 1 for v in iter_bits(g.adj[u]))
        for u in range(g.order)
    )
    labels_ok = g.labels is None or len(set(g.labels)) == g.order
    return len(g.adj) == g.order and rows_ok and labels_ok


def strip_labels(g: Graph) -> Graph:
    """A copy of g without labels: it declares no symmetry, so every solver
    runs its plain, unreduced search on it."""
    return Graph(g.order, g.adj, None)


def declared_elements(g: Graph) -> list[DihedralElement]:
    """The elements g's labels declare: rotations for residues, else all 2n."""
    first = g.labels[0]
    if isinstance(first, CyclicElem):
        n = first.modulus
        return all_elements(n)[:n] if n >= 3 else [DihedralElement(1, i, n) for i in range(n)]
    return all_elements(first.ambient if isinstance(first, KSubset) else first.n)


def label_action(e: DihedralElement, label):
    """The element e acting on one vertex label of any of the three kinds,
    built as a fresh label: the oracle for `label_orbits`, which looks each
    image up among the graph's own labels instead."""
    if isinstance(label, CyclicElem):
        return CyclicElem((label.value + e.offset) % label.modulus, label.modulus)
    if isinstance(label, KSubset):
        return act_on_vertex(e, label)
    return compose(e, label)


def label_automorphism(g: Graph, act) -> tuple[int, ...] | None:
    """The automorphism of g sending the vertex labelled x to the one labelled act(x),
    or None when g has no labels, some act(x) is not a label of g or the map
    is not one. A bijective edge-preserving self-map of a finite graph is an
    automorphism.
    """
    if g.labels is None:
        return None
    index = g.label_index()
    try:
        perm = tuple(index[act(label)] for label in g.labels)
    except KeyError:
        return None
    if len(set(perm)) == g.order and verify_homomorphism(g, g, perm):
        return perm
    return None


def declared_perms(g: Graph) -> dict[DihedralElement, tuple[int, ...] | None]:
    """The vertex permutation of every declared element, each built from that
    element's own label action by `label_automorphism` and never from r1 and
    p1; None where the action is no automorphism."""
    return {e: label_automorphism(g, partial(label_action, e)) for e in declared_elements(g)}


def is_clique(g: Graph, vertices) -> bool:
    vs = list(vertices)
    return len(set(vs)) == len(vs) and all(g.has_edge(u, v) for u, v in combinations(vs, 2))


def is_independent_set(g: Graph, vertices) -> bool:
    vs = list(vertices)
    return len(set(vs)) == len(vs) and not any(g.has_edge(u, v) for u, v in combinations(vs, 2))


def brute_homomorphism_exists(g: Graph, h: Graph) -> bool:
    """Naive backtracking in vertex order, no ordering heuristics, no pruning
    beyond checking edges into the already-assigned prefix."""
    n = g.order
    assign = [-1] * n

    def extend(u: int) -> bool:
        if u == n:
            return True
        for w in range(h.order):
            ok = True
            for v in range(u):
                if g.has_edge(u, v) and not h.has_edge(w, assign[v]):
                    ok = False
                    break
            if ok:
                assign[u] = w
                if extend(u + 1):
                    return True
                assign[u] = -1
        return False

    if n == 0:
        return True
    return extend(0)


def reference_arc_consistency(g: Graph, h: Graph, doms) -> list[set[int]] | None:
    """The largest arc-consistent domains inside `doms`, one set of target
    vertices per vertex of g, or None once any of them is empty. A value a of
    u survives while every neighbour of u keeps some value adjacent to a;
    every edge of g is swept in both directions until a pass changes nothing."""
    doms = [set(d) for d in doms]
    changed = True
    while changed:
        if not all(doms):
            return None
        changed = False
        for u, v in g.edges():
            for x, y in ((u, v), (v, u)):
                keep = {a for a in doms[x] if any(h.has_edge(a, b) for b in doms[y])}
                if keep != doms[x]:
                    doms[x] = keep
                    changed = True
    return doms


def brute_retraction_exists(g: Graph, keep) -> bool:
    """Does g map onto its subgraph induced by `keep`, fixing every kept vertex?
    Naive backtracking over the other vertices in index order, checking edges
    into the already-assigned vertices."""
    kept = sorted(set(keep))
    assign = {v: v for v in kept}
    free = [u for u in range(g.order) if u not in assign]

    def extend(i: int) -> bool:
        if i == len(free):
            return True
        u = free[i]
        for w in kept:
            if all(g.has_edge(w, assign[x]) for x in assign if g.has_edge(u, x)):
                assign[u] = w
                if extend(i + 1):
                    return True
                del assign[u]
        return False

    return extend(0)


def reference_is_core(g: Graph) -> Outcome:
    """The core test over all endomorphisms: for the least vertex v of each
    verified orbit, a homomorphism search g -> g with v banned, breaking the
    value symmetry of v's stabiliser at every node, all on one clock."""
    clock = BudgetClock(None)
    full = (1 << g.order) - 1
    enforce = _arc_consistency(g, g)
    leader, fixing, *_ = label_orbits(g) or (range(g.order), lambda v: ())
    for v, lead in enumerate(leader):
        if lead < v:
            continue
        sym = _symmetry(fixing(v), range(g.order))
        outcome = _solve(g, g, [full & ~(1 << v)] * g.order, enforce, clock, sym)
        if outcome.status != "none":
            return replace(outcome, status="not-core" if outcome.found else "exhausted")
    return Outcome("core", None, clock.nodes, clock.elapsed())


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    """Try every vertex permutation, comparing all vertex pairs."""
    if g.order != h.order:
        return False
    pairs = list(combinations(range(g.order), 2))
    return any(
        all(g.has_edge(u, v) == h.has_edge(perm[u], perm[v]) for u, v in pairs)
        for perm in permutations(range(g.order))
    )


def reference_is_homomorphism(g: Graph, h: Graph, mapping) -> bool:
    """Edge by edge: every edge u ~ v of g lands on an edge of h. The mapping
    must be a well-formed list of target vertices, one per vertex of g."""
    return all(h.has_edge(mapping[u], mapping[v]) for u, v in g.edges())


def reference_components(g: Graph) -> list[list[int]]:
    """Connected components by a depth-first walk over each vertex's
    neighbours, in order of least vertex, each sorted."""
    seen = [False] * g.order
    comps = []
    for u in range(g.order):
        if seen[u]:
            continue
        comp = []
        stack = [u]
        seen[u] = True
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in iter_bits(g.adj[x]):
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
        comps.append(sorted(comp))
    return comps


def reference_joint_refinement(g: Graph, h: Graph) -> tuple[list[int], list[int]]:
    """Colour-refine g and h side by side in one shared palette until stable,
    starting from the size of each vertex's connected component."""

    def component_sizes(g: Graph) -> list[int]:
        size = [0] * g.order
        for comp in reference_components(g):
            for u in comp:
                size[u] = len(comp)
        return size

    values = component_sizes(g) + component_sizes(h)
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


def brute_independence_number(g: Graph) -> int:
    """Largest independent set by sweeping subset sizes from the top."""
    for size in range(g.order, 0, -1):
        for sub in combinations(range(g.order), size):
            if all(not g.has_edge(u, v) for i, u in enumerate(sub) for v in sub[i + 1 :]):
                return size
    return 0


def brute_clique_number(g: Graph) -> int:
    for size in range(g.order, 0, -1):
        for sub in combinations(range(g.order), size):
            if all(g.has_edge(u, v) for i, u in enumerate(sub) for v in sub[i + 1 :]):
                return size
    return 0


def brute_chromatic_number(g: Graph) -> int:
    """Smallest k admitting a proper coloring, tried by exhaustive assignment."""

    def colorable(k: int) -> bool:
        colors = [-1] * g.order

        def go(u: int) -> bool:
            if u == g.order:
                return True
            for c in range(k):
                if all(not (g.has_edge(u, v) and colors[v] == c) for v in range(u)):
                    colors[u] = c
                    if go(u + 1):
                        return True
                    colors[u] = -1
            return False

        return go(0)

    if g.order == 0:
        return 0
    k = 1
    while not colorable(k):
        k += 1
    return k


def reference_dsatur(g: Graph, k: int | None = None, clock: BudgetClock | None = None):
    """DSATUR with a full max(...) saturation scan at every node.

    With k None, the greedy colouring as (colours used, colouring). Otherwise
    a proper k-colouring or None after exhaustive search, ticking `clock` once
    per node. Same branching vertex, colour order and fresh-colour cap as
    `coloring._dsatur`, so colourings and node counts must agree exactly.
    """
    if k is None:
        return _reference_greedy(g)
    return _reference_decide(g, k, clock)


def _reference_greedy(g: Graph) -> tuple[int, tuple[int, ...]]:
    n = g.order
    colors = [-1] * n
    forbidden = [0] * n  # bitmask of colors seen on neighbors
    used = 0
    for _ in range(n):
        u = max(
            (v for v in range(n) if colors[v] < 0),
            key=lambda v: (forbidden[v].bit_count(), g.degree(v), -v),
        )
        c = 0
        while forbidden[u] >> c & 1:
            c += 1
        colors[u] = c
        used = max(used, c + 1)
        for w in iter_bits(g.adj[u]):
            forbidden[w] |= 1 << c
    return used, tuple(colors)


def _reference_decide(g: Graph, k: int, clock: BudgetClock):
    """A proper k-coloring of g, or None after exhaustive search."""
    n = g.order
    if n == 0:
        return ()
    if k <= 0:
        return None
    colors = [-1] * n
    forbidden = [0] * n

    def dfs(assigned: int, used: int) -> bool:
        clock.tick()
        if assigned == n:
            return True
        u = max(
            (v for v in range(n) if colors[v] < 0),
            key=lambda v: (forbidden[v].bit_count(), g.degree(v), -v),
        )
        # new colors enter in index order, so cap at one fresh color
        for c in range(min(used + 1, k)):
            if forbidden[u] >> c & 1:
                continue
            colors[u] = c
            touched = []
            for w in iter_bits(g.adj[u]):
                touched.append((w, forbidden[w]))
                forbidden[w] |= 1 << c
            if dfs(assigned + 1, max(used, c + 1)):
                return True
            for w, old in touched:
                forbidden[w] = old
            colors[u] = -1
        return False

    return tuple(colors) if dfs(0, 0) else None


def reference_chromatic(g: Graph) -> tuple[ColoringResult, int]:
    """The chromatic search with an untimed greedy pre-pass, as the result and
    the number of colours greedy used. Greedy is the first descent of DSATUR
    with every colour allowed; only k from the clique bound up to below its
    count are then decided, on the clock, so its nodes are never counted."""
    clock = BudgetClock(None)
    lower, clique = _max_clique(g, clock, orbit_leaders(g))
    coloring = _colorable(g, g.order, lambda: None)
    greedy = chi = max(coloring, default=-1) + 1
    for k in range(lower, chi):
        attempt = _colorable(g, k, clock.tick)
        if attempt is not None:
            chi, coloring = k, attempt
            break
    return ColoringResult(chi, coloring, clique, clock.nodes, clock.elapsed()), greedy


def is_stable_pairwise(elements, n: int, s: int) -> bool:
    """The definition of s-stability: every pair of elements of [n] lies at
    circular distance >= s on the n-cycle."""
    return all(min((a - b) % n, (b - a) % n) >= s for a, b in combinations(elements, 2))


def stable_subsets_pairwise(n: int, k: int, s: int) -> set[tuple[int, ...]]:
    """s-stable k-subsets of [n] selected by the pairwise definition."""
    return {els for els in combinations(range(1, n + 1), k) if is_stable_pairwise(els, n, s)}


def disjoint_neighbours(subsets) -> list[set[int]]:
    """Adjacency of the disjointness graph on a list of subsets, by index: j is
    a neighbour of i when the two subsets share no element."""
    return [{j for j, v in enumerate(subsets) if not set(u) & set(v)} for u in subsets]


def named_perm(name: str, n: int) -> tuple[int, ...]:
    """Images of 1..n under the dihedral element named r<i>, p<i> or d<i>, read
    off the naming rules x + i, 2i - x and 2i - 1 - x, modulo n into 1..n."""
    kind, i = name[0], int(name[1:])
    shift = {"r": lambda x: x + i, "p": lambda x: 2 * i - x, "d": lambda x: 2 * i - 1 - x}[kind]
    return tuple((shift(x) - 1) % n + 1 for x in range(1, n + 1))


def perm_inverse(perm: tuple[int, ...]) -> tuple[int, ...]:
    """The inverse of a permutation of 1..n given as its image tuple."""
    inv = [0] * len(perm)
    for x, y in enumerate(perm, 1):
        inv[y - 1] = x
    return tuple(inv)


def brute_cayley_edges(n: int, elements, gens) -> set[tuple[int, int]]:
    """Edges (i, j), i < j, of the Cayley graph on `elements` in that vertex
    order: u ~ v exactly when u^-1 v is a generator, on image tuples of [n]
    built from the element names, never from the package's group law."""
    perms = [named_perm(str(e), n) for e in elements]
    targets = {named_perm(str(g), n) for g in gens}
    return {
        (i, j)
        for i, u in enumerate(map(perm_inverse, perms))
        for j, v in enumerate(perms)
        if i < j and tuple(u[y - 1] for y in v) in targets
    }


def random_graph(rng, order: int, p: float) -> Graph:
    edges = [
        (u, v)
        for u in range(order)
        for v in range(u + 1, order)
        if rng.random() < p
    ]
    return make_graph(order, edges)


def pairwise_distances(g: Graph) -> list[list[int]]:
    """Floyd-Warshall, as a second opinion against the BFS in the package."""
    big = g.order + 1
    dist = [[0 if u == v else (1 if g.has_edge(u, v) else big) for v in range(g.order)] for u in range(g.order)]
    for m in range(g.order):
        for u in range(g.order):
            for v in range(g.order):
                alt = dist[u][m] + dist[m][v]
                if alt < dist[u][v]:
                    dist[u][v] = alt
    return dist
