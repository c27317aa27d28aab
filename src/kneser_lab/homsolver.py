"""Homomorphism search, its one outcome type, and JSON certificates.

`_run_search` is the one backtracking skeleton over per-vertex candidate
bitsets, on the clock of the public call; arc consistency narrows the domains
at every node of every search: a changed domain of v cuts each neighbour of v
to the union of the target neighbourhoods of v's candidates, tested with one
AND against the target vertices outside that union, over neighbour lists read
once with `graphs.row_bits`. `isomorphism` runs it on edges and on
non-edges. Each public call verifies the target's label symmetry once, with
`label_orbits`. A homomorphism search breaks that symmetry at every node. The
core test bans one vertex v per orbit and searches only idempotent
endomorphisms, propagated by arc consistency and the two rules of
`_retraction_rules`.
A negative answer only follows a completed search; every positive answer and
loaded certificate passes the map checker `graphs.verify_homomorphism`, and a
"not-core" endomorphism is checked to be idempotent and to miss a vertex.
Both searches return one `Outcome` type; its `homomorphism` is a read-only
alias of `witness`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from functools import reduce
from itertools import compress
from operator import ne

from .budget import BudgetClock, BudgetExhausted, SearchBudget
from .dihedral import label_orbits
from .graphs import Graph, complete_graph, iter_bits, row_bits, verify_homomorphism


@dataclass(frozen=True)
class Homomorphism:
    """A map that passed `verify_homomorphism`; entry u is the image of u."""

    mapping: tuple[int, ...]

    def image(self) -> set[int]:
        return set(self.mapping)


@dataclass(frozen=True)
class Outcome:
    status: str  # "found" | "none" | "exhausted", or from is_core "core" | "not-core" | "exhausted"
    witness: Homomorphism | None  # the map g -> h found, or a non-surjective endomorphism
    nodes: int
    seconds: float

    @property
    def found(self) -> bool:
        return self.status == "found"

    @property
    def homomorphism(self) -> Homomorphism | None:
        return self.witness  # read-only alias; perfbench/workloads.py reads this name


def _neighbour_lists(g: Graph) -> list[list[int]]:
    """Each vertex's neighbours, ascending, as lists of shared int objects."""
    vertices = list(range(g.order))  # a fresh int per entry above 256 would not be shared
    return [row_bits(row, vertices) for row in g.adj]


_SUPPORT_MEMO_CAP = 65_536


def _arc_consistency(g: Graph, h: Graph):
    """The propagator of g -> h: `enforce(doms, seeds)` narrows doms in place
    from the changed vertices `seeds` and returns False on a wipe-out.

    The support of a domain, the union of the target neighbourhoods of its
    candidates, is a function of the domain alone, so the first
    `_SUPPORT_MEMO_CAP` supports computed are kept for every later call. A miss
    ORs one table row per byte of the domain: `table[i][byte]`, filled when
    first read, is the union of the rows of target vertices 8i + b over the
    bits b of byte. A neighbour's domain narrows only if it meets `cut`, the
    target vertices outside the support, so each neighbour costs one AND; a
    support that is the whole target leaves `cut` empty and its neighbour sweep
    is skipped, since every domain is a set of target vertices.
    """
    nbrs = _neighbour_lists(g)
    full = (1 << h.order) - 1
    table = [[None] * 256 for _ in range(0, h.order, 8)]
    nbytes = len(table)
    memo = {}

    def enforce(doms: list[int], seeds) -> bool:
        # a neighbour of v may only take values adjacent to some value of v
        queue = set(seeds)
        while queue:
            v = queue.pop()
            d = doms[v]
            support = memo.get(d)
            if support is None:
                support = 0
                for i, byte in enumerate(d.to_bytes(nbytes, "little")):
                    if byte:
                        union = table[i][byte]
                        if union is None:
                            rows = (h.adj[8 * i + b] for b in range(8) if byte >> b & 1)
                            union = table[i][byte] = reduce(int.__or__, rows)
                        support |= union
                if len(memo) < _SUPPORT_MEMO_CAP:
                    memo[d] = support
            cut = full ^ support
            if not cut:
                continue
            for w in nbrs[v]:
                d = doms[w]
                if d & cut:
                    d &= support
                    if not d:
                        return False
                    doms[w] = d
                    queue.add(w)
        return True

    return enforce


def _symmetry(perms, values):
    """(the bitset of `values` least in their orbit under the group `perms`,
    a map from c to the members fixing c), or None for the identity alone."""
    if len(perms) > 1:
        least = sum(1 << c for c in values if all(p[c] >= c for p in perms))
        return least, lambda c: [p for p in perms if p[c] == c]


def _run_search(doms: list[int], enforce, clock: BudgetClock, sym):
    """Return the tuple of values of a solution within doms, or None after a
    completed search. doms is consumed; `enforce` propagates every node.

    `sym` is None or, from `_symmetry`, a group of target permutations mapping
    doms onto themselves. A node tries only the candidates least in their orbit
    under the members fixing every decision above it (the GE-tree of
    Roney-Dougal et al., ECAI 2004): arc consistency commutes with those, so
    the tree is the plain one with subtrees cut that hold no new solution."""
    n = len(doms)
    if any(d == 0 for d in doms) or not enforce(doms, range(n)):
        return None

    def branch_vertex(doms: list[int]) -> int:
        # a search node: the undecided vertex with the fewest candidates, or -1
        clock.tick()
        best = -1
        best_count = 1 << 62
        for u in range(n):
            c = doms[u].bit_count()
            if 1 < c < best_count:
                best, best_count = u, c
        return best

    # propagation that leaves every domain a singleton has found a solution
    best = branch_vertex(doms)
    if best < 0:
        return tuple(d.bit_length() - 1 for d in doms)
    # depth first on an explicit stack of (domains, branching vertex, untried
    # candidate bits, symmetry), so the recursion limit bounds no depth
    stack = [(doms, best, doms[best] & sym[0] if sym else doms[best], sym)]
    while stack:
        doms, best, untried, sym = stack.pop()
        while untried:
            low = untried & -untried
            untried ^= low
            clock.tick()
            child = doms.copy()
            child[best] = low
            if not enforce(child, (best,)):
                continue
            nxt = branch_vertex(child)
            if nxt < 0:
                return tuple(d.bit_length() - 1 for d in child)
            if untried:
                stack.append((doms, best, untried, sym))
            sym = sym and _symmetry(sym[1](low.bit_length() - 1), iter_bits(child[nxt]))
            doms, best, untried = child, nxt, child[nxt] & sym[0] if sym else child[nxt]
    return None


def _solve(g: Graph, h: Graph, doms: list[int], enforce, clock: BudgetClock, sym) -> Outcome:
    """Search g -> h within `doms` under `sym` on `clock`; nodes: clock total."""
    try:
        mapping = _run_search(doms, enforce, clock, sym)
    except BudgetExhausted:
        return Outcome("exhausted", None, clock.nodes, clock.elapsed())
    if mapping is None:
        return Outcome("none", None, clock.nodes, clock.elapsed())
    if not verify_homomorphism(g, h, mapping):
        raise RuntimeError("search produced a map the independent checker rejects")
    return Outcome("found", Homomorphism(mapping), clock.nodes, clock.elapsed())


def find_homomorphism(g: Graph, h: Graph, budget: SearchBudget | None = None) -> Outcome:
    """Decide whether an edge-preserving map g -> h exists.

    The full domains are invariant under the group `label_orbits(h)`
    verifies, so the search breaks that group from its first node on, where
    it tries only the orbit leaders of h; a copy of h without labels gives
    the plain search.
    """
    clock = BudgetClock(budget)
    orbits = label_orbits(h)
    sym = orbits and (sum(1 << w for w, lead in enumerate(orbits[0]) if lead == w), orbits[1])
    return _solve(g, h, [(1 << h.order) - 1] * g.order, _arc_consistency(g, h), clock, sym)


def _retraction_rules(enforce, n: int):
    """`enforce` of g -> g narrowed to idempotent maps: arc consistency and two
    rules run to one joint fixpoint. A vertex whose domain is {y} sends y to
    y, so y's domain becomes {y}; a y that leaves its own domain is no fixed
    point, so no vertex maps to y and y leaves every domain.

    `seen` holds the domains the rules last looked at, so each round visits
    only the vertices the caller or arc consistency changed since: the new
    singletons and the vertices that just lost their own value. A vertex the
    caller changed came from an unknown superset of its domain, so it reads
    as having lost its own value whenever it lacks it."""
    vertices = range(n)

    def retract(doms: list[int], seeds) -> bool:
        seen = doms.copy()
        for u in seeds:
            seen[u] = -1
        while True:
            if not enforce(doms, seeds):
                return False
            seeds = set()
            for u in list(compress(vertices, map(ne, doms, seen))):
                d, was = doms[u], seen[u]
                seen[u] = d
                if not d & (d - 1):  # u -> y, so y -> y
                    y = d.bit_length() - 1
                    if doms[y] != d:
                        if not doms[y] & d:
                            return False
                        doms[y] = d
                        seeds.add(y)
                if was >> u & 1 and not d >> u & 1:  # u is no fixed point
                    bit = 1 << u
                    for w in list(compress(vertices, map(bit.__and__, doms))):
                        new = doms[w] ^ bit
                        if not new:
                            return False
                        doms[w] = new
                        seeds.add(w)
            if not seeds:
                return True

    return retract


def is_core(g: Graph, budget: SearchBudget | None = None) -> Outcome:
    """Exhaustively decide whether every endomorphism of g is surjective.

    g fails to be a core exactly when some endomorphism f misses a vertex v.
    Then a power e = f^m is idempotent, a retraction onto its image, and
    misses v too, as its image lies in f's (Hell & Nesetril, Discrete Math.
    109, 1992); so the search with v banned keeps only idempotent maps
    (`_retraction_rules`). If e misses sigma(v) for sigma in the group
    `label_orbits(g)` verifies, then sigma^-1 e sigma is idempotent and
    misses v, so only the least vertex of each orbit is banned, in turn and
    all searches on one clock. No value symmetry is broken: sigma after e is
    not idempotent in general.
    """
    clock = BudgetClock(budget)
    full = (1 << g.order) - 1
    enforce = _retraction_rules(_arc_consistency(g, g), g.order)
    leader = (label_orbits(g) or (range(g.order),))[0]
    for v, lead in enumerate(leader):
        if lead < v:
            continue
        outcome = _solve(g, g, [full & ~(1 << v)] * g.order, enforce, clock, None)
        if outcome.found:
            mapping, image = outcome.witness.mapping, outcome.witness.image()
            if len(image) == g.order or any(mapping[y] != y for y in image):
                raise RuntimeError("core search produced an endomorphism that is no proper retraction")
        if outcome.status != "none":
            return replace(outcome, status="not-core" if outcome.found else "exhausted")
    return Outcome("core", None, clock.nodes, clock.elapsed())


# certificates


def graph_fingerprint(g: Graph) -> dict:
    """Order, edge count and a digest of the adjacency rows as fixed-width
    bytes; the blob's length, order * ceil(order / 8), grows with the order,
    so the blob alone determines the graph."""
    width = (g.order + 7) // 8
    blob = b"".join(row.to_bytes(width, "little") for row in g.adj)
    return {
        "order": g.order,
        "edges": g.edge_count,
        "digest": hashlib.sha256(blob).hexdigest()[:16],
    }


def certificate(
    kind: str,
    *,
    data,
    source: Graph | None = None,
    target: Graph | None = None,
    verified: bool = False,
    nodes: int = 0,
    seconds: float = 0.0,
) -> dict:
    """JSON-ready certificate; `data` is the map, coloring, or clique."""
    if kind not in ("homomorphism", "coloring", "clique"):
        raise ValueError(f"unknown certificate kind {kind!r}")
    payload_key = "map" if kind == "homomorphism" else kind
    cert = {
        "kind": kind,
        payload_key: list(data),
        "verified": bool(verified),
        "nodes": int(nodes),
        "seconds": float(seconds),
    }
    if source is not None:
        cert["source"] = graph_fingerprint(source)
    if target is not None:
        cert["target"] = graph_fingerprint(target)
    return cert


def _fingerprint_matches(cert: dict, key: str, g: Graph) -> bool:
    if key not in cert:
        return True
    stamp = cert[key]
    return isinstance(stamp, dict) and stamp.get("digest") == graph_fingerprint(g)["digest"]


def check_certificate(cert: dict, g: Graph, h: Graph | None = None) -> bool:
    """Re-check a loaded certificate against graphs, without re-searching.

    A coloring with entries in 0..order-1 is checked as a map into K_{c+1},
    c its largest colour; a clique of m vertices as a map from K_m. A
    malformed certificate is rejected, never raised on.
    """
    kind = cert.get("kind") if isinstance(cert, dict) else None
    if kind not in ("homomorphism", "coloring", "clique"):
        return False
    data = cert.get("map" if kind == "homomorphism" else kind)
    if not isinstance(data, (list, tuple)) or not _fingerprint_matches(cert, "source", g):
        return False
    if kind == "homomorphism":
        return (
            h is not None
            and _fingerprint_matches(cert, "target", h)
            and verify_homomorphism(g, h, data)
        )
    if kind == "coloring":
        if any(type(c) is not int or not 0 <= c < g.order for c in data):
            return False
        return verify_homomorphism(g, complete_graph(max(data, default=-1) + 1), data)
    return verify_homomorphism(complete_graph(len(data)), g, data)


def certificate_dumps(cert: dict) -> str:
    return json.dumps(cert, sort_keys=True)


def certificate_loads(text: str) -> dict:
    return json.loads(text)
