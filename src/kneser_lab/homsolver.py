"""Homomorphism search, solver outcomes, and JSON certificates.

`_run_search` is the one backtracking skeleton over per-vertex candidate
bitsets, on the clock of the public call; a propagator narrows the domains at
every node. Homomorphism and core searches share arc consistency and differ
only in their start domains: a changed domain of v cuts each neighbour of v
to the union of the target neighbourhoods of v's candidates. Each public
call verifies a label symmetry once, with `orbit_leaders`: the homomorphism
search limits its root to the target's orbit leaders, and the core test bans
one vertex per orbit of g's own group.
A negative answer only follows a completed search; every positive answer and
loaded certificate passes the map checker `graphs.verify_homomorphism`, and a
"not-core" endomorphism is checked to miss a vertex.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .budget import BudgetClock, BudgetExhausted, SearchBudget, resolve_budget
from .dihedral import orbit_leaders
from .graphs import Graph, complete_graph, iter_bits, verify_homomorphism


@dataclass(frozen=True)
class Homomorphism:
    """A map that passed `verify_homomorphism`; entry u is the image of u."""

    mapping: tuple[int, ...]

    def image(self) -> set[int]:
        return set(self.mapping)


@dataclass(frozen=True)
class SolveOutcome:
    status: str  # "found" | "none" | "exhausted"
    homomorphism: Homomorphism | None
    nodes: int
    seconds: float

    @property
    def found(self) -> bool:
        return self.status == "found"


_SUPPORT_MEMO_CAP = 65_536


def _arc_consistency(g: Graph, h: Graph):
    """The propagator of g -> h: `enforce(doms, seeds)` narrows doms in place
    from the changed vertices `seeds` and returns False on a wipe-out.

    The support of a domain, the union of the target neighbourhoods of its
    candidates, is a function of the domain alone, so the first
    `_SUPPORT_MEMO_CAP` supports computed are kept for every later call. A miss
    ORs one table row per byte of the domain: `table[i][byte]` is the union of
    the rows of target vertices 8i + b over the bits b of byte.
    """
    nbrs = [list(iter_bits(g.adj[u])) for u in range(g.order)]
    table = []
    for i in range(0, h.order, 8):
        row = [0]
        for mask in h.adj[i : i + 8]:
            row += [r | mask for r in row]
        table.append(row)
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
                for row, byte in zip(table, d.to_bytes(nbytes, "little")):
                    if byte:
                        support |= row[byte]
                if len(memo) < _SUPPORT_MEMO_CAP:
                    memo[d] = support
            for w in nbrs[v]:
                new = doms[w] & support
                if new != doms[w]:
                    if not new:
                        return False
                    doms[w] = new
                    queue.add(w)
        return True

    return enforce


def _run_search(doms: list[int], enforce, clock: BudgetClock):
    """Return the tuple of values of a solution within doms, or None after a
    completed search. doms is consumed; `enforce` propagates every node."""
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
    # candidate bits), so the search depth is not bounded by the recursion limit
    stack = [(doms, best, doms[best])]
    while stack:
        doms, best, untried = stack.pop()
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
                stack.append((doms, best, untried))
            doms, best, untried = child, nxt, child[nxt]
    return None


def _solve(g: Graph, h: Graph, doms: list[int], enforce, clock: BudgetClock) -> SolveOutcome:
    """Search g -> h within `doms` on `clock`; nodes are the clock's total."""
    try:
        mapping = _run_search(doms, enforce, clock)
    except BudgetExhausted:
        return SolveOutcome("exhausted", None, clock.nodes, clock.elapsed())
    if mapping is None:
        return SolveOutcome("none", None, clock.nodes, clock.elapsed())
    if not verify_homomorphism(g, h, mapping):
        raise RuntimeError("search produced a map the independent checker rejects")
    return SolveOutcome("found", Homomorphism(mapping), clock.nodes, clock.elapsed())


def find_homomorphism(g: Graph, h: Graph, budget: SearchBudget | None = None) -> SolveOutcome:
    """Decide whether an edge-preserving map g -> h exists.

    If f maps the root to sigma(w) for sigma in `label_group(h)`, sigma^-1
    after f maps it to w, so the root only takes the leaders of
    `orbit_leaders(h)`; a copy of h without labels gives the plain search.
    """
    clock = resolve_budget(budget).start()
    doms = [(1 << h.order) - 1] * g.order
    if g.order:
        root = max(range(g.order), key=lambda u: (g.degree(u), -u))
        doms[root] = sum(1 << w for w, lead in enumerate(orbit_leaders(h)) if lead == w)
    return _solve(g, h, doms, _arc_consistency(g, h), clock)


@dataclass(frozen=True)
class CoreOutcome:
    status: str  # "core" | "not-core" | "exhausted"
    witness: Homomorphism | None
    nodes: int
    seconds: float


def is_core(g: Graph, budget: SearchBudget | None = None) -> CoreOutcome:
    """Exhaustively decide whether every endomorphism of g is surjective.

    g fails to be a core exactly when some endomorphism misses a vertex. If
    f misses sigma(v) for sigma in `label_group(g)`, then sigma^-1 after f
    misses v, so only the least vertex of each orbit is banned, in turn and
    all searches on one clock.
    """
    clock = resolve_budget(budget).start()
    full = (1 << g.order) - 1
    enforce = _arc_consistency(g, g)
    for v, lead in enumerate(orbit_leaders(g)):
        if lead < v:
            continue
        outcome = _solve(g, g, [full & ~(1 << v)] * g.order, enforce, clock)
        if outcome.found and len(outcome.homomorphism.image()) == g.order:
            raise RuntimeError("core search produced an endomorphism that misses no vertex")
        if outcome.status != "none":
            status = "not-core" if outcome.found else "exhausted"
            return CoreOutcome(status, outcome.homomorphism, clock.nodes, clock.elapsed())
    return CoreOutcome("core", None, clock.nodes, clock.elapsed())


# certificates


def graph_fingerprint(g: Graph) -> dict:
    blob = repr((g.order, g.adj)).encode()
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

    A coloring is checked as a map into K_order, a clique of m vertices as a
    map from K_m. A malformed certificate is rejected, never raised on.
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
        return verify_homomorphism(g, complete_graph(g.order), data)
    return verify_homomorphism(complete_graph(len(data)), g, data)


def certificate_dumps(cert: dict) -> str:
    return json.dumps(cert, sort_keys=True)


def certificate_loads(text: str) -> dict:
    return json.loads(text)
