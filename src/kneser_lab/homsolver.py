"""Homomorphism search, solver outcomes, and JSON certificates.

The search engine (also behind retractions and core testing) is backtracking
over per-vertex candidate bitsets with arc consistency after every assignment.
Verified label symmetries of the target (`dihedral.symmetry_root_candidates`)
collapse the root branching to one candidate per orbit. A negative answer is
only ever reported after a completed exhaustive search; every positive answer
and every loaded certificate passes the map checker `graphs.verify_homomorphism`.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass

from .budget import BudgetClock, BudgetExhausted, SearchBudget, resolve_budget
from .dihedral import symmetry_root_candidates
from .graphs import (
    Graph,
    cartesian_product,
    complete_graph,
    induced_subgraph,
    iter_bits,
    verify_homomorphism,
)
from .labels import CyclicElem


@dataclass(frozen=True)
class Homomorphism:
    source_order: int
    target_order: int
    mapping: tuple[int, ...]
    verified: bool = False

    def image(self) -> set[int]:
        return set(self.mapping)

    @property
    def surjective(self) -> bool:
        return len(self.image()) == self.target_order


@dataclass(frozen=True)
class SolveOutcome:
    status: str  # "found" | "none" | "exhausted"
    homomorphism: Homomorphism | None
    nodes: int
    seconds: float

    @property
    def found(self) -> bool:
        return self.status == "found"


def _run_search(g: Graph, h: Graph, doms: list[int], clock: BudgetClock):
    """Return a mapping tuple or None. doms is consumed."""
    n = g.order
    if any(d == 0 for d in doms):
        return None
    nbrs = [list(iter_bits(g.adj[u])) for u in range(n)]
    tadj = h.adj

    def enforce(doms: list[int], seeds) -> bool:
        queue = deque((w, u) for u in seeds for w in nbrs[u])
        while queue:
            u, v = queue.popleft()
            du, dv = doms[u], doms[v]
            new = du
            for a in iter_bits(du):
                if not tadj[a] & dv:
                    new &= ~(1 << a)
            if new != du:
                if not new:
                    return False
                doms[u] = new
                for w in nbrs[u]:
                    if w != v:
                        queue.append((w, u))
        return True

    if not enforce(doms, range(n)):
        return None

    def dfs(doms: list[int]):
        clock.tick()
        best = -1
        best_count = 1 << 62
        for u in range(n):
            c = doms[u].bit_count()
            if 1 < c < best_count:
                best, best_count = u, c
        if best < 0:
            # arc consistency with all-singleton domains is a solution
            return tuple(d.bit_length() - 1 for d in doms)
        for a in iter_bits(doms[best]):
            clock.tick()
            child = doms.copy()
            child[best] = 1 << a
            if enforce(child, (best,)):
                result = dfs(child)
                if result is not None:
                    return result
        return None

    return dfs(doms)


def find_homomorphism(
    g: Graph,
    h: Graph,
    budget: SearchBudget | None = None,
    *,
    fixed: dict[int, int] | None = None,
    exclude_image=(),
    use_target_symmetry: bool = True,
) -> SolveOutcome:
    """Decide whether an edge-preserving map g -> h exists.

    `fixed` pins chosen source vertices to chosen targets (retractions);
    `exclude_image` bans target vertices outright (core testing). Both
    disable the root symmetry reduction.
    """
    clock = resolve_budget(budget).start()
    full = (1 << h.order) - 1
    for x in exclude_image:
        full &= ~(1 << x)
    doms = [full] * g.order
    if fixed:
        for u, a in fixed.items():
            doms[u] &= 1 << a
    elif use_target_symmetry and not exclude_image and g.order:
        reps = symmetry_root_candidates(h)
        if reps is not None:
            root = max(range(g.order), key=lambda u: (g.degree(u), -u))
            doms[root] &= reps
    try:
        mapping = _run_search(g, h, doms, clock)
    except BudgetExhausted as stop:
        return SolveOutcome("exhausted", None, stop.nodes, clock.elapsed())
    if mapping is None:
        return SolveOutcome("none", None, clock.nodes, clock.elapsed())
    if not verify_homomorphism(g, h, mapping):
        raise RuntimeError("search produced a map the independent checker rejects")
    hom = Homomorphism(g.order, h.order, mapping, verified=True)
    return SolveOutcome("found", hom, clock.nodes, clock.elapsed())


def find_retraction(g: Graph, keep, budget: SearchBudget | None = None) -> SolveOutcome:
    """Search for a homomorphism of g onto the subgraph induced by `keep`
    that fixes every kept vertex. Mapping values index the induced subgraph."""
    kept = tuple(sorted(set(keep)))
    if not kept or kept[0] < 0 or kept[-1] >= g.order:
        raise ValueError(f"keep set {kept} invalid for order {g.order}")
    h = induced_subgraph(g, kept)
    fixed = {v: i for i, v in enumerate(kept)}
    outcome = find_homomorphism(g, h, budget, fixed=fixed)
    if outcome.found:
        mapping = outcome.homomorphism.mapping
        if any(mapping[v] != i for v, i in fixed.items()):
            raise RuntimeError("retraction search violated a fixed point")
    return outcome


@dataclass(frozen=True)
class CoreOutcome:
    status: str  # "core" | "not-core" | "exhausted"
    witness: Homomorphism | None
    nodes: int
    seconds: float

    @property
    def is_core(self) -> bool:
        return self.status == "core"


def is_core(g: Graph, budget: SearchBudget | None = None) -> CoreOutcome:
    """Exhaustively decide whether every endomorphism of g is surjective.

    g fails to be a core exactly when some endomorphism misses a vertex,
    so we try to avoid each vertex in turn. The searches share one budget.
    """
    clock = resolve_budget(budget).start()
    for v in range(g.order):
        outcome = find_homomorphism(g, g, clock.remaining(), exclude_image=(v,))
        clock.nodes += outcome.nodes
        if outcome.status == "found":
            return CoreOutcome("not-core", outcome.homomorphism, clock.nodes, clock.elapsed())
        if outcome.status == "exhausted":
            return CoreOutcome("exhausted", None, clock.nodes, clock.elapsed())
    return CoreOutcome("core", None, clock.nodes, clock.elapsed())


def normal_cayley_self_hom(g: Graph) -> Homomorphism:
    """The verified group-addition homomorphism from g box g onto a circulant g.

    Sends the product vertex (u, v) to u + v mod n. Residue addition always
    works on a circulant, so a verification failure is an internal defect.
    """
    labels = g.labels
    n = g.order
    if not labels or not all(
        isinstance(l, CyclicElem) and l.modulus == n for l in labels
    ):
        raise ValueError("group addition needs a circulant with residue labels")
    if any(l.value != i for i, l in enumerate(labels)):
        raise ValueError("circulant labels out of residue order")
    square = cartesian_product(g, g)
    mapping = []
    for la, lb in square.labels:
        mapping.append((la.value + lb.value) % n)
    mapping = tuple(mapping)
    if not verify_homomorphism(square, g, mapping):
        raise RuntimeError("group addition failed the homomorphism checker")
    return Homomorphism(square.order, n, mapping, verified=True)


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
