"""Immutable finite simple graphs over dense adjacency bitsets.

Vertices are 0..order-1; row u of `adj` is an int whose bit v says u~v.
All operations return fresh Graph values; nothing here mutates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


class GraphError(ValueError):
    """Raised when a construction would violate the simple-graph contract."""


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with optional per-vertex labels."""

    order: int
    adj: tuple[int, ...]
    labels: tuple | None = None

    def __post_init__(self):
        if self.order < 0 or len(self.adj) != self.order:
            raise GraphError("adjacency rows do not match order")
        if self.labels is not None:
            if len(self.labels) != self.order:
                raise GraphError("label count must equal order")
            if len(set(self.labels)) != self.order:
                raise GraphError("labels must be pairwise distinct")

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, u: int) -> int:
        return self.adj[u].bit_count()

    def neighbors(self, u: int) -> Iterator[int]:
        return iter_bits(self.adj[u])

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.order):
            above = self.adj[u] >> (u + 1) << (u + 1)
            for v in iter_bits(above):
                yield (u, v)

    def label_index(self) -> dict:
        """Map label -> vertex index; empty dict when unlabeled."""
        if self.labels is None:
            return {}
        return {lab: i for i, lab in enumerate(self.labels)}


def make_graph(order: int, edges: Iterable[tuple[int, int]], labels=None) -> Graph:
    """Build a graph from an edge list, symmetrized and deduplicated."""
    if order < 0:
        raise GraphError(f"negative order {order}")
    adj = [0] * order
    for u, v in edges:
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if not (0 <= u < order and 0 <= v < order):
            raise GraphError(f"edge ({u},{v}) out of range for order {order}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(order, tuple(adj), tuple(labels) if labels is not None else None)


def empty_graph(n: int) -> Graph:
    return make_graph(n, ())


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full & ~(1 << u) for u in range(n)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("a cycle needs at least 3 vertices")
    return make_graph(n, [(u, (u + 1) % n) for u in range(n)])


def path_graph(n: int) -> Graph:
    return make_graph(n, [(u, u + 1) for u in range(n - 1)])


def audit_graph(g: Graph) -> bool:
    """Structural audit: symmetry, irreflexivity, in-range bits, sane labels."""
    for u in range(g.order):
        if g.adj[u] >> u & 1:
            raise GraphError(f"loop at vertex {u}")
        if g.adj[u] >> g.order:
            raise GraphError(f"adjacency bits beyond order in row {u}")
        for v in iter_bits(g.adj[u]):
            if not g.adj[v] >> u & 1:
                raise GraphError(f"asymmetric adjacency for pair ({u},{v})")
    if g.labels is not None and len(set(g.labels)) != g.order:
        raise GraphError("duplicate labels")
    return True


def verify_homomorphism(g: Graph, h: Graph, mapping) -> bool:
    """Independent check that mapping sends every edge of g to an edge of h.

    Automorphisms, isomorphisms, colourings (maps into K_c) and cliques (maps
    from K_m) are all checked through it; it shares nothing with the searches.
    """
    if len(mapping) != g.order:
        return False
    if any(type(m) is not int or not 0 <= m < h.order for m in mapping):
        return False
    hadj = h.adj
    for u in range(g.order):
        row = hadj[mapping[u]]
        for d in iter_bits(g.adj[u] >> u):  # each edge once, as u ~ u + d
            if not row >> mapping[u + d] & 1:
                return False
    return True


def label_automorphism(g: Graph, act) -> tuple[int, ...] | None:
    """The automorphism of g sending the vertex labelled x to the one labelled act(x),
    or None when some act(x) is not a label of g or the map is not one. A
    bijective edge-preserving self-map of a finite graph is an automorphism.
    """
    index = g.label_index()
    try:
        perm = tuple(index[act(label)] for label in g.labels)
    except KeyError:
        return None
    if len(set(perm)) == g.order and verify_homomorphism(g, g, perm):
        return perm
    return None


def complement(g: Graph) -> Graph:
    full = (1 << g.order) - 1
    adj = tuple((full & ~g.adj[u]) & ~(1 << u) for u in range(g.order))
    return Graph(g.order, adj, g.labels)


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Distances from source; -1 for unreachable vertices."""
    dist = [-1] * g.order
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in iter_bits(g.adj[u]):
                if dist[v] < 0:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return dist


def graph_power(g: Graph, p: int) -> Graph:
    """Join vertices at distance 1..p in g; components never merge."""
    if p < 1:
        raise GraphError("graph power requires p >= 1")
    adj = [0] * g.order
    for u in range(g.order):
        row = 0
        for v, d in enumerate(bfs_distances(g, u)):
            if 1 <= d <= p:
                row |= 1 << v
        adj[u] = row
    return Graph(g.order, tuple(adj), g.labels)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Vertices V(g) x V(h); edges when one coordinate is equal, the other adjacent."""
    m = h.order
    order = g.order * m
    adj = [0] * order
    for u in range(g.order):
        base = u * m
        col_bits = [1 << (w * m) for w in iter_bits(g.adj[u])]
        for v in range(m):
            row = h.adj[v] << base
            for bit in col_bits:
                row |= bit << v
            adj[base + v] = row
    glabels = g.labels if g.labels is not None else tuple(range(g.order))
    hlabels = h.labels if h.labels is not None else tuple(range(h.order))
    labels = tuple((glabels[u], hlabels[v]) for u in range(g.order) for v in range(m))
    return Graph(order, tuple(adj), labels)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Side-by-side copies with no cross edges. Labels survive only if still distinct."""
    shift = g.order
    adj = tuple(g.adj) + tuple(row << shift for row in h.adj)
    labels = None
    if g.labels is not None and h.labels is not None:
        combined = g.labels + h.labels
        if len(set(combined)) == len(combined):
            labels = combined
    return Graph(g.order + h.order, adj, labels)


def induced_subgraph(g: Graph, keep: Iterable[int]) -> Graph:
    """Subgraph on `keep`, re-indexed in ascending original order."""
    kept = sorted(set(keep))
    if kept and not (0 <= kept[0] and kept[-1] < g.order):
        raise GraphError(f"vertices {kept} not all in range 0..{g.order - 1}")
    pos = {v: i for i, v in enumerate(kept)}
    adj = []
    for v in kept:
        row = 0
        for w in iter_bits(g.adj[v]):
            i = pos.get(w)
            if i is not None:
                row |= 1 << i
        adj.append(row)
    labels = tuple(g.labels[v] for v in kept) if g.labels is not None else None
    return Graph(len(kept), tuple(adj), labels)


def delete_vertex(g: Graph, v: int) -> Graph:
    if not 0 <= v < g.order:
        raise GraphError(f"vertex {v} out of range")
    return induced_subgraph(g, (u for u in range(g.order) if u != v))


def connected_components(g: Graph) -> list[list[int]]:
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
