"""Immutable finite simple graphs over dense adjacency bitsets.

Vertices are 0..order-1; row u of `adj` is an int whose bit v says u~v.
All operations return fresh Graph values; nothing here mutates.

`iter_bits` walks a small mask one low bit at a time; `row_bits` reads a
whole row from one `bin()` string, one step per set bit, for the callers that
list every neighbour (the propagators' neighbour lists and DSATUR's ranked
rows). `verify_homomorphism`, the one map checker, checks every map fibre by
fibre.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


class GraphError(ValueError):
    """Raised when a construction would violate the simple-graph contract."""


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in ascending order. Each step
    clears the low bit of the whole int, so this suits small masks; a wide row
    is read with `row_bits`."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def row_bits(row: int, names) -> list:
    """`names[v]` for each set bit v of row, ascending. In the reversed binary
    string the run of 0s before each 1 is the gap to the next set bit, so the
    walk takes one Python step per set bit, not per bit of width."""
    out = []
    v = -1
    for gap in bin(row)[:1:-1].split("1")[:-1]:
        v += len(gap) + 1
        out.append(names[v])
    return out


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


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full & ~(1 << u) for u in range(n)))


def verify_homomorphism(g: Graph, h: Graph, mapping) -> bool:
    """Independent check that mapping sends every edge of g to an edge of h.

    The map is checked by fibres: the OR of the rows of y's fibre must lie in
    the union of the fibres of y's neighbours in h. An edge u ~ w with
    f(u) = y then has w in the fibre of some z ~ y, so f(w) ~ f(u); the
    converse is immediate. One pass over g builds the fibres and their ORs
    (the first preimage of y stores its own row, so an injective map copies
    none); then each row of h with a non-empty pull-back is read once. On a
    target of more than 16 vertices, a row of h with more bits than bytes is
    pulled back through tables of 16 fibre unions per 4 targets, each filled
    the first time a row reads it; sparser rows, and every row of a smaller
    target, where building a table costs more than it saves, are walked bit by
    bit. Automorphisms, isomorphisms, colourings (maps into K_c), cliques (maps
    from K_m) and square maps are all checked through it; it shares nothing
    with the searches.
    """
    if len(mapping) != g.order:
        return False
    if any(type(m) is not int or not 0 <= m < h.order for m in mapping):
        return False
    fibre = [0] * h.order
    reach = [0] * h.order
    for u, grow in enumerate(g.adj):
        y = mapping[u]
        if fibre[y]:
            fibre[y] |= 1 << u
            reach[y] |= grow
        else:
            fibre[y] = 1 << u
            reach[y] = grow
    nbytes = (h.order + 7) // 8
    tables = [None] * nbytes  # tables[j]: the fibre table of byte j, targets 8j..8j+7
    for y, out in enumerate(reach):
        if out:
            row = h.adj[y]
            pulled = 0
            if nbytes > 2 and row.bit_count() > nbytes:
                for j, byte in enumerate(row.to_bytes(nbytes, "little")):
                    if byte:
                        table = tables[j]
                        if table is None:
                            table = tables[j] = _fibre_table(fibre, 8 * j)
                        pulled |= table[byte & 15] | table[16 + (byte >> 4)]
            else:
                for z in iter_bits(row):
                    pulled |= fibre[z]
            if out & ~pulled:
                return False
    return True


def _fibre_table(fibre, base: int) -> list[int]:
    """Entry x < 16 is the union of the fibres of the targets base + i for the
    bits i of x, and entry 16 + x the same for base + 4 + i; bits past the
    last target add nothing."""
    table = []
    for start in (base, base + 4):
        nibble = [0]
        for z in range(start, min(start + 4, len(fibre))):
            nibble += [mask | fibre[z] for mask in nibble]
        table += nibble + [0] * (16 - len(nibble))
    return table


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


def complement(g: Graph) -> Graph:
    full = (1 << g.order) - 1
    adj = tuple((full & ~g.adj[u]) & ~(1 << u) for u in range(g.order))
    return Graph(g.order, adj, g.labels)


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
    """The components of g by least vertex, each ascending: a frontier search
    ORs the rows of the frontier and masks off what the component holds."""
    rest = (1 << g.order) - 1
    comps = []
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            reach = 0
            for x in iter_bits(frontier):
                reach |= g.adj[x]
            frontier = reach & ~comp
            comp |= frontier
        rest &= ~comp
        comps.append(list(iter_bits(comp)))
    return comps
