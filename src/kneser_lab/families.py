"""Constructors for every graph family the lab studies, plus the explicit
circulant description of the tight stable Kneser graphs.

Vertex order is canonical everywhere: lexicographic on labels for subset
families, residue order for circulants, group-element order for dihedral
Cayley graphs. All checks elsewhere reference labels, never raw indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import dihedral
from .graphs import Graph, induced_subgraph
from .isomorphism import verify_isomorphism
from .labels import CyclicElem, KSubset
from .modn import mod1


def enumerate_stable_subsets(n: int, k: int, s: int) -> list[KSubset]:
    """All s-stable k-subsets of [n], lexicographically ordered."""
    if k < 1 or s < 1 or n < k * s:
        raise ValueError(f"stable subsets need n >= k*s, got n={n}, k={k}, s={s}")
    out = []
    for els in combinations(range(1, n + 1), k):
        v = KSubset(els, n)
        if v.is_stable(s):
            out.append(v)
    return out


def _disjointness_graph(verts: list[KSubset]) -> Graph:
    masks = [sum(1 << (x - 1) for x in v.elements) for v in verts]
    order = len(verts)
    adj = [0] * order
    for i in range(order):
        for j in range(i + 1, order):
            if not masks[i] & masks[j]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph(order, tuple(adj), tuple(verts))


def kneser(n: int, k: int) -> Graph:
    """k-subsets of [n]; edges join disjoint subsets."""
    if k < 1 or n < 2 * k:
        raise ValueError(f"Kneser family needs n >= 2k, got n={n}, k={k}")
    verts = [KSubset(els, n) for els in combinations(range(1, n + 1), k)]
    return _disjointness_graph(verts)


def stable_kneser(n: int, k: int, s: int) -> Graph:
    """The subgraph of kneser(n, k) induced by the s-stable subsets."""
    if k < 2 or s < 2:
        raise ValueError(f"stable Kneser family needs k, s >= 2, got k={k}, s={s}")
    if n < k * s:
        raise ValueError(f"stable Kneser family needs n >= k*s, got n={n}")
    return _disjointness_graph(enumerate_stable_subsets(n, k, s))


def circulant(n: int, connection) -> Graph:
    """Vertices 0..n-1; u ~ v iff (v - u) mod n lies in the connection set."""
    conn = sorted(set(connection))
    if n < 1:
        raise ValueError("circulant needs n >= 1")
    if any(c < 1 or c >= n for c in conn):
        raise ValueError(f"connection residues must lie in 1..{n - 1}: {conn}")
    cset = set(conn)
    if any((n - c) % n not in cset for c in cset):
        raise ValueError(f"connection set not closed under negation: {conn}")
    adj = [0] * n
    for u in range(n):
        for c in conn:
            adj[u] |= 1 << ((u + c) % n)
    labels = tuple(CyclicElem(i, n) for i in range(n))
    return Graph(n, tuple(adj), labels)


def circular_graph(n: int, k: int) -> Graph:
    """The circulant with connection set {k, k+1, ..., n-k}."""
    if k < 1 or n < 2 * k:
        raise ValueError(f"circular family needs n >= 2k, got n={n}, k={k}")
    return circulant(n, range(k, n - k + 1))


def cycle_power(n: int, a: int) -> Graph:
    """The a-th power of an n-cycle: join vertices at circular distance <= a."""
    if a < 1:
        raise ValueError("cycle power needs a >= 1")
    if n < max(3, 2 * a):
        raise ValueError(f"cycle power needs n >= 2a (and n >= 3), got n={n}, a={a}")
    conn = {d for t in range(1, a + 1) for d in (t, n - t)}
    return circulant(n, conn)


def cayley_dihedral(n: int, gens) -> Graph:
    """Cayley graph of the dihedral group on [n]: u ~ v iff u^-1 v generates."""
    gset = frozenset(gens)
    if not gset:
        raise ValueError("generator set is empty")
    if any(g.n != n for g in gset):
        raise ValueError("generator ambient mismatch")
    if dihedral.identity(n) in gset:
        raise ValueError("generator set must not contain the identity")
    if any(dihedral.inverse(g) not in gset for g in gset):
        raise ValueError("generator set must be closed under inverses")
    verts = dihedral.all_elements(n)
    order = len(verts)
    inv = [dihedral.inverse(u) for u in verts]
    adj = [0] * order
    for i in range(order):
        for j in range(i + 1, order):
            if dihedral.compose(inv[i], verts[j]) in gset:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph(order, tuple(adj), tuple(verts))


def prop_iso_images(k: int, s: int) -> tuple[KSubset, ...]:
    """Images of 0..ks under the explicit circulant-to-stable-Kneser map.

    Vertex u = jk + i (0 <= j <= s-1, 0 <= i <= k-1) goes to the k-subset
    whose r-th element is j+1+(r-1)s for r <= k-i and j+2+(r-1)s above;
    the last vertex ks goes to {s+1, 2s+1, ..., ks+1}.
    """
    if k < 2 or s < 2:
        raise ValueError("the circulant map needs k, s >= 2")
    n = k * s + 1
    out = []
    for u in range(k * s):
        j, i = divmod(u, k)
        els = tuple(
            j + 1 + (r - 1) * s if r <= k - i else j + 2 + (r - 1) * s
            for r in range(1, k + 1)
        )
        out.append(KSubset(els, n))
    out.append(KSubset(tuple(m * s + 1 for m in range(1, k + 1)), n))
    return tuple(out)


def prop_iso_map(k: int, s: int) -> tuple[int, ...]:
    """Verified isomorphism circular_graph(ks+1, k) -> stable_kneser(ks+1, k, s).

    Entry u is the index of the image vertex. The formula is deterministic,
    so a checker failure is raised as a defect instead of being returned.
    """
    images = prop_iso_images(k, s)
    target = stable_kneser(k * s + 1, k, s)
    index = target.label_index()
    try:
        mapping = tuple(index[v] for v in images)
    except KeyError as missing:
        raise RuntimeError(f"map image {missing} is not an s-stable vertex") from None
    source = circular_graph(k * s + 1, k)
    if not verify_isomorphism(source, target, mapping):
        raise RuntimeError("explicit circulant map failed the isomorphism checker")
    return mapping


def circular_interval(n: int, start: int, k: int) -> KSubset:
    """The k-subset {start+1, ..., start+k} modulo [n]."""
    return KSubset(tuple(sorted(mod1(start + t, n) for t in range(1, k + 1))), n)


def embed_circular_in_kneser(n: int, k: int) -> tuple[int, ...]:
    """Map vertex u of circular_graph(n, k) to the interval {u+1, ..., u+k}.

    The image is the set of n circular intervals of length k; the map is an
    isomorphism onto the subgraph they induce in kneser(n, k), and that is
    verified here.
    """
    big = kneser(n, k)
    index = big.label_index()
    images = [circular_interval(n, u, k) for u in range(n)]
    mapping = tuple(index[v] for v in images)
    rank = {v: i for i, v in enumerate(sorted(mapping))}
    local = tuple(rank[v] for v in mapping)
    if not verify_isomorphism(circular_graph(n, k), induced_subgraph(big, mapping), local):
        raise RuntimeError("interval embedding failed the isomorphism checker")
    return mapping


_KINDS = ("kneser", "stable", "circular", "cyclepow", "circulant", "caydih")


@dataclass(frozen=True)
class FamilySpec:
    """A parsed family description, e.g. "stable:n=8,k=2,s=3"."""

    kind: str
    n: int
    k: int = 0
    s: int = 0
    a: int = 0
    conn: tuple[int, ...] = ()
    gens: tuple[str, ...] = ()

    @property
    def text(self) -> str:
        if self.kind == "kneser":
            return f"kneser:n={self.n},k={self.k}"
        if self.kind == "stable":
            return f"stable:n={self.n},k={self.k},s={self.s}"
        if self.kind == "circular":
            return f"circular:n={self.n},k={self.k}"
        if self.kind == "cyclepow":
            return f"cyclepow:n={self.n},a={self.a}"
        if self.kind == "circulant":
            return f"circulant:n={self.n},conn={','.join(map(str, self.conn))}"
        return f"caydih:n={self.n},gens={','.join(self.gens)}"

    def build(self) -> Graph:
        if self.kind == "kneser":
            return kneser(self.n, self.k)
        if self.kind == "stable":
            return stable_kneser(self.n, self.k, self.s)
        if self.kind == "circular":
            return circular_graph(self.n, self.k)
        if self.kind == "cyclepow":
            return cycle_power(self.n, self.a)
        if self.kind == "circulant":
            return circulant(self.n, self.conn)
        gens = frozenset(dihedral.parse_element(t, self.n) for t in self.gens)
        return cayley_dihedral(self.n, gens)


_REQUIRED_KEYS = {
    "kneser": ("n", "k"),
    "stable": ("n", "k", "s"),
    "circular": ("n", "k"),
    "cyclepow": ("n", "a"),
    "circulant": ("n", "conn"),
    "caydih": ("n", "gens"),
}


def parse_family_spec(text: str) -> FamilySpec:
    kind, _, body = text.strip().partition(":")
    kind = kind.strip()
    if kind not in _KINDS or not body:
        raise ValueError(f"unrecognized family spec {text!r}")
    params: dict[str, list[str]] = {}
    key = None
    for tok in body.split(","):
        if "=" in tok:
            key, _, val = tok.partition("=")
            key = key.strip()
            if key in params:
                raise ValueError(f"duplicate key {key!r} in {text!r}")
            params[key] = [val.strip()]
        elif key is None:
            raise ValueError(f"stray value {tok!r} in {text!r}")
        else:
            params[key].append(tok.strip())
    required = _REQUIRED_KEYS[kind]
    if set(params) != set(required):
        raise ValueError(f"{kind} spec needs keys {required}, got {sorted(params)}")

    def scalar(name: str) -> int:
        vals = params[name]
        if len(vals) != 1:
            raise ValueError(f"key {name!r} takes a single value")
        return int(vals[0])

    if kind == "kneser" or kind == "circular":
        return FamilySpec(kind, n=scalar("n"), k=scalar("k"))
    if kind == "stable":
        return FamilySpec(kind, n=scalar("n"), k=scalar("k"), s=scalar("s"))
    if kind == "cyclepow":
        return FamilySpec(kind, n=scalar("n"), a=scalar("a"))
    if kind == "circulant":
        return FamilySpec(kind, n=scalar("n"), conn=tuple(int(t) for t in params["conn"]))
    return FamilySpec(kind, n=scalar("n"), gens=tuple(params["gens"]))
