"""Constructors for every graph family the lab studies, plus the explicit
circulant description of the tight stable Kneser graphs.

Vertex order is canonical everywhere: lexicographic on labels for subset
families, residue order for circulants, group-element order for dihedral
Cayley graphs. All checks elsewhere reference labels, never raw indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import or_

from . import dihedral
from .graphs import Graph
from .labels import CyclicElem, KSubset


def enumerate_stable_subsets(n: int, k: int, s: int) -> list[KSubset]:
    """All s-stable k-subsets of [n] in lexicographic order. Spreading a k-subset y of
    [n - (k-1)(s-1)] to y_i + (i-1)(s-1) makes inner gaps >= s and keeps the order."""
    if k < 1 or s < 1 or n < k * s:
        raise ValueError(f"stable subsets need n >= k*s, got n={n}, k={k}, s={s}")
    spread = (tuple(y + i * (s - 1) for i, y in enumerate(ys))
              for ys in combinations(range(1, n - (k - 1) * (s - 1) + 1), k))
    return [KSubset(els, n) for els in spread if n - els[-1] + els[0] >= s]


def _disjointness_graph(verts: list[KSubset]) -> Graph:
    """Disjoint subsets are adjacent: row u is every vertex holding none of u's elements."""
    holders: dict[int, int] = {}
    for i, v in enumerate(verts):
        for x in v.elements:
            holders[x] = holders.get(x, 0) | 1 << i
    full = (1 << len(verts)) - 1
    adj = tuple(full & ~reduce(or_, (holders[x] for x in v.elements)) for v in verts)
    return Graph(len(verts), adj, tuple(verts))


def kneser(n: int, k: int) -> Graph:
    """k-subsets of [n]; edges join disjoint subsets."""
    if k < 1 or n < 2 * k:
        raise ValueError(f"Kneser family needs n >= 2k, got n={n}, k={k}")
    return _disjointness_graph(enumerate_stable_subsets(n, k, 1))


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
    """Cayley graph of the dihedral group on [n]: u ~ u g for each generator g,
    so u ~ v iff u^-1 v generates; closing gens under inverses makes it symmetric."""
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
    index = {u: i for i, u in enumerate(verts)}
    adj = tuple(sum(1 << index[dihedral.compose(u, g)] for g in gset) for u in verts)
    return Graph(len(verts), adj, tuple(verts))


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
    """The map circular_graph(ks+1, k) -> stable_kneser(ks+1, k, s) as indices.

    Entry u is the index of the image of vertex u, or -1 when the image is
    not an s-stable vertex. The map is unchecked here: the report rows and
    tests that use it check it, so a faulty formula grades as a failure.
    """
    images = prop_iso_images(k, s)
    index = {v.elements: i for i, v in enumerate(enumerate_stable_subsets(k * s + 1, k, s))}
    return tuple(index.get(v.elements, -1) for v in images)


def _caydih(n: int, gens: tuple[str, ...]) -> Graph:
    return cayley_dihedral(n, frozenset(dihedral.parse_element(t, n) for t in gens))


# kind -> (name of its builder in this module, spec keys in text order); the
# builder is looked up when called, so a rebound module function is the one used
_FAMILIES = {
    "kneser": ("kneser", ("n", "k")),
    "stable": ("stable_kneser", ("n", "k", "s")),
    "circular": ("circular_graph", ("n", "k")),
    "cyclepow": ("cycle_power", ("n", "a")),
    "circulant": ("circulant", ("n", "conn")),
    "caydih": ("_caydih", ("n", "gens")),
}


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
        fields = ((key, getattr(self, key)) for key in _FAMILIES[self.kind][1])
        return f"{self.kind}:" + ",".join(
            f"{key}={','.join(map(str, v)) if isinstance(v, tuple) else v}" for key, v in fields
        )

    def build(self) -> Graph:
        builder, keys = _FAMILIES[self.kind]
        return globals()[builder](*(getattr(self, key) for key in keys))


def _spec_value(key: str, vals: list[str]):
    if key == "gens":
        return tuple(vals)
    if key != "conn" and len(vals) != 1:
        raise ValueError(f"key {key!r} takes a single value")
    ints = []
    for t in vals:
        try:
            ints.append(int(t))
        except ValueError:
            raise ValueError(f"key {key!r} takes integers, got {t!r}") from None
    return tuple(ints) if key == "conn" else ints[0]


def parse_family_spec(text: str) -> FamilySpec:
    kind, _, body = text.strip().partition(":")
    kind = kind.strip()
    if kind not in _FAMILIES or not body:
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
    required = _FAMILIES[kind][1]
    if set(params) != set(required):
        raise ValueError(f"{kind} spec needs keys {required}, got {sorted(params)}")
    return FamilySpec(kind, **{key: _spec_value(key, params[key]) for key in required})
