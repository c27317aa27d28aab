"""The dihedral group of order 2n acting on [n].

An element is the map x -> sign*x + offset on [n] (arithmetic modulo n, with
n standing for 0), where sign is +1 or -1 and 0 <= offset < n, so applying,
composing and inverting are one formula each. Names are used only for text:

* "r" (rotation, index i in 0..n-1):   x -> x + i
* "p" (reflexion, x -> 2i - x):        fixes i (and i + n/2 for even n);
  index range 1..n for odd n, 1..n/2 for even n
* "d" (reflexion, x -> 2i - 1 - x):    even n only, no fixed point,
  index range 1..n/2

Names enter through `rotation`, `rho`, `delta` and `parse_element`, which
check the index range, and leave through `kind`, `index` and `str()`.

The module also detects and predicts the shifts of stable Kneser graphs,
i.e. the automorphisms that move every vertex onto one of its neighbors.
`label_orbits` is the one reader of the symmetries labels declare: it
maps each vertex's plain key to its index, reads the permutations of r1 and
p1 (or +1 on residues) off that map, so no label is built or hashed, and
checks each once per graph with `graphs.verify_isomorphism`. Orbits,
stabilisers and each element's vertex images are read off the cycles of r1,
never multiplying the group out. Shifts are tested element by element on
those images; each public solver calls it once and hands its orbits to its
searches.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, GraphError, verify_isomorphism
from .labels import CyclicElem, KSubset


def mod1(x: int, n: int) -> int:
    """Reduce x to its representative in [n] = {1, ..., n}, n standing for 0."""
    return (x - 1) % n + 1


@dataclass(frozen=True)
class DihedralElement:
    """The map x -> sign*x + offset on [n]; sign is +-1 and 0 <= offset < n."""

    sign: int
    offset: int
    n: int

    @property
    def is_rotation(self) -> bool:
        return self.sign == 1

    @property
    def kind(self) -> str:
        if self.sign == 1:
            return "r"
        return "d" if self.n % 2 == 0 and self.offset % 2 else "p"

    @property
    def index(self) -> int:
        n, c = self.n, self.offset
        if self.sign == 1:
            return c
        if n % 2:
            return mod1(c * ((n + 1) // 2), n)  # 2i = c modulo odd n
        return c // 2 + 1 if c % 2 else c // 2 or n // 2

    def apply(self, x: int) -> int:
        if not 1 <= x <= self.n:
            raise ValueError(f"point {x} outside 1..{self.n}")
        return mod1(self.sign * x + self.offset, self.n)

    def __str__(self):
        return f"{self.kind}{self.index}"


def _named(kind: str, i: int, n: int) -> DihedralElement:
    """The element named kind + str(i) on [n], its index range checked."""
    if n < 3:
        raise ValueError("dihedral ambient needs n >= 3")
    if kind == "r":
        ok = 0 <= i < n
    elif kind == "p":
        ok = 1 <= i <= (n if n % 2 else n // 2)
    else:
        ok = n % 2 == 0 and 1 <= i <= n // 2
    if not ok:
        raise ValueError(f"index {i} out of range for kind {kind!r}, n={n}")
    if kind == "r":
        return DihedralElement(1, i, n)
    return DihedralElement(-1, (2 * i - (kind == "d")) % n, n)


def rotation(i: int, n: int) -> DihedralElement:
    return _named("r", i % n, n)


def rho(i: int, n: int) -> DihedralElement:
    return _named("p", i, n)


def delta(i: int, n: int) -> DihedralElement:
    return _named("d", i, n)


def identity(n: int) -> DihedralElement:
    return rotation(0, n)


def all_elements(n: int) -> list[DihedralElement]:
    """All 2n elements: the n rotations, then the reflexions in index order."""
    els = [rotation(i, n) for i in range(n)]
    if n % 2:
        els += [rho(i, n) for i in range(1, n + 1)]
    else:
        els += [rho(i, n) for i in range(1, n // 2 + 1)]
        els += [delta(i, n) for i in range(1, n // 2 + 1)]
    return els


def parse_element(text: str, n: int) -> DihedralElement:
    """Parse "r3" / "p2" / "d1"."""
    kind, idx = text[:1], text[1:]
    if kind not in ("r", "p", "d") or not idx.lstrip("-").isdigit():
        raise ValueError(f"malformed dihedral element text {text!r}")
    return _named(kind, int(idx), n)


def compose(a: DihedralElement, b: DihedralElement) -> DihedralElement:
    """The element acting as x -> a(b(x))."""
    if a.n != b.n:
        raise ValueError(f"ambient mismatch: {a.n} vs {b.n}")
    return DihedralElement(a.sign * b.sign, (a.sign * b.offset + a.offset) % a.n, a.n)


def inverse(a: DihedralElement) -> DihedralElement:
    return DihedralElement(a.sign, -a.sign * a.offset % a.n, a.n)


def act_on_vertex(e: DihedralElement, v: KSubset) -> KSubset:
    """Elementwise image of a k-subset, re-sorted."""
    if v.ambient != e.n:
        raise ValueError(f"ambient mismatch: subset over [{v.ambient}], element over [{e.n}]")
    return KSubset(tuple(sorted(e.apply(x) for x in v.elements)), v.ambient)


def label_orbits(g: Graph):
    """(each vertex's least orbit-mate, a map from v to the group members
    fixing v, the group's elements in `all_elements` order, a map from an
    element to the image of each vertex in turn) for the group g's labels
    declare, or None if a generator check fails or g declares no group.

    The group is the n rotations on residues mod n, and for n >= 3 all 2n
    elements on dihedral-element labels (by left multiplication) and on
    k-subsets of [n] (elementwise). Only r = r1 (+1 on residues) and p1 are
    checked, by `verify_isomorphism`: every element is a power r^i, alone or
    after p1 (x -> c - x is r^(c-2) after p1), so it is a product of
    automorphisms. Each vertex's key (a k-subset's elements, a residue's
    value, a dihedral label's (sign, offset)) maps to its index. A generator
    moves a key (through its point table, re-sorted; by +1; by `compose`'s
    formula) and the image key's index is the vertex's image; a key with no
    vertex fails the generator.
    p1 maps r-cycles onto r-cycles: v's orbit is its r-cycle, of length m,
    and that cycle's image. r^i fixes v when m divides i, and r^i after p1
    when r^i moves p1(v) to v. Every image is read off the cycles, so no
    element's permutation is kept."""
    labels = g.labels
    first = labels[0] if labels else None
    if isinstance(first, CyclicElem) and all(
        isinstance(l, CyclicElem) and l.modulus == first.modulus for l in labels
    ):
        n = first.modulus
        keys = [lab.value for lab in labels]
        acts = [lambda x: (x + 1) % n]
    elif isinstance(first, DihedralElement) and first.n >= 3 and all(
        isinstance(l, DihedralElement) and l.n == first.n for l in labels
    ):
        n = first.n
        keys = [(lab.sign, lab.offset) for lab in labels]
        acts = [
            lambda x, a=gen: (a.sign * x[0], (a.sign * x[1] + a.offset) % n)
            for gen in (rotation(1, n), rho(1, n))
        ]
    elif isinstance(first, KSubset) and first.ambient >= 3 and all(
        isinstance(l, KSubset) and l.ambient == first.ambient for l in labels
    ):
        n = first.ambient
        keys = [lab.elements for lab in labels]
        tables = [(0, *map(gen.apply, range(1, n + 1))) for gen in (rotation(1, n), rho(1, n))]
        acts = [lambda x, pt=pt: tuple(sorted([pt[y] for y in x])) for pt in tables]
    else:
        return None
    index = {key: v for v, key in enumerate(keys)}
    try:
        gens = [[index[act(key)] for key in keys] for act in acts]
    except KeyError:
        return None
    if not all(verify_isomorphism(g, g, perm) for perm in gens):
        return None
    r, *flips = gens
    # `rotation` rejects the residues mod 1 and 2
    elements = all_elements(n) if flips else [DihedralElement(1, i, n) for i in range(n)]
    cycle, place = [None] * g.order, [0] * g.order
    for v in range(g.order):
        if cycle[v] is None:  # ascending v: each cycle starts at its least vertex
            c = [v]
            while r[c[-1]] != v:
                c.append(r[c[-1]])
            for i, x in enumerate(c):
                cycle[x], place[x] = c, i

    def power(i: int, perm):  # r^i after perm, vertex by vertex
        return (cycle[x][(place[x] + i) % len(cycle[x])] for x in perm)

    def fixing(v: int) -> list[tuple[int, ...]]:
        m, firsts = len(cycle[v]), [(0, range(g.order))]
        firsts += [((place[v] - place[p[v]]) % m, p) for p in flips if cycle[p[v]] is cycle[v]]
        return [tuple(power(i, perm)) for first, perm in firsts for i in range(first, n, m)]

    def image(e: DihedralElement):
        return power(e.offset, range(g.order)) if e.sign == 1 else power(e.offset - 2, flips[0])

    leader = [min([cycle[v][0]] + [cycle[p[v]][0] for p in flips]) for v in range(g.order)]
    return leader, fixing, elements, image


def orbit_leaders(g: Graph) -> list[int]:
    """The `label_orbits` leaders; without a verified group each vertex leads."""
    return (label_orbits(g) or (list(range(g.order)),))[0]


def is_shift(e: DihedralElement, g: Graph) -> tuple[bool, int | None]:
    """Does e move every vertex onto a neighbor? Returns (answer, witness).

    The witness is the first vertex index u with u not adjacent to e(u), or
    None. GraphError when e is not in the group g's labels declare.
    """
    orbits = label_orbits(g)
    if orbits is None or e not in orbits[2]:
        raise GraphError(f"{e} on [{e.n}] does not act on the graph's labels")
    witness = next((u for u, img in enumerate(orbits[3](e)) if not g.has_edge(u, img)), None)
    return witness is None, witness


def enumerate_shifts(g: Graph) -> tuple[DihedralElement, ...]:
    """The elements of the group g's labels declare that move every vertex
    onto a neighbor, in `all_elements` order (by name); each element is
    tested vertex by vertex up to its first non-neighbor."""
    orbits = label_orbits(g)
    if orbits is None:
        raise GraphError("shift enumeration needs a graph whose labels declare a group")
    _, _, elements, image = orbits
    return tuple(e for e in elements if all(map(g.has_edge, range(g.order), image(e))))


def predicted_shift_indices(n: int, k: int, s: int) -> set[int]:
    """Rotation indices the shift characterization predicts for KG(n,k) s-stable.

    For n >= (k+1)s - 1 these are {1..s-1} and {n-s+1..n-1}; for
    sk+1 <= n <= (k+1)s - 2 the blocks {ms+r+1 .. (m+1)s-1} for
    m = 1..k-2 join them, where r = n - sk. Below n = sk+1 nothing is
    predicted and we refuse to guess.
    """
    if k < 2 or s < 2:
        raise ValueError("shift characterization needs k, s >= 2")
    if n <= s * k:
        raise ValueError(f"no shift characterization for n={n} <= s*k={s * k}")
    idx = set(range(1, s)) | set(range(n - s + 1, n))
    if n <= s * (k + 1) - 2:
        r = n - s * k
        for m in range(1, k - 1):
            idx |= set(range(m * s + r + 1, (m + 1) * s))
    return idx


def predicted_shifts(n: int, k: int, s: int) -> tuple[DihedralElement, ...]:
    return tuple(rotation(i, n) for i in sorted(predicted_shift_indices(n, k, s)))


def non_shift_witness(e: DihedralElement, n: int, k: int, s: int) -> KSubset:
    """An s-stable vertex v with v and e(v) intersecting, certifying e is no shift.

    The construction is unchecked here: the report row that uses it checks
    both properties, so a faulty witness grades as a failure.
    """
    if e.n != n:
        raise ValueError("ambient mismatch")
    if e.is_rotation and e.index == 0:
        # the identity moves no vertex; any vertex witnesses
        return KSubset(tuple(1 + t * s for t in range(k)), n)
    if e.is_rotation and e.index in predicted_shift_indices(n, k, s):
        raise ValueError(f"{e} is a shift, no witness exists")

    if e.kind == "p":
        # the fixed point stays put, so any vertex through it works
        els = [mod1(e.index + t * s, n) for t in range(k)]
    elif e.kind == "d":
        if k == 2:
            # pick the pair swapped by e at an odd circular distance in [s, n-s]
            d_star = s if s % 2 else s + 1
            x = mod1(((2 * e.index - 1 - d_star) % n) // 2, n)
            els = [x, mod1(2 * e.index - 1 - x, n)]
        else:
            els = [mod1(e.index + t * s, n) for t in range(k - 1)]
            els.append(mod1(e.index - s - 1, n))
    else:
        i = e.index
        if n >= (k + 1) * s - 1:
            if i <= k * s - 1:
                j = i // s
                els = [1 + t * s for t in range(j)]
                els += [mod1(1 + i + t * s, n) for t in range(k - j)]
            else:
                els = [1 + t * s for t in range(k - 1)] + [1 + i]
        else:
            d, t = divmod(i, s)
            els = [1] + [mod1(1 + m * s + t, n) for m in range(1, k)]

    return KSubset(tuple(sorted(els)), n)
