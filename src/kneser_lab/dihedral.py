"""The dihedral group of order 2n as explicit permutations of [n].

Elements come in three kinds, all arithmetic modulo [n] (n stands for 0):

* "r" (rotation, index i in 0..n-1):   x -> x + i
* "p" (reflexion, x -> 2i - x):        fixes i (and i + n/2 for even n);
  index range 1..n for odd n, 1..n/2 for even n
* "d" (reflexion, x -> 2i - 1 - x):    even n only, no fixed point,
  index range 1..n/2

The module also detects and predicts the shifts of stable Kneser graphs,
i.e. the automorphisms that move every vertex onto one of its neighbors,
and turns the symmetries that graph labels declare into verified vertex
permutations and their orbits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .graphs import Graph, GraphError, connected_components, label_automorphism, make_graph
from .labels import CyclicElem, KSubset
from .modn import mod1

_KIND_RANK = {"r": 0, "p": 1, "d": 2}


@dataclass(frozen=True)
class DihedralElement:
    kind: str
    index: int
    n: int

    def __post_init__(self):
        n, kind, i = self.n, self.kind, self.index
        if n < 3:
            raise ValueError("dihedral ambient needs n >= 3")
        if kind == "r":
            ok = 0 <= i < n
        elif kind == "p":
            ok = 1 <= i <= (n if n % 2 else n // 2)
        elif kind == "d":
            ok = n % 2 == 0 and 1 <= i <= n // 2
        else:
            raise ValueError(f"unknown element kind {kind!r}")
        if not ok:
            raise ValueError(f"index {i} out of range for kind {kind!r}, n={n}")

    @property
    def is_rotation(self) -> bool:
        return self.kind == "r"

    def apply(self, x: int) -> int:
        if not 1 <= x <= self.n:
            raise ValueError(f"point {x} outside 1..{self.n}")
        if self.kind == "r":
            return mod1(x + self.index, self.n)
        if self.kind == "p":
            return mod1(2 * self.index - x, self.n)
        return mod1(2 * self.index - 1 - x, self.n)

    def perm(self) -> tuple[int, ...]:
        """Images of 1..n, as a tuple."""
        return tuple(self.apply(x) for x in range(1, self.n + 1))

    def sort_key(self) -> tuple[int, int]:
        return (_KIND_RANK[self.kind], self.index)

    def __str__(self):
        return f"{self.kind}{self.index}"


def rotation(i: int, n: int) -> DihedralElement:
    return DihedralElement("r", i % n, n)


def rho(i: int, n: int) -> DihedralElement:
    return DihedralElement("p", i, n)


def delta(i: int, n: int) -> DihedralElement:
    return DihedralElement("d", i, n)


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
    if kind not in _KIND_RANK or not idx.lstrip("-").isdigit():
        raise ValueError(f"malformed dihedral element text {text!r}")
    return DihedralElement(kind, int(idx), n)


def _from_images(y1: int, y2: int, n: int) -> DihedralElement:
    """Canonical element sending 1 -> y1 and 2 -> y2."""
    if mod1(y1 + 1, n) == y2:
        return rotation(y1 - 1, n)
    if mod1(y1 - 1, n) != y2:
        raise ValueError("images are not those of a dihedral element")
    c = (y1 + 1) % n  # the element acts as x -> c - x
    if n % 2:
        return rho(mod1(c * ((n + 1) // 2), n), n)
    if c % 2 == 0:
        return rho(c // 2 if c else n // 2, n)
    return delta((c + 1) // 2, n)


def compose(a: DihedralElement, b: DihedralElement) -> DihedralElement:
    """The canonical element acting as x -> a(b(x))."""
    if a.n != b.n:
        raise ValueError(f"ambient mismatch: {a.n} vs {b.n}")
    return _from_images(a.apply(b.apply(1)), a.apply(b.apply(2)), a.n)


def inverse(a: DihedralElement) -> DihedralElement:
    if a.kind == "r":
        return rotation(-a.index, a.n)
    return a  # reflexions are involutions


def act_on_vertex(e: DihedralElement, v: KSubset) -> KSubset:
    """Elementwise image of a k-subset, re-sorted."""
    if v.ambient != e.n:
        raise ValueError(f"ambient mismatch: subset over [{v.ambient}], element over [{e.n}]")
    return KSubset(tuple(sorted(e.apply(x) for x in v.elements)), v.ambient)


def induced_automorphism(e: DihedralElement, g: Graph) -> tuple[int, ...]:
    """Vertex permutation induced by e on a graph with KSubset labels.

    Fails loudly if the action is not a graph automorphism, which would
    indicate a bug in the action rather than a property of the input.
    """
    labels = g.labels
    if not labels or not all(isinstance(l, KSubset) and l.ambient == e.n for l in labels):
        raise GraphError("graph must carry k-subset labels over the element's ground set")
    perm = label_automorphism(g, partial(act_on_vertex, e))
    if perm is None:
        raise GraphError(f"{e} does not induce an automorphism")
    return perm


def symmetry_root_candidates(h: Graph) -> int | None:
    """Bitmask with one target vertex per orbit of the symmetries h's labels
    declare (the residue shift of a circulant, left multiplication by r1 and
    p1 on a dihedral Cayley graph), or None when h declares none or one of
    them fails verification.
    """
    labels = h.labels
    first = labels[0] if labels else None
    if isinstance(first, CyclicElem) and all(
        isinstance(l, CyclicElem) and l.modulus == first.modulus for l in labels
    ):
        n = first.modulus
        acts = [lambda lab: CyclicElem((lab.value + 1) % n, n)]
    elif isinstance(first, DihedralElement) and all(
        isinstance(l, DihedralElement) and l.n == first.n for l in labels
    ):
        acts = [partial(compose, gen) for gen in (rotation(1, first.n), rho(1, first.n))]
    else:
        return None
    perms = [label_automorphism(h, act) for act in acts]
    if None in perms:
        return None
    moves = {(u, v) for perm in perms for u, v in enumerate(perm) if u != v}
    return sum(1 << orbit[0] for orbit in connected_components(make_graph(h.order, moves)))


def is_shift(e: DihedralElement, g: Graph) -> tuple[bool, int | None]:
    """Does e move every vertex onto a neighbor? Returns (answer, witness).

    The witness is a vertex index u with u not adjacent to e(u), or None.
    """
    perm = induced_automorphism(e, g)
    for u, img in enumerate(perm):
        if not g.has_edge(u, img):
            return False, u
    return True, None


@dataclass(frozen=True)
class ShiftSet:
    n: int
    k: int
    s: int
    members: frozenset
    provenance: str  # "brute-force" | "formula"

    def texts(self) -> tuple[str, ...]:
        return tuple(str(e) for e in sorted(self.members, key=DihedralElement.sort_key))

    def rotation_indices(self) -> tuple[int, ...]:
        return tuple(sorted(e.index for e in self.members if e.is_rotation))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "s": self.s,
            "elements": list(self.texts()),
            "provenance": self.provenance,
        }


def enumerate_shifts(g: Graph) -> ShiftSet:
    """Brute-force scan of all 2n dihedral elements of a stable Kneser graph."""
    labels = g.labels
    if not labels or not all(isinstance(l, KSubset) for l in labels):
        raise GraphError("shift enumeration needs a graph with k-subset labels")
    n = labels[0].ambient
    k = labels[0].k
    s = min(min(l.gaps()) for l in labels)
    members = frozenset(e for e in all_elements(n) if is_shift(e, g)[0])
    return ShiftSet(n, k, s, members, "brute-force")


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


def predicted_shifts(n: int, k: int, s: int) -> ShiftSet:
    members = frozenset(rotation(i, n) for i in predicted_shift_indices(n, k, s))
    return ShiftSet(n, k, s, members, "formula")


def non_shift_witness(e: DihedralElement, n: int, k: int, s: int) -> KSubset:
    """An s-stable vertex v with v and e(v) intersecting, certifying e is no shift.

    The construction is verified before being returned; a failure is an
    internal defect, not a property of the input.
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

    v = KSubset(tuple(sorted(els)), n)
    if not v.is_stable(s):
        raise RuntimeError(f"witness construction produced an unstable set {v} for {e}")
    image = act_on_vertex(e, v)
    if not set(v.elements) & set(image.elements):
        raise RuntimeError(f"witness {v} does not meet its image under {e}")
    return v
