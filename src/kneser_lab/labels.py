"""Vertex label values: k-subsets of [n] and residues mod n.

A graph label is any of: KSubset, CyclicElem, a dihedral group element, a
2-tuple of labels (cartesian products), or a bare int. Their text forms,
which carry labels through DIMACS comments, live in `dimacs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import lt


@dataclass(frozen=True, order=True)
class KSubset:
    """Strictly increasing k-subset of {1, ..., ambient}. A valid subset is
    accepted by one test (non-empty, first >= 1, last <= ambient, strictly
    increasing); only when it fails do the separate checks name the error."""

    elements: tuple[int, ...]
    ambient: int

    def __post_init__(self):
        els = tuple(self.elements)
        object.__setattr__(self, "elements", els)
        if els and 1 <= els[0] and els[-1] <= self.ambient and all(map(lt, els, els[1:])):
            return
        if not els:
            raise ValueError("subset must be non-empty")
        if any(e < 1 or e > self.ambient for e in els):
            raise ValueError(f"elements out of range 1..{self.ambient}: {els}")
        if any(a >= b for a, b in zip(els, els[1:])):
            raise ValueError(f"elements must be strictly increasing: {els}")

    def gaps(self) -> tuple[int, ...]:
        """Clockwise gaps between consecutive elements; k values summing to ambient."""
        els = self.elements
        inner = tuple(b - a for a, b in zip(els, els[1:]))
        return inner + (els[0] + self.ambient - els[-1],)

    def is_stable(self, s: int) -> bool:
        """True when every pair of elements is at circular distance >= s: the
        nearest pair is always neighbours on the cycle, so check the gaps."""
        return len(self.elements) < 2 or min(self.gaps()) >= s

    def __str__(self):
        return "{%s}@%d" % (",".join(map(str, self.elements)), self.ambient)


@dataclass(frozen=True, order=True)
class CyclicElem:
    """A residue modulo `modulus`, the vertex currency of circulant graphs."""

    value: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 1 or not 0 <= self.value < self.modulus:
            raise ValueError(f"residue {self.value} invalid modulo {self.modulus}")

    def __str__(self):
        return f"z{self.value}@{self.modulus}"
