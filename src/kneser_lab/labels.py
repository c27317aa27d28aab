"""Vertex label values: k-subsets of [n], residues mod n, pairs, plain indices.

A graph label is any of: KSubset, CyclicElem, a dihedral group element, a
2-tuple of labels (cartesian products), or a bare int. Everything has a
stable text form so labels survive a round trip through DIMACS comments.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class KSubset:
    """Strictly increasing k-subset of {1, ..., ambient}."""

    elements: tuple[int, ...]
    ambient: int

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        els = self.elements
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


def format_label(label) -> str:
    """Canonical text form of a vertex label."""
    if isinstance(label, tuple):
        a, b = label
        return f"({format_label(a)},{format_label(b)})"
    if isinstance(label, (KSubset, CyclicElem)):
        return str(label)
    if isinstance(label, int):
        return str(label)
    # dihedral elements print as e.g. "r3"; append the ambient for parseability
    n = getattr(label, "n", None)
    if n is not None:
        return f"{label}@{n}"
    raise TypeError(f"unsupported label type {type(label).__name__}")


_SPACE = re.compile(r"\s*")
# a k-subset "{1,3}@6" or any other text up to the next bracket or comma
_LEAF = re.compile(r"\{[^{}]*\}[^(){},]*|[^(){},]*")


def _expect(text: str, i: int, token: str) -> int:
    """The index just past `token`, which must come next after blanks."""
    i = _SPACE.match(text, i).end()
    if not text.startswith(token, i):
        raise ValueError(f"malformed pair label: {text}")
    return i + 1


def _parse_from(text: str, i: int):
    """The label whose text starts at text[i], and the index just past it."""
    i = _SPACE.match(text, i).end()
    if text.startswith("(", i):
        first, i = _parse_from(text, i + 1)
        second, i = _parse_from(text, _expect(text, i, ","))
        return (first, second), _expect(text, i, ")")
    end = _LEAF.match(text, i).end()
    return _parse_leaf(text[i:end].strip()), end


def _parse_leaf(text: str):
    if text.startswith("{"):
        body, _, amb = text.partition("@")
        els = tuple(int(t) for t in body.strip("{}").split(","))
        return KSubset(els, int(amb))
    if text[:1] == "z" and "@" in text:
        val, _, mod = text[1:].partition("@")
        return CyclicElem(int(val), int(mod))
    if text[:1] in ("r", "p", "d") and "@" in text:
        from .dihedral import parse_element

        head, _, amb = text.partition("@")
        return parse_element(head, int(amb))
    return int(text)


def parse_label(text: str):
    """Inverse of format_label, in one pass over the text."""
    label, end = _parse_from(text, 0)
    if _SPACE.match(text, end).end() != len(text):
        raise ValueError(f"malformed label: {text}")
    return label
