"""Vertex label values: k-subsets of [n], residues mod n, pairs, plain indices.

A graph label is any of: KSubset, CyclicElem, a dihedral group element, a
2-tuple of labels (cartesian products), or a bare int. Everything has a
stable text form so labels survive a round trip through DIMACS comments.
"""

from __future__ import annotations

from dataclasses import dataclass

from .modn import circular_distance


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
        """True when every pair of elements is at circular distance >= s."""
        els, n = self.elements, self.ambient
        return all(
            circular_distance(a, b, n) >= s
            for i, a in enumerate(els)
            for b in els[i + 1 :]
        )

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


def _split_pair(body: str) -> tuple[str, str]:
    depth = 0
    for i, ch in enumerate(body):
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        elif ch == "," and depth == 0:
            return body[:i], body[i + 1 :]
    raise ValueError(f"malformed pair label: ({body})")


def parse_label(text: str):
    """Inverse of format_label."""
    text = text.strip()
    if text.startswith("("):
        if not text.endswith(")"):
            raise ValueError(f"malformed pair label: {text}")
        a, b = _split_pair(text[1:-1])
        return (parse_label(a), parse_label(b))
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
