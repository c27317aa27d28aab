"""DIMACS undirected edge-format reader and writer.

Header "p edge <order> <edges>", edge lines "e <u> <v>" with 1-based
endpoints, comments starting with "c". Vertex labels ride along in
comment lines of the form "c label <v> <text>": "{1,3}@6" for a KSubset,
"z2@7" for a CyclicElem, "r3@8" for a dihedral element, "(a,b)" for a pair
and the digits of a bare int.
"""

from __future__ import annotations

import re
from pathlib import Path

from .dihedral import DihedralElement, parse_element
from .graphs import Graph, GraphError, make_graph
from .labels import CyclicElem, KSubset


def format_label(label) -> str:
    """Canonical text form of a vertex label."""
    if isinstance(label, tuple):
        a, b = label
        return f"({format_label(a)},{format_label(b)})"
    if isinstance(label, (KSubset, CyclicElem, int)):
        return str(label)
    if isinstance(label, DihedralElement):
        # elements print as e.g. "r3"; append the ambient for parseability
        return f"{label}@{label.n}"
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
        head, _, amb = text.partition("@")
        return parse_element(head, int(amb))
    return int(text)


def parse_label(text: str):
    """Inverse of format_label, in one pass over the text."""
    label, end = _parse_from(text, 0)
    if _SPACE.match(text, end).end() != len(text):
        raise ValueError(f"malformed label: {text}")
    return label


def dimacs_dumps(g: Graph) -> str:
    lines = []
    if g.labels is not None:
        for v, lab in enumerate(g.labels):
            lines.append(f"c label {v + 1} {format_label(lab)}")
    lines.append(f"p edge {g.order} {g.edge_count}")
    for u, v in g.edges():
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def dimacs_loads(text: str) -> Graph:
    """Parse DIMACS text; a GraphError on a malformed line names that line."""
    order = None
    edges = []
    labels: dict[int, object] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        parts = line.split()
        try:
            if not parts:
                continue
            if parts[0] == "p":
                if order is not None:
                    raise GraphError(f"repeated problem line: {line!r}")
                if len(parts) < 4 or parts[1] != "edge" or int(parts[2]) < 0:
                    raise GraphError(f"malformed problem line: {line!r}")
                order, declared, problem_line = int(parts[2]), int(parts[3]), lineno
            elif parts[0] == "e":
                if order is None:
                    raise GraphError("edge line before the problem line")
                if len(parts) != 3:
                    raise GraphError(f"edge line needs exactly two endpoints: {line!r}")
                u, v = int(parts[1]), int(parts[2])
                if u == v or not (1 <= u <= order and 1 <= v <= order):
                    raise GraphError(f"edge {u} {v} is a loop or leaves 1..{order}")
                edges.append((u - 1, v - 1))
            elif not parts[0].startswith("c"):
                raise GraphError(f"no comment, 'p' or 'e' line: {line!r}")
            elif len(parts) >= 4 and parts[1] == "label":
                v = int(parts[2]) - 1
                if v in labels:
                    raise GraphError(f"labels vertex {v + 1} a second time")
                try:
                    labels[v] = parse_label(line.split(maxsplit=3)[3])
                except RecursionError:
                    raise GraphError("label nested too deeply to parse") from None
        except ValueError as err:  # GraphError, or a field or label that does not parse
            raise GraphError(f"line {lineno}: {err}") from None
    if order is None:
        raise GraphError("missing 'p edge' header")
    if len(edges) != declared:
        raise GraphError(f"line {problem_line}: declares {declared} edges, found {len(edges)}")
    lab_tuple = None
    if labels:
        if sorted(labels) != list(range(order)):
            raise GraphError("label comments must cover every vertex exactly once")
        lab_tuple = tuple(labels[i] for i in range(order))
    return make_graph(order, edges, lab_tuple)


def read_dimacs(path) -> Graph:
    return dimacs_loads(Path(path).read_text())
