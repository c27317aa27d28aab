"""DIMACS undirected edge-format reader and writer.

Header "p edge <order> <edges>", edge lines "e <u> <v>" with 1-based
endpoints, comments starting with "c". Vertex labels ride along in
comment lines of the form "c label <v> <text>".
"""

from __future__ import annotations

from pathlib import Path

from .graphs import Graph, GraphError, make_graph
from .labels import format_label, parse_label


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
    order = None
    edges = []
    labels: dict[int, object] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "p":
            if order is not None:
                raise GraphError(f"repeated problem line: {line!r}")
            if len(parts) < 4 or parts[1] != "edge":
                raise GraphError(f"malformed problem line: {line!r}")
            order, declared = int(parts[2]), int(parts[3])
        elif parts[0] == "e":
            if order is None:
                raise GraphError("edge line before the problem line")
            if len(parts) != 3:
                raise GraphError(f"edge line needs exactly two endpoints: {line!r}")
            edges.append((int(parts[1]) - 1, int(parts[2]) - 1))
        elif not parts[0].startswith("c"):
            raise GraphError(f"line {lineno} is no comment, 'p' or 'e' line: {line!r}")
        elif len(parts) >= 4 and parts[1] == "label":
            v = int(parts[2]) - 1
            if v in labels:
                raise GraphError(f"line {lineno} labels vertex {v + 1} a second time")
            try:
                labels[v] = parse_label(line.split(maxsplit=3)[3])
            except RecursionError:
                raise GraphError(f"line {lineno}: label nested too deeply to parse") from None
    if order is None:
        raise GraphError("missing 'p edge' header")
    if len(edges) != declared:
        raise GraphError(f"problem line declares {declared} edges, found {len(edges)}")
    lab_tuple = None
    if labels:
        if sorted(labels) != list(range(order)):
            raise GraphError("label comments must cover every vertex exactly once")
        lab_tuple = tuple(labels[i] for i in range(order))
    return make_graph(order, edges, lab_tuple)


def read_dimacs(path) -> Graph:
    return dimacs_loads(Path(path).read_text())
