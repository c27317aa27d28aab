from itertools import product

import pytest

from helpers import cycle_graph
from kneser_lab import cli
from kneser_lab.dihedral import delta, rho, rotation
from kneser_lab.dimacs import dimacs_dumps, dimacs_loads, format_label, parse_label, read_dimacs
from kneser_lab.families import kneser, stable_kneser
from kneser_lab.graphs import GraphError, make_graph
from kneser_lab.labels import CyclicElem, KSubset


def test_ksubset_validation():
    KSubset((1, 4), 6)
    with pytest.raises(ValueError):
        KSubset((4, 1), 6)
    with pytest.raises(ValueError):
        KSubset((0, 3), 6)
    with pytest.raises(ValueError):
        KSubset((2, 7), 6)
    with pytest.raises(ValueError):
        KSubset((), 6)


def _three_checks(els, ambient):
    """The validation as three separate checks: non-empty, in range, strictly
    increasing; the first that fails names the error."""
    if not els:
        raise ValueError("subset must be non-empty")
    if any(e < 1 or e > ambient for e in els):
        raise ValueError(f"elements out of range 1..{ambient}: {els}")
    if any(a >= b for a, b in zip(els, els[1:])):
        raise ValueError(f"elements must be strictly increasing: {els}")


def _outcome(build, *args):
    try:
        build(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def test_ksubset_one_pass_validation_matches_the_three_checks():
    for size in range(4):
        for els in product(range(-1, 6), repeat=size):
            assert _outcome(KSubset, els, 4) == _outcome(_three_checks, els, 4), els
    v = KSubset([1, 3], 4)
    assert v.elements == (1, 3) and type(v.elements) is tuple
    with pytest.raises(ValueError, match=r"strictly increasing: \(3, 1\)"):
        KSubset([3, 1], 4)


def test_ksubset_gaps_sum_to_ambient():
    v = KSubset((1, 4, 6), 9)
    assert v.gaps() == (3, 2, 4)
    assert sum(v.gaps()) == 9


def test_ksubset_ordering_is_lexicographic():
    a = KSubset((1, 3), 6)
    b = KSubset((1, 4), 6)
    c = KSubset((2, 4), 6)
    assert sorted([c, b, a]) == [a, b, c]


def test_cyclic_elem_validation():
    CyclicElem(0, 5)
    with pytest.raises(ValueError):
        CyclicElem(5, 5)
    with pytest.raises(ValueError):
        CyclicElem(-1, 5)


@pytest.mark.parametrize(
    "label",
    [
        KSubset((1, 4), 6),
        CyclicElem(3, 8),
        rotation(2, 6),
        rho(1, 7),
        delta(2, 8),
        (KSubset((2, 5), 7), CyclicElem(0, 4)),
        ((1, 2), (CyclicElem(1, 3), 4)),
        17,
    ],
)
def test_label_text_round_trip(label):
    assert parse_label(format_label(label)) == label


def test_dimacs_round_trip_plain():
    g = cycle_graph(6)
    text = dimacs_dumps(g)
    assert dimacs_loads(text) == g
    assert "e 1 2\ne " in text
    assert dimacs_loads(text.replace("e 1 2\n", "e 1 2\n\n")) == g  # a blank line is skipped


def test_dimacs_round_trip_with_labels():
    g = stable_kneser(6, 2, 2)
    text = dimacs_dumps(g)
    assert "c label 1 {1,3}@6" in text.splitlines()
    assert f"p edge {g.order} {g.edge_count}" in text.splitlines()
    assert dimacs_loads(text) == g


def test_dimacs_file_round_trip(tmp_path):
    g = kneser(5, 2)
    path = tmp_path / "petersen.dimacs"
    path.write_text(dimacs_dumps(g))
    assert read_dimacs(path) == g


def test_dimacs_rejects_garbage():
    with pytest.raises(GraphError):
        dimacs_loads("e 1 2\n")
    with pytest.raises(GraphError):
        dimacs_loads("p vertex 3 0\n")
    with pytest.raises(GraphError):
        dimacs_loads("c nothing here\n")


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("p edge 3 5\ne 1 2\ne 2 3\n", 1),
        ("p edge 3 1\ne 1\n", 2),
        ("p edge 3 0\np edge 5 0\n", 2),
        ("p edge 3 1\ne 1 2 3\n", 2),
        # only the first token names a line kind, and only "c", "p" and "e" exist
        ("p edge 2 1\nedge 1 2\n", 2),
        ("p edge 2 0\nx 1 2\n", 2),
        ("p edge 2 0\nn 1 5\n", 2),
        ("c label 1 z0@3\nc label 1 z2@3\np edge 1 0\n", 2),
        # fields that are no integers and labels that do not parse
        ("p edge x 1\n", 1),
        ("p edge 2 1\ne 1 x\n", 2),
        ("c label x z0@2\np edge 1 0\n", 1),
        ("c label 1 {1,x}@5\np edge 1 0\n", 1),
        ("c label 1 {3,1}@5\np edge 1 0\n", 1),
        ("c label 1 r9@4\np edge 1 0\n", 1),
        # endpoints are 1-based and distinct, and an order is not negative
        ("p edge 3 1\ne 1 4\n", 2),
        ("p edge 3 1\ne 0 1\n", 2),
        ("p edge 3 1\ne 2 2\n", 2),
        ("c comment\np edge -1 0\n", 2),
    ],
)
def test_dimacs_rejects_malformed_edges(tmp_path, capsys, text, lineno):
    with pytest.raises(GraphError, match=f"^line {lineno}: "):
        dimacs_loads(text)
    path = tmp_path / "bad.dimacs"
    path.write_text(text)
    assert cli.main(["chi", str(path)]) == 64
    err = capsys.readouterr().err
    assert f"error: line {lineno}: " in err and len(err.splitlines()) == 1


def test_deeply_nested_label_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "deep.dimacs"
    path.write_text("c label 1 " + "(" * 3000 + "1" + ",1)" * 3000 + "\np edge 1 0\n")
    assert cli.main(["construct", str(path)]) == 64
    err = capsys.readouterr().err
    assert "line 1" in err and len(err.splitlines()) == 1


def test_dimacs_rejects_partial_labels():
    g = make_graph(3, [(0, 1)], labels=[10, 11, 12])
    lines = dimacs_dumps(g).splitlines()
    del lines[1]
    with pytest.raises(GraphError):
        dimacs_loads("\n".join(lines))


def test_dimacs_one_based_endpoints():
    text = dimacs_dumps(make_graph(2, [(0, 1)]))
    assert "e 1 2" in text.splitlines()
