import random
from functools import partial

import pytest

from helpers import (
    audit_graph,
    cycle_graph,
    empty_graph,
    label_automorphism,
    path_graph,
    random_graph,
    reference_components,
    reference_is_homomorphism,
)
from kneser_lab import graphs
from kneser_lab.dihedral import act_on_vertex, rho, rotation
from kneser_lab.families import circular_graph, stable_kneser
from kneser_lab.graphs import (
    GraphError,
    cartesian_product,
    complement,
    complete_graph,
    connected_components,
    delete_vertex,
    disjoint_union,
    induced_subgraph,
    iter_bits,
    make_graph,
    row_bits,
    verify_homomorphism,
)
from kneser_lab.homsolver import find_homomorphism
from kneser_lab.isomorphism import are_isomorphic


def test_iter_bits():
    assert list(iter_bits(0)) == []
    assert list(iter_bits(0b101101)) == [0, 2, 3, 5]


def test_row_bits_matches_iter_bits():
    # random rows of widths 1-300 and 1,369 at densities 0, 0.05, 0.5 and 1,
    # plus the empty row, the top bit alone and all ones at each width
    rng = random.Random(34)
    identity = list(range(1369))
    for width in [*range(1, 301), 1369]:
        rows = [0, 1 << width - 1, (1 << width) - 1]
        rows += [sum(1 << v for v in range(width) if rng.random() < p) for p in (0, 0.05, 0.5, 1)]
        rank = rng.sample(range(width), width)  # names that are not the identity
        for row in rows:
            assert row_bits(row, identity) == list(iter_bits(row))
            assert row_bits(row, rank) == [rank[v] for v in iter_bits(row)]


def test_make_graph_smallest_edge():
    k2 = make_graph(2, [(0, 1)])
    assert k2.edge_count == 1 and k2.has_edge(0, 1) and k2.has_edge(1, 0)


def test_make_graph_empty():
    g = make_graph(3, [])
    assert g.order == 3 and g.edge_count == 0


def test_make_graph_cycle_degrees():
    c4 = make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert all(c4.degree(u) == 2 for u in range(4))


def test_make_graph_dedupes():
    g = make_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


def test_make_graph_rejects_loops_and_range():
    with pytest.raises(GraphError):
        make_graph(3, [(1, 1)])
    with pytest.raises(GraphError):
        make_graph(3, [(0, 3)])


def test_labels_must_be_distinct():
    with pytest.raises(GraphError):
        make_graph(2, [], labels=["a", "a"])
    with pytest.raises(GraphError):
        make_graph(2, [], labels=["a"])


def test_complement_k4_is_empty():
    assert complement(complete_graph(4)).edge_count == 0


def test_complement_involution_random():
    rng = random.Random(7)
    for _ in range(20):
        g = random_graph(rng, rng.randint(0, 12), 0.4)
        assert complement(complement(g)) == g


def test_complement_c5_self_complementary():
    c5 = cycle_graph(5)
    assert are_isomorphic(c5, complement(c5)) is not None


def test_cartesian_k2_k2_is_c4():
    prod = cartesian_product(complete_graph(2), complete_graph(2))
    assert are_isomorphic(prod, cycle_graph(4)) is not None


def test_cartesian_order_and_degree():
    rng = random.Random(11)
    g = random_graph(rng, 5, 0.5)
    h = random_graph(rng, 4, 0.5)
    prod = cartesian_product(g, h)
    assert prod.order == 20
    for u in range(5):
        for v in range(4):
            assert prod.degree(u * 4 + v) == g.degree(u) + h.degree(v)


def test_cartesian_c5_c5():
    prod = cartesian_product(cycle_graph(5), cycle_graph(5))
    assert prod.order == 25
    assert all(prod.degree(u) == 4 for u in range(25))


def test_cartesian_commutative_up_to_iso():
    rng = random.Random(5)
    g = random_graph(rng, 4, 0.5)
    h = random_graph(rng, 5, 0.4)
    assert are_isomorphic(cartesian_product(g, h), cartesian_product(h, g)) is not None


def test_cartesian_associative_up_to_iso():
    a, b, c = cycle_graph(3), complete_graph(2), path_graph(2)
    left = cartesian_product(cartesian_product(a, b), c)
    right = cartesian_product(a, cartesian_product(b, c))
    assert are_isomorphic(left, right) is not None


def test_disjoint_union_two_hexagons():
    two = disjoint_union(cycle_graph(6), cycle_graph(6))
    assert two.order == 12 and two.edge_count == 12
    assert [len(c) for c in connected_components(two)] == [6, 6]


def test_disjoint_union_with_empty_is_identity():
    g = cycle_graph(5)
    assert disjoint_union(g, empty_graph(0)) == g


def test_disjoint_union_component_count_adds():
    rng = random.Random(13)
    g = random_graph(rng, 6, 0.3)
    h = random_graph(rng, 7, 0.3)
    both = disjoint_union(g, h)
    assert len(connected_components(both)) == len(connected_components(g)) + len(
        connected_components(h)
    )


def test_connected_components_match_reference_walk():
    rng = random.Random(29)
    isolated = 0
    for order in range(15):
        for p in (0.05, 0.15, 0.3):
            g = random_graph(rng, order, p)
            comps = connected_components(g)
            assert comps == reference_components(g)
            isolated += sum(len(c) == 1 for c in comps)
    assert isolated > 0


def _greedy_colouring(g):
    colours = []
    for u in range(g.order):
        taken = {colours[v] for v in iter_bits(g.adj[u]) if v < u}
        colours.append(next(c for c in range(g.order) if c not in taken))
    return colours


def _corrupted(rng, mapping, target_order):
    bad = list(mapping)
    if bad:
        bad[rng.randrange(len(bad))] = rng.randrange(target_order)
    return bad


def _map_checks(rng):
    """(g, h, mapping) triples on seeded random graphs of order 0-70:
    bijections onto a relabelled copy and onto g itself, proper colourings
    and random maps into small complete and random targets, and each valid
    map with one entry replaced."""
    checks = []
    for order in range(71):
        g = random_graph(rng, order, rng.choice([0.1, 0.3, 0.6, 0.9]))
        perm = list(range(order))
        rng.shuffle(perm)
        copy = make_graph(order, [(perm[u], perm[v]) for u, v in g.edges()])
        colours = _greedy_colouring(g)
        k = max(colours, default=0) + 1
        small = random_graph(rng, rng.randint(1, 6), 0.7)
        checks += [
            (g, copy, perm),
            (g, copy, _corrupted(rng, perm, order)),
            (g, g, perm),
            (g, complete_graph(k), colours),
            (g, complete_graph(k), _corrupted(rng, colours, k)),
            (g, complete_graph(k), [rng.randrange(k) for _ in range(order)]),
            (g, small, [rng.randrange(small.order) for _ in range(order)]),
        ]
    return checks


@pytest.fixture
def tables(monkeypatch):
    """The `base` of every `_fibre_table` the map checker builds."""
    built = []
    build = graphs._fibre_table

    def counted(fibre, base):
        built.append(base)
        return build(fibre, base)

    monkeypatch.setattr(graphs, "_fibre_table", counted)
    return built


def test_map_checker_matches_edge_by_edge_reference(tables):
    # on targets of more than 16 vertices, rows denser than their byte count
    # are pulled back through fibre tables, the rest bit by bit; orders 0-70
    # give partial last bytes and nibbles
    rng = random.Random(24)
    checks = _map_checks(rng)
    g = stable_kneser(30, 5, 5)  # degree 371 against 95 bytes a row
    for gen in (rotation(1, 30), rho(1, 30)):
        perm = label_automorphism(g, partial(act_on_vertex, gen))
        swapped = list(perm)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        checks += [(g, g, perm), (g, g, swapped), (g, g, _corrupted(rng, perm, g.order))]
    verdicts = []
    for g, h, mapping in checks:
        verdict = verify_homomorphism(g, h, mapping)
        assert verdict == reference_is_homomorphism(g, h, mapping)
        verdicts.append(verdict)
    assert verdicts.count(True) > 100 and verdicts.count(False) > 100
    dense = [h.degree(y) > (h.order + 7) // 8 for _, h, _ in checks for y in range(h.order)]
    assert dense.count(True) > 1000 and dense.count(False) > 1000
    assert len(tables) > 1000


def test_small_targets_build_no_fibre_table(tables):
    # a target of at most 16 vertices is walked bit by bit, as building its
    # tables costs more than it saves; a wider target's dense rows use them
    colouring = [u % 2 for u in range(9)] + [2]
    assert verify_homomorphism(cycle_graph(10), complete_graph(3), colouring)
    assert not verify_homomorphism(cycle_graph(10), complete_graph(3), [0] + colouring[1:-1] + [0])
    assert verify_homomorphism(complete_graph(16), complete_graph(16), list(range(16)))
    assert tables == []
    g = circular_graph(140, 30)  # degree 81 against 18 bytes a row
    assert verify_homomorphism(g, g, [(u + 1) % 140 for u in range(140)])
    assert tables


def _fibre_checks(rng):
    """(g, h, mapping) triples with h.order < g.order on seeded random sources
    of order 2-70 and targets of order 1-20: a random graph pulled back
    through a map that may miss target vertices, proper colourings into K_k,
    constant maps, random maps, square maps the search finds, and each valid
    map with one entry replaced."""
    checks = []
    for order in range(2, 71):
        h = random_graph(rng, rng.randint(1, min(20, order - 1)), rng.choice([0.2, 0.5, 0.8]))
        image = rng.sample(range(h.order), rng.randint(1, h.order))
        pull = [rng.choice(image) for _ in range(order)]
        p = rng.choice([0.3, 0.7, 1.0])
        pulled = make_graph(order, [(u, v) for u in range(order) for v in range(u + 1, order)
                                    if h.has_edge(pull[u], pull[v]) and rng.random() < p])
        g = random_graph(rng, order, rng.choice([0.05, 0.2, 0.5]))
        colours = _greedy_colouring(g)
        k = max(colours) + 1
        const = [rng.randrange(h.order)] * order
        checks += [
            (pulled, h, pull),
            (pulled, h, _corrupted(rng, pull, h.order)),
            (g, h, [rng.randrange(h.order) for _ in range(order)]),
            (g, h, const),
            (empty_graph(order), h, const),
        ]
        if k < order:
            checks += [(g, complete_graph(k), colours),
                       (g, complete_graph(k), _corrupted(rng, colours, k))]
    for base in (cycle_graph(5), complete_graph(3), stable_kneser(7, 3, 2), stable_kneser(7, 2, 3)):
        square = cartesian_product(base, base)
        found = list(find_homomorphism(square, base).homomorphism.mapping)
        checks += [(square, base, found)] + [(square, base, _corrupted(rng, found, base.order))
                                               for _ in range(5)]
    return checks


def test_fibre_check_matches_edge_by_edge_reference():
    # maps into fewer vertices are checked fibre by fibre; a malformed entry
    # is refused before any edge is read
    rng = random.Random(32)
    verdicts = []
    for g, h, mapping in _fibre_checks(rng):
        assert h.order < g.order
        verdict = verify_homomorphism(g, h, mapping)
        assert verdict == reference_is_homomorphism(g, h, mapping)
        verdicts.append(verdict)
        u = rng.randrange(g.order)
        for bad in (float(mapping[u]), True, None, str(mapping[u]), -1, h.order):
            assert not verify_homomorphism(g, h, mapping[:u] + [bad] + mapping[u + 1:])
    assert verdicts.count(True) >= 100 and verdicts.count(False) >= 100


def test_induced_subgraph_full_is_identity():
    rng = random.Random(17)
    g = random_graph(rng, 8, 0.5)
    assert induced_subgraph(g, range(8)) == g


def test_induced_subgraph_of_k5():
    assert induced_subgraph(complete_graph(5), {0, 1, 2}) == complete_graph(3)


def test_induced_subgraph_rejects_out_of_range():
    with pytest.raises(GraphError):
        induced_subgraph(complete_graph(3), {0, 5})


def test_delete_vertex():
    assert delete_vertex(complete_graph(3), 1) == complete_graph(2)
    p4 = delete_vertex(cycle_graph(5), 0)
    assert are_isomorphic(p4, path_graph(4)) is not None
    rng = random.Random(19)
    g = random_graph(rng, 9, 0.4)
    assert delete_vertex(g, 4).order == 8
    with pytest.raises(GraphError):
        delete_vertex(g, 9)


def test_structural_audit_over_constructions():
    rng = random.Random(23)
    graphs = [
        complete_graph(6),
        cycle_graph(7),
        path_graph(5),
        empty_graph(4),
        complement(cycle_graph(6)),
        cartesian_product(cycle_graph(4), complete_graph(3)),
        disjoint_union(cycle_graph(3), complete_graph(4)),
        induced_subgraph(complete_graph(7), {1, 3, 5}),
    ]
    graphs += [random_graph(rng, rng.randint(0, 14), 0.5) for _ in range(10)]
    for g in graphs:
        assert audit_graph(g)

