import random

from helpers import random_graph
from kneser_lab.graphs import (
    cartesian_product,
    complete_graph,
    cycle_graph,
    make_graph,
    path_graph,
)
from kneser_lab.isomorphism import are_isomorphic, verify_isomorphism


def test_k3_vs_path_not_isomorphic():
    assert are_isomorphic(complete_graph(3), path_graph(3)) is None


def test_found_maps_verify_both_ways():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(1, 11)
        g = random_graph(rng, n, 0.5)
        perm = list(range(n))
        rng.shuffle(perm)
        h = make_graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
        mapping = are_isomorphic(g, h)
        assert mapping is not None
        assert verify_isomorphism(g, h, mapping)
        inverse = [0] * n
        for u, w in enumerate(mapping):
            inverse[w] = u
        assert verify_isomorphism(h, g, inverse)


def test_same_degree_sequence_not_enough():
    # both 3-regular on 10 vertices with 15 edges, but girth 4 vs girth 5
    from kneser_lab.families import kneser

    prism = cartesian_product(cycle_graph(5), complete_graph(2))
    petersen = kneser(5, 2)
    assert prism.edge_count == petersen.edge_count
    assert sorted(prism.degree(u) for u in range(10)) == sorted(
        petersen.degree(u) for u in range(10)
    )
    assert are_isomorphic(prism, petersen) is None


def test_non_isomorphic_same_counts():
    # two 6-vertex 2-regular graphs: one hexagon vs two triangles
    hexagon = cycle_graph(6)
    triangles = make_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert are_isomorphic(hexagon, triangles) is None


def test_verify_rejects_non_bijection():
    g = cycle_graph(4)
    assert not verify_isomorphism(g, g, (0, 0, 1, 2))
    assert not verify_isomorphism(g, g, (0, 2, 1, 3))


def test_verify_needs_equal_edge_counts():
    # the identity P3 -> K3 is bijective and edge-preserving, but misses an edge
    assert not verify_isomorphism(path_graph(3), complete_graph(3), (0, 1, 2))


def test_verify_matches_pairwise_definition():
    rng = random.Random(57)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, 0.5)
        hidden = rng.sample(range(n), n)
        relabelled = make_graph(n, [(hidden[u], hidden[v]) for u, v in g.edges()])
        h = rng.choice([relabelled, random_graph(rng, n, 0.5)])
        perm = rng.choice([hidden, rng.sample(range(n), n)])
        pairwise = all(
            g.has_edge(u, v) == h.has_edge(perm[u], perm[v])
            for u in range(n)
            for v in range(u + 1, n)
        )
        assert verify_isomorphism(g, h, perm) == pairwise
        seen.add(pairwise)
    assert seen == {True, False}
