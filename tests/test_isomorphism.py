import random
from itertools import combinations

import pytest

from helpers import brute_isomorphic, cycle_graph, path_graph, random_graph
from kneser_lab.budget import BudgetExhausted, SearchBudget
from kneser_lab.families import circular_graph, stable_kneser
from kneser_lab.graphs import cartesian_product, complete_graph, make_graph
from kneser_lab.isomorphism import _joint_refinement, are_isomorphic, verify_isomorphism


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
    # two 6-vertex 2-regular graphs: one hexagon vs two triangles; refinement
    # alone must tell them apart, without a search node
    hexagon = cycle_graph(6)
    triangles = make_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert are_isomorphic(hexagon, triangles, SearchBudget(0, None)) is None


def test_search_agrees_with_permutation_oracle():
    rng = random.Random(83)
    seen = set()
    for _ in range(150):
        n = rng.randint(1, 7)
        g = random_graph(rng, n, 0.5)
        if rng.random() < 0.5:
            perm = rng.sample(range(n), n)
            h = make_graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
        else:
            h = make_graph(n, rng.sample(list(combinations(range(n), 2)), g.edge_count))
        verdict = brute_isomorphic(g, h)
        assert (are_isomorphic(g, h) is not None) == verdict
        seen.add(verdict)
    assert seen == {True, False}


def test_refinement_blind_pair_is_refuted_by_search():
    # the 4x4 rook's graph and the Shrikhande graph are both strongly
    # regular (16,6,2,2): refinement gives one class, the search decides
    rook = cartesian_product(complete_graph(4), complete_graph(4))
    steps = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    shrikhande = make_graph(16, [
        (u, v)
        for u in range(16)
        for v in range(u + 1, 16)
        if ((v // 4 - u // 4) % 4, (v % 4 - u % 4) % 4) in steps
    ])
    assert shrikhande.edge_count == rook.edge_count == 48
    assert are_isomorphic(rook, shrikhande) is None


def test_search_honours_the_budget():
    g, h = circular_graph(17, 4), stable_kneser(17, 4, 4)
    with pytest.raises(BudgetExhausted):
        are_isomorphic(g, h, SearchBudget(5, None))
    assert verify_isomorphism(g, h, are_isomorphic(g, h))


def test_forced_placements_cost_no_search_node():
    # refinement separates every vertex, so propagation places all of them
    # and the search decides at its root node
    rng = random.Random(1)
    g = random_graph(rng, 8, 0.4)
    perm = rng.sample(range(8), 8)
    h = make_graph(8, [(perm[u], perm[v]) for u, v in g.edges()])
    assert len(set(_joint_refinement(g, h)[0])) == 8
    assert are_isomorphic(g, h, SearchBudget(1, None)) == tuple(perm)


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
