import random
from itertools import combinations

import pytest

from helpers import (
    brute_isomorphic,
    cycle_graph,
    path_graph,
    random_graph,
    reference_arc_consistency,
    reference_joint_refinement,
)
from kneser_lab import isomorphism
from kneser_lab.budget import BudgetExhausted, SearchBudget
from kneser_lab.dihedral import enumerate_shifts
from kneser_lab.families import cayley_dihedral, circular_graph, cycle_power, stable_kneser
from kneser_lab.graphs import (
    cartesian_product,
    complement,
    complete_graph,
    connected_components,
    disjoint_union,
    iter_bits,
    make_graph,
)
from kneser_lab.isomorphism import _edges_and_non_edges, _refine, are_isomorphic, verify_isomorphism


def _relabelled(g, seed):
    """g with its vertices renamed by a seeded random permutation, unlabelled."""
    perm = random.Random(seed).sample(range(g.order), g.order)
    return make_graph(g.order, [(perm[u], perm[v]) for u, v in g.edges()])


def _union_colours(g, h):
    """`_refine` on g + h from component sizes, split back into g and h."""
    union = disjoint_union(g, h)
    size = {u: len(comp) for comp in connected_components(union) for u in comp}
    colors = _refine(union, [size[u] for u in range(union.order)])
    return colors[: g.order], colors[g.order :]


def _oracle_pairs():
    rng = random.Random(2215)
    for _ in range(120):
        n = rng.randint(0, 12)
        g = random_graph(rng, n, rng.choice((0.2, 0.5, 0.8)))
        yield g, rng.choice((_relabelled(g, rng.randrange(1 << 30)), random_graph(rng, n, 0.5)))
    for _ in range(40):
        # disconnected, with components of unequal sizes on either side
        a, b, c = (random_graph(rng, rng.randint(1, 6), 0.6) for _ in range(3))
        g = disjoint_union(a, b)
        yield g, rng.choice((_relabelled(g, rng.randrange(1 << 30)), disjoint_union(c, a)))
    yield cycle_graph(6), make_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    for k in (2, 3, 4):  # the iso grid
        for s in (2, 3, 4):
            yield circular_graph(k * s + 1, k), stable_kneser(k * s + 1, k, s)
    for n, s in ((6, 2), (7, 2), (8, 3)):  # the homidem-negative-shape rows
        piece = cycle_power(n, s - 1)
        cay = cayley_dihedral(n, enumerate_shifts(stable_kneser(n, 2, s)))
        yield cay, disjoint_union(piece, piece)
    h = stable_kneser(12, 2, 2)
    yield _relabelled(h, 3), h


def test_union_refinement_matches_the_joint_reference():
    # refining g + h from component sizes must give the colours of the
    # former two-graph refinement, vertex for vertex
    pairs = 0
    for g, h in _oracle_pairs():
        assert _union_colours(g, h) == reference_joint_refinement(g, h)
        pairs += 1
    assert pairs == 174


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
    # a relabelled SG(12,2,2) needs 108 nodes against SG(12,2,2)
    h = stable_kneser(12, 2, 2)
    g = _relabelled(h, 1)
    with pytest.raises(BudgetExhausted):
        are_isomorphic(g, h, SearchBudget(5, None))
    assert verify_isomorphism(g, h, are_isomorphic(g, h))


@pytest.mark.parametrize("args", [(12, 2, 2), (14, 2, 3)], ids=str)
def test_relabelled_stable_kneser_graph_is_decided_quickly(args):
    # refinement leaves one colour class on these regular graphs; propagating
    # non-edges as well as edges decides them in 579 and 216 nodes, where
    # propagating only from decided vertices took 7,899 and 8,004
    h = stable_kneser(*args)
    g = _relabelled(h, 0)
    assert verify_isomorphism(g, h, are_isomorphic(g, h, SearchBudget(2_000, None)))


def _rook_and_shrikhande():
    # both strongly regular (16,6,2,2): refinement gives one class
    rook = cartesian_product(complete_graph(4), complete_graph(4))
    steps = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    shrikhande = make_graph(16, [
        (u, v)
        for u in range(16)
        for v in range(u + 1, 16)
        if ((v // 4 - u // 4) % 4, (v % 4 - u % 4) % 4) in steps
    ])
    return rook, shrikhande


def _exact_node_cases():
    h = stable_kneser(12, 2, 2)
    yield "SG(12,2,2) seed 0", _relabelled(h, 0), h, 579, True
    yield "SG(12,2,2) seed 1", _relabelled(h, 1), h, 108, True
    h = stable_kneser(14, 2, 3)
    yield "SG(14,2,3) seed 0", _relabelled(h, 0), h, 216, True
    yield "rook vs Shrikhande", *_rook_and_shrikhande(), 129, False


@pytest.mark.parametrize("case", list(_exact_node_cases()), ids=lambda case: case[0])
def test_exact_isomorphism_node_counts(case):
    # a search needs exactly N nodes: one fewer exhausts, N decides
    _, g, h, nodes, isomorphic = case
    with pytest.raises(BudgetExhausted):
        are_isomorphic(g, h, SearchBudget(nodes - 1, None))
    found = are_isomorphic(g, h, SearchBudget(nodes, None))
    assert verify_isomorphism(g, h, found) if isomorphic else found is None


def test_found_bijection_must_pass_the_checker(monkeypatch):
    # a search that returns a bijection of C6 swapping two adjacent vertices
    # (0 1 2 3 4 5 -> 1 0 2 3 4 5 sends the edge 1 ~ 2 to the non-edge 0, 2)
    # is caught by the re-check
    swap = lambda doms, enforce, clock, sym: (1, 0, 2, 3, 4, 5)
    assert are_isomorphic(cycle_graph(6), cycle_graph(6)) is not None
    monkeypatch.setattr(isomorphism, "_run_search", swap)
    with pytest.raises(RuntimeError):
        are_isomorphic(cycle_graph(6), cycle_graph(6))


def test_start_domains_are_the_colour_classes_of_h(monkeypatch):
    # each vertex of g starts with the vertices of h in its refined colour
    # class; the reference tests every pair of vertices
    run_search = isomorphism._run_search
    received = []

    def recording(doms, *rest):
        received.append(list(doms))
        return run_search(doms, *rest)

    monkeypatch.setattr(isomorphism, "_run_search", recording)
    pairs = [(g, h) for _, g, h, _, _ in _exact_node_cases()]
    rng = random.Random(2816)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 12), 0.4)
        pairs.append((g, _relabelled(g, rng.randrange(1 << 30))))
    for g, h in pairs:
        received.clear()
        are_isomorphic(g, h)
        cg, ch = _union_colours(g, h)
        n = g.order
        assert received == [[sum(1 << w for w in range(n) if ch[w] == cg[u]) for u in range(n)]]


def _reference_joint_fixpoint(g, h, doms):
    """Alternate the reference arc consistency on edges and on non-edges
    until neither changes a domain; None once either wipes one out."""
    pairs = ((g, h), (complement(g), complement(h)))
    doms, last = [set(iter_bits(d)) for d in doms], None
    while doms != last:
        last = doms
        for pair in pairs:
            doms = reference_arc_consistency(*pair, doms)
            if doms is None:
                return None
    return doms


def test_propagator_reaches_the_reference_joint_fixpoint():
    # from random start domains with every vertex changed, and from the
    # search's step (one vertex of a fixpoint narrowed to a singleton, only
    # it changed), enforce must stop at the reference's domains or wipe out
    # exactly where the reference does
    rng = random.Random(2114)
    outcomes = set()
    for _ in range(80):
        n = rng.randint(0, 9)
        g, h = (random_graph(rng, n, rng.choice((0.3, 0.5, 0.7))) for _ in range(2))
        enforce = _edges_and_non_edges(g, h)
        full = (1 << n) - 1
        runs = [([full] * n, range(n))]
        for _ in range(3 if n else 0):
            runs.append(([rng.randrange(1, full + 1) for _ in range(n)], range(n)))
        while runs:
            start, seeds = runs.pop()
            doms = list(start)
            survived = enforce(doms, seeds) and all(doms)
            expected = _reference_joint_fixpoint(g, h, start)
            assert ([set(iter_bits(d)) for d in doms] if survived else None) == expected
            outcomes.add(survived)
            if survived and len(seeds) > 1:
                for u in range(n):
                    for a in iter_bits(doms[u]):
                        runs.append((doms[:u] + [1 << a] + doms[u + 1 :], (u,)))
    assert outcomes == {True, False}


def test_forced_placements_cost_no_search_node():
    # refinement separates every vertex, so propagation places all of them
    # and the search decides at its root node
    rng = random.Random(1)
    g = random_graph(rng, 8, 0.4)
    perm = rng.sample(range(8), 8)
    h = make_graph(8, [(perm[u], perm[v]) for u, v in g.edges()])
    assert len(set(_union_colours(g, h)[0])) == 8
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
