import random
from itertools import combinations, product

import pytest

from helpers import (
    audit_graph,
    brute_cayley_edges,
    cycle_graph,
    disjoint_neighbours,
    is_stable_pairwise,
    named_perm,
    pairwise_distances,
    perm_inverse,
    stable_subsets_pairwise,
)
from kneser_lab.dihedral import all_elements, delta, rho, rotation
from kneser_lab.families import (
    cayley_dihedral,
    circulant,
    circular_graph,
    cycle_power,
    enumerate_stable_subsets,
    kneser,
    parse_family_spec,
    prop_iso_images,
    prop_iso_map,
    stable_kneser,
)
from kneser_lab.graphs import complement, complete_graph, connected_components
from kneser_lab.isomorphism import are_isomorphic, verify_isomorphism
from kneser_lab.labels import KSubset


def test_is_s_stable_examples():
    assert KSubset((1, 4), 6).is_stable(2)
    assert not KSubset((1, 2), 6).is_stable(2)
    # 1 and n count as consecutive
    assert not KSubset((1, 6), 6).is_stable(2)


def test_is_stable_matches_pairwise_definition():
    for n in range(1, 13):
        for k in range(1, n + 1):
            for els in combinations(range(1, n + 1), k):
                v = KSubset(els, n)
                for s in range(n + 2):
                    assert v.is_stable(s) == is_stable_pairwise(els, n, s), (els, n, s)


def test_enumerate_stable_subsets_7_2_3():
    got = enumerate_stable_subsets(7, 2, 3)
    assert len(got) == 7
    expected = {(1, 4), (2, 5), (3, 6), (4, 7), (1, 5), (2, 6), (3, 7)}
    assert {v.elements for v in got} == expected
    # lexicographic order is the canonical vertex indexing
    assert [v.elements for v in got] == sorted(v.elements for v in got)


@pytest.mark.parametrize("n,k,s,count", [(6, 2, 2, 9), (8, 2, 3, 12), (7, 2, 3, 7)])
def test_enumerate_stable_subsets_counts(n, k, s, count):
    got = enumerate_stable_subsets(n, k, s)
    assert len(got) == count
    assert {v.elements for v in got} == stable_subsets_pairwise(n, k, s)


def test_enumerate_stable_subsets_oracle_grid():
    # the list itself, not its set: the position of a subset is its vertex index
    for n, k, s in product(range(1, 17), range(1, 6), range(1, 6)):
        if n >= k * s:
            got = [v.elements for v in enumerate_stable_subsets(n, k, s)]
            assert got == sorted(stable_subsets_pairwise(n, k, s)), (n, k, s)


def _neighbour_sets(g):
    return [{v for v in range(g.order) if g.adj[u] >> v & 1} for u in range(g.order)]


def test_kneser_matches_disjointness_oracle():
    for n in range(2, 11):
        for k in range(1, n // 2 + 1):
            g = kneser(n, k)
            expected = list(combinations(range(1, n + 1), k))
            assert [v.elements for v in g.labels] == expected, (n, k)
            assert _neighbour_sets(g) == disjoint_neighbours(expected), (n, k)


def test_stable_kneser_matches_disjointness_oracle():
    for n, k, s in product(range(4, 15), range(2, 5), range(2, 5)):
        if n >= k * s:
            g = stable_kneser(n, k, s)
            expected = sorted(stable_subsets_pairwise(n, k, s))
            assert [v.elements for v in g.labels] == expected, (n, k, s)
            assert _neighbour_sets(g) == disjoint_neighbours(expected), (n, k, s)


def test_kneser_petersen():
    p = kneser(5, 2)
    assert p.order == 10 and p.edge_count == 15
    assert all(p.degree(u) == 3 for u in range(10))
    assert audit_graph(p)


def test_kneser_perfect_matching():
    g = kneser(4, 2)
    assert g.order == 6 and g.edge_count == 3
    assert all(g.degree(u) == 1 for u in range(6))


def test_kneser_rejects_small_n():
    with pytest.raises(ValueError):
        kneser(3, 2)


def test_stable_kneser_orders():
    assert stable_kneser(7, 2, 3).order == 7
    assert stable_kneser(6, 2, 2).order == 9
    assert stable_kneser(8, 2, 3).order == 12
    with pytest.raises(ValueError):
        stable_kneser(5, 2, 3)
    with pytest.raises(ValueError):
        stable_kneser(8, 2, 1)


def test_stable_kneser_is_induced_in_kneser():
    big = kneser(8, 2)
    sub = stable_kneser(8, 2, 3)
    big_index = big.label_index()
    for i, u in enumerate(sub.labels):
        for j, v in enumerate(sub.labels):
            assert sub.has_edge(i, j) == big.has_edge(big_index[u], big_index[v])


def test_circular_graph_c5():
    g = circular_graph(5, 2)
    assert are_isomorphic(g, cycle_graph(5)) is not None


def test_circular_graph_complete_when_k1():
    assert circular_graph(4, 1).adj == complete_graph(4).adj


def test_circular_rejects_small_n():
    with pytest.raises(ValueError):
        circular_graph(3, 2)


def test_cycle_power_matches_bfs_power():
    # the a-th power joins the vertices at distance 1..a on the cycle
    for n, a in ((8, 2), (9, 3), (5, 2)):
        cp = cycle_power(n, a)
        dist = pairwise_distances(cycle_graph(n))
        for u in range(n):
            for v in range(n):
                assert cp.has_edge(u, v) == (u != v and dist[u][v] <= a)
    assert all(cycle_power(8, 2).degree(u) == 4 for u in range(8))
    assert cycle_power(5, 2).adj == complete_graph(5).adj
    assert cycle_power(6, 1).adj == cycle_graph(6).adj


def test_cycle_power_complement_is_circular():
    assert complement(cycle_power(7, 1)) == circular_graph(7, 2)


def test_cycle_power_rejects_small_n():
    with pytest.raises(ValueError):
        cycle_power(3, 2)


def test_circulant_basics():
    assert circulant(6, {1, 5}).adj == cycle_graph(6).adj
    assert circulant(8, {1, 2, 6, 7}).adj == cycle_power(8, 2).adj


def test_circulant_validation():
    with pytest.raises(ValueError):
        circulant(8, {1, 2})  # not closed under negation
    with pytest.raises(ValueError):
        circulant(8, {0, 1, 7})


def test_circulant_rotation_is_automorphism():
    for n, conn in ((8, {1, 2, 6, 7}), (7, {2, 3, 4, 5}), (9, {1, 8})):
        g = circulant(n, conn)
        perm = [(v + 1) % n for v in range(n)]
        for u in range(n):
            for v in range(n):
                if u != v:
                    assert g.has_edge(u, v) == g.has_edge(perm[u], perm[v])


def test_cayley_dihedral_two_hexagons():
    g = cayley_dihedral(6, {rotation(1, 6), rotation(5, 6)})
    assert g.order == 12 and g.edge_count == 12
    comps = connected_components(g)
    assert [len(c) for c in comps] == [6, 6]
    assert all(g.degree(u) == 2 for u in range(12))


def test_cayley_dihedral_two_cycle_squares():
    gens = {rotation(i, 8) for i in (1, 2, 6, 7)}
    g = cayley_dihedral(8, gens)
    two = cycle_power(8, 2)
    from kneser_lab.graphs import disjoint_union

    assert are_isomorphic(g, disjoint_union(two, two)) is not None


def test_cayley_degree_is_generator_count():
    gens = {rho(1, 8), rho(2, 8), delta(1, 8)}
    g = cayley_dihedral(8, gens)
    assert all(g.degree(u) == 3 for u in range(16))


def _inverse_classes(n):
    """The non-identity elements of order 2n grouped with their inverses, as
    found from image tuples."""
    by_perm = {named_perm(str(e), n): e for e in all_elements(n)[1:]}
    classes = {frozenset((e, by_perm[perm_inverse(p)])) for p, e in by_perm.items()}
    return sorted(classes, key=lambda c: min(all_elements(n).index(e) for e in c))


def _generator_sets(n, masks):
    classes = _inverse_classes(n)
    for mask in masks:
        yield frozenset(e for i, c in enumerate(classes) if mask >> i & 1 for e in c)


def test_cayley_dihedral_matches_permutation_oracle():
    # every inverse-closed generator set for n <= 6, seeded ones up to n = 10
    rng = random.Random(2026)
    cases = [(n, range(1, 1 << len(_inverse_classes(n)))) for n in range(3, 7)]
    cases += [(n, [rng.randrange(1, 1 << len(_inverse_classes(n))) for _ in range(25)])
              for n in range(7, 11)]
    with_reflexions = 0
    for n, masks in cases:
        for gens in _generator_sets(n, masks):
            g = cayley_dihedral(n, gens)
            assert g.labels == tuple(all_elements(n))
            assert set(g.edges()) == brute_cayley_edges(n, g.labels, gens), (n, sorted(map(str, gens)))
            with_reflexions += any(not e.is_rotation for e in gens)
    assert with_reflexions > 500


def test_cayley_validation():
    with pytest.raises(ValueError):
        cayley_dihedral(6, {rotation(0, 6)})
    with pytest.raises(ValueError):
        cayley_dihedral(6, {rotation(1, 6)})  # inverse missing
    with pytest.raises(ValueError):
        cayley_dihedral(6, set())


def test_prop_iso_images_examples():
    phi = prop_iso_images(2, 2)
    assert phi[0] == KSubset((1, 3), 5)
    assert phi[1] == KSubset((1, 4), 5)
    assert phi[4] == KSubset((3, 5), 5)
    assert prop_iso_images(2, 3)[3] == KSubset((2, 6), 7)


def test_prop_iso_map_is_bijection_and_checked():
    for k, s in ((2, 2), (2, 3), (3, 2), (4, 2), (2, 4)):
        mapping = prop_iso_map(k, s)
        assert sorted(mapping) == list(range(k * s + 1))
        assert verify_isomorphism(
            circular_graph(k * s + 1, k), stable_kneser(k * s + 1, k, s), mapping
        )


def test_family_spec_round_trip():
    texts = [
        "kneser:n=5,k=2",
        "stable:n=8,k=2,s=3",
        "circular:n=7,k=2",
        "cyclepow:n=8,a=2",
        "circulant:n=8,conn=1,2,6,7",
        "caydih:n=8,gens=r1,r7",
    ]
    for text in texts:
        spec = parse_family_spec(text)
        assert spec.text == text
        g = spec.build()
        assert g.order > 0
        assert audit_graph(g)


def test_family_spec_build_values():
    assert parse_family_spec("caydih:n=6,gens=r1,r5").build().order == 12
    assert parse_family_spec("circulant:n=8,conn=1,2,6,7").build().adj == cycle_power(8, 2).adj


def test_family_spec_errors():
    for bad in (
        "nope:n=4",
        "kneser:n=5",
        "kneser:",
        "stable:n=8,k=2",
        "kneser:n=5,k=2,s=3",
        "circulant:n=8",
        "kneser:k=2,9",
    ):
        with pytest.raises(ValueError):
            parse_family_spec(bad)
    # a value that is no integer: the error names its key and the value
    for bad, key in (
        ("stable:n=x,k=2,s=2", "n"),
        ("circulant:n=5,conn=1,x", "conn"),
        ("stable:n=8,k=,s=2", "k"),
    ):
        with pytest.raises(ValueError, match=f"key '{key}' takes integers"):
            parse_family_spec(bad)


def test_gap_structure_tight_family():
    for k in (2, 3, 4):
        for s in (2, 3, 4):
            g = stable_kneser(k * s + 1, k, s)
            want = sorted([s] * (k - 1) + [s + 1])
            assert all(sorted(v.gaps()) == want for v in g.labels)


def test_vertex_count_tight_family():
    for k in (2, 3, 4, 5):
        for s in (2, 3, 4, 5):
            assert stable_kneser(k * s + 1, k, s).order == k * s + 1
