import random
import tracemalloc
from functools import partial
from itertools import product

import pytest

from helpers import (
    cycle_graph,
    declared_elements,
    declared_perms,
    label_action,
    label_automorphism,
    named_perm,
    perm_inverse,
)
from kneser_lab import dihedral
from kneser_lab.dihedral import (
    DihedralElement,
    act_on_vertex,
    all_elements,
    compose,
    delta,
    enumerate_shifts,
    identity,
    inverse,
    is_shift,
    label_orbits,
    mod1,
    non_shift_witness,
    orbit_leaders,
    parse_element,
    predicted_shift_indices,
    predicted_shifts,
    rho,
    rotation,
)
from kneser_lab.dimacs import format_label, parse_label
from kneser_lab.families import (
    cayley_dihedral,
    circulant,
    cycle_power,
    kneser,
    parse_family_spec,
    stable_kneser,
)
from kneser_lab.graphs import Graph, GraphError, complete_graph, delete_vertex, induced_subgraph
from kneser_lab.harness import load_manifest
from kneser_lab.labels import CyclicElem, KSubset


def _texts(elements):
    return tuple(str(e) for e in elements)


def test_rotation_wraps():
    assert rotation(1, 6).apply(6) == 1
    assert rotation(1, 6).apply(1) == 2
    assert rotation(5, 6).apply(2) == 1


def test_rho_fixes_its_index():
    p1 = rho(1, 7)
    assert p1.apply(1) == 1
    assert p1.apply(2) == 7
    # even case fixes both i and i + n/2
    p2 = rho(2, 8)
    assert p2.apply(2) == 2 and p2.apply(6) == 6


def test_delta_has_no_fixed_point():
    d1 = delta(1, 8)
    assert d1.apply(1) == 8 and d1.apply(8) == 1
    for n in (6, 8, 10):
        for i in range(1, n // 2 + 1):
            assert all(delta(i, n).apply(x) != x for x in range(1, n + 1))


def test_element_counts_and_distinctness():
    for n in range(3, 11):
        els = all_elements(n)
        assert len(els) == 2 * n
        assert len({tuple(map(e.apply, range(1, n + 1))) for e in els}) == 2 * n


def test_index_ranges_enforced():
    with pytest.raises(ValueError):
        parse_element("r6", 6)
    with pytest.raises(ValueError):
        rho(4, 6)  # even n caps rho at n/2
    with pytest.raises(ValueError):
        delta(1, 7)  # delta needs even n
    with pytest.raises(ValueError):
        parse_element("x1", 6)


def test_compose_matches_pointwise_everywhere():
    for n in (7, 8):
        els = all_elements(n)
        for a, b in product(els, els):
            c = compose(a, b)
            assert all(c.apply(x) == a.apply(b.apply(x)) for x in range(1, n + 1))


def test_compose_rotation_addition():
    assert compose(rotation(2, 7), rotation(3, 7)) == rotation(5, 7)


def test_inverse():
    assert inverse(rotation(1, 9)) == rotation(8, 9)
    for n in (7, 8):
        for e in all_elements(n):
            assert compose(e, inverse(e)) == identity(n)
            assert compose(inverse(e), e) == identity(n)


def test_rotation_reflexion_parity_rule_even():
    # composing sigma^j with rho_i lands on delta for odd j, rho for even j,
    # with index i + ceil(j/2) reduced into 1..n/2
    n = 8
    for j in range(1, n):
        for i in range(1, n // 2 + 1):
            got = compose(rotation(j, n), rho(i, n))
            if j % 2:
                assert got.kind == "d"
                assert got.index == mod1(i + (j + 1) // 2, n // 2)
            else:
                assert got.kind == "p"
                assert got.index == mod1(i + j // 2, n // 2)


def test_rotation_reflexion_parity_rule_odd():
    n = 7
    for j in range(1, n):
        for i in range(1, n + 1):
            got = compose(rotation(j, n), rho(i, n))
            assert got.kind == "p"
            if j % 2:
                assert got.index == mod1(i + (n - 1) // 2 + (j + 1) // 2, n)
            else:
                assert got.index == mod1(i + j // 2, n)


def test_associativity_sampled():
    rng = random.Random(47)
    for n in (7, 8, 9):
        els = all_elements(n)
        for _ in range(60):
            a, b, c = (rng.choice(els) for _ in range(3))
            assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_act_on_vertex():
    assert act_on_vertex(rotation(1, 6), KSubset((1, 4), 6)) == KSubset((2, 5), 6)
    assert act_on_vertex(rotation(1, 6), KSubset((3, 6), 6)) == KSubset((1, 4), 6)
    with pytest.raises(ValueError):
        act_on_vertex(rotation(1, 6), KSubset((1, 4), 7))


def test_action_preserves_stability_exhaustively():
    g = stable_kneser(8, 2, 3)
    for e in all_elements(8):
        for v in g.labels:
            assert act_on_vertex(e, v).is_stable(3)


def test_induced_automorphism_identity():
    image = label_orbits(stable_kneser(7, 2, 3))[3]
    assert tuple(image(identity(7))) == tuple(range(7))


def test_rotations_form_cyclic_subgroup():
    image = label_orbits(stable_kneser(7, 2, 3))[3]
    base = tuple(image(rotation(1, 7)))
    perm = tuple(range(7))
    perms = set()
    for i in range(7):
        assert tuple(image(rotation(i, 7))) == perm
        perms.add(perm)
        perm = tuple(base[x] for x in perm)
    assert len(perms) == 7


def test_every_element_induces_automorphism_small_n():
    # edge and non-edge preservation, exhaustively checked
    for n, k, s in ((6, 2, 2), (8, 2, 3), (10, 3, 3), (12, 2, 4)):
        g = stable_kneser(n, k, s)
        _, _, elements, image = label_orbits(g)
        assert elements == all_elements(n)
        for e in elements:
            perm = tuple(image(e))
            assert sorted(perm) == list(range(g.order))
            for u in range(g.order):
                for v in range(u + 1, g.order):
                    assert g.has_edge(u, v) == g.has_edge(perm[u], perm[v])


def _oracle_graphs():
    """(name, graph) for every shift-grid graph, KG(7,2), KG(10,4) and one
    or two graphs of each other label kind."""
    cfg = load_manifest()["shift_grid"]
    for k in cfg["k_values"]:
        for s in cfg["s_values"]:
            for n in range(s * k + 1, min((k + 2) * s, cfg["n_cap"]) + 1):
                yield f"SG({n},{k},{s})", stable_kneser(n, k, s)
    yield "KG(7,2)", kneser(7, 2)
    yield "KG(10,4)", kneser(10, 4)
    for text in ("circular:n=13,k=4", "circulant:n=8,conn=1,2,6,7", "caydih:n=6,gens=r1,r5,p1"):
        yield text, parse_family_spec(text).build()


ORACLE_GRAPHS = dict(_oracle_graphs())


@pytest.mark.parametrize("name", ORACLE_GRAPHS)
def test_generator_products_match_each_label_action(name):
    # every element's images, read off the cycles of the verified r1 and p1
    # (whose images label_orbits looks up among g's own labels by key),
    # against the element's own label action, which builds a fresh label per
    # vertex, verified on its own
    g = ORACLE_GRAPHS[name]
    _, _, elements, image = label_orbits(g)
    assert elements == declared_elements(g)
    for e in elements:
        assert tuple(image(e)) == label_automorphism(g, partial(label_action, e)), (name, e)


def test_enumerate_shifts_verifies_only_the_generators(monkeypatch):
    calls = []
    check = dihedral.verify_isomorphism

    def counted(g, h, perm):
        calls.append(perm)
        return check(g, h, perm)

    monkeypatch.setattr(dihedral, "verify_isomorphism", counted)
    g = stable_kneser(13, 3, 4)
    assert enumerate_shifts(g) == predicted_shifts(13, 3, 4)
    assert len(calls) == 2
    calls.clear()
    assert is_shift(rotation(1, 13), g) == (True, None)
    assert len(calls) == 2


def test_shifts_of_a_long_cycle_keep_no_permutation_per_element():
    # one image tuple per rotation of the 4,001-cycle would take over 100 MiB
    g = cycle_power(4001, 1)
    tracemalloc.start()
    try:
        assert enumerate_shifts(g) == (rotation(1, 4001), rotation(4000, 4001))
        shifts_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert is_shift(rotation(1, 4001), g) == (True, None)
        is_shift_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert shifts_peak < 8 << 20 and is_shift_peak < 8 << 20


def test_not_vertex_transitive_witness():
    g = stable_kneser(6, 2, 2)
    src = g.label_index()[KSubset((1, 3), 6)]
    dst = g.label_index()[KSubset((1, 4), 6)]
    for perm in declared_perms(g).values():
        assert perm[src] != dst


def test_is_shift_examples():
    g = stable_kneser(8, 2, 2)
    assert is_shift(rotation(1, 8), g) == (True, None)
    ok, witness = is_shift(identity(8), g)
    assert not ok and witness is not None
    for i in range(1, 5):
        ok, witness = is_shift(rho(i, 8), g)
        assert not ok
        v = g.labels[witness]
        assert set(v.elements) & set(act_on_vertex(rho(i, 8), v).elements)


def test_induced_automorphism_requires_subset_labels():
    assert label_orbits(cycle_graph(6)) is None
    assert label_orbits(induced_subgraph(stable_kneser(8, 2, 3), range(5))) is None


def _circulants():
    """Every circulant on at most 9 vertices, with its connection set."""
    for n in range(1, 10):
        halves = range(1, n // 2 + 1)
        for mask in range(1 << len(halves)):
            conn = {c for i, c in enumerate(halves) if mask >> i & 1}
            conn |= {n - c for c in conn}
            yield conn, circulant(n, conn)


def _cayley_graphs():
    """Seeded dihedral Cayley graphs for n = 3..8, and one per n on all the
    reflexions, with their generator sets."""
    rng = random.Random(5)
    for n in range(3, 9):
        els = all_elements(n)
        sets = [set(els[n:])]
        for _ in range(6):
            picked = rng.sample(els[1:], rng.randint(1, 3))
            sets.append({*picked, *map(inverse, picked)})
        for gens in sets:
            yield gens, cayley_dihedral(n, gens)


def _labelled_graphs():
    """Graphs with each of the three label kinds that declare a group."""
    yield from (g for _, g in _circulants())
    yield from (g for _, g in _cayley_graphs())
    yield kneser(5, 2)
    for n, k, s in ((6, 2, 2), (7, 2, 3), (8, 3, 2), (9, 2, 3), (10, 2, 4)):
        yield stable_kneser(n, k, s)


def test_label_orbits_images_match_each_label_action_on_every_label_kind():
    # residue, dihedral and k-subset labels: each element's images, read off
    # the cycles of r1, against its own label action verified on its own
    for g in _labelled_graphs():
        _, _, elements, image = label_orbits(g)
        perms = declared_perms(g)
        assert elements == list(perms)
        for e in elements:
            assert tuple(image(e)) == perms[e]


def test_root_candidates_meet_every_orbit_once_on_every_label_kind():
    for g in _labelled_graphs():
        leader = orbit_leaders(g)
        index = g.label_index()
        for label in g.labels:
            orbit = {index[label_action(e, label)] for e in declared_elements(g)}
            assert sum(leader[v] == v for v in orbit) == 1


def test_orbit_leaders_are_the_least_image_under_the_whole_group():
    for g in _labelled_graphs():
        perms = declared_perms(g).values()
        assert orbit_leaders(g) == [min(p[v] for p in perms) for v in range(g.order)]
    # no verified group: every vertex leads its own orbit
    for g in (cycle_graph(6), induced_subgraph(stable_kneser(8, 2, 3), range(5))):
        assert orbit_leaders(g) == list(range(g.order))


def test_label_orbits_stabilisers_are_the_group_members_fixing_a_vertex():
    # read off the cycles of r1, with multiplicity, against each element's own
    # label action; pairs fixed by a reflexion have stabilisers of order 2 or more
    for g in _labelled_graphs():
        perms = list(declared_perms(g).values())
        leader, fixing, _, _ = label_orbits(g)
        assert leader == orbit_leaders(g)
        for v in range(g.order):
            assert sorted(fixing(v)) == sorted(p for p in perms if p[v] == v)
    assert label_orbits(cycle_graph(6)) is None


def test_enumerate_shifts_matches_circulant_and_cayley_oracles():
    # x -> x + c is a shift of a circulant exactly when c is in its connection set
    for conn, g in _circulants():
        assert enumerate_shifts(g) == tuple(DihedralElement(1, c, g.order) for c in sorted(conn))
    # on Cay(D_n, S), u ~ ug for g in S, so u ~ xu exactly when u^-1 x u is in S;
    # the conjugates are worked out on image tuples built from the names
    for gens, g in _cayley_graphs():
        n = g.labels[0].n
        targets = {named_perm(str(t), n) for t in gens}
        perms = [named_perm(str(u), n) for u in all_elements(n)]
        expected = tuple(
            x
            for x, xp in zip(all_elements(n), perms)
            if all(tuple(perm_inverse(u)[xp[y - 1] - 1] for y in u) in targets for u in perms)
        )
        assert enumerate_shifts(g) == expected
    assert _texts(enumerate_shifts(circulant(8, {1, 2, 6, 7}))) == ("r1", "r2", "r6", "r7")
    caydih = parse_family_spec("caydih:n=6,gens=r1,r5,p1").build()
    assert _texts(enumerate_shifts(caydih)) == ("r1", "r5")


def test_is_shift_agrees_with_enumerate_shifts_on_every_element():
    for g in (circulant(8, {1, 2, 6, 7}), cayley_dihedral(5, set(all_elements(5)[5:]))):
        shifts = enumerate_shifts(g)
        for e, perm in declared_perms(g).items():
            ok, witness = is_shift(e, g)
            assert ok == (e in shifts)
            assert witness == next((u for u in range(g.order) if not g.has_edge(u, perm[u])), None)
    with pytest.raises(GraphError):
        is_shift(rho(1, 8), circulant(8, {1, 7}))  # residues declare rotations only
    with pytest.raises(GraphError):
        is_shift(rotation(1, 7), stable_kneser(8, 2, 3))
    with pytest.raises(GraphError):
        enumerate_shifts(induced_subgraph(stable_kneser(8, 2, 3), range(5)))


def test_enumerate_shifts_frozen_values():
    assert _texts(enumerate_shifts(stable_kneser(8, 2, 2))) == ("r1", "r7")
    assert _texts(enumerate_shifts(stable_kneser(7, 2, 3))) == ("r1", "r2", "r5", "r6")
    assert _texts(enumerate_shifts(stable_kneser(10, 3, 3))) == ("r1", "r2", "r5", "r8", "r9")


def test_predicted_shifts_regimes():
    assert _texts(predicted_shifts(8, 2, 2)) == ("r1", "r7")
    # second regime with k = 2 leaves the extra union empty
    assert _texts(predicted_shifts(7, 2, 3)) == ("r1", "r2", "r5", "r6")
    assert _texts(predicted_shifts(10, 3, 3)) == ("r1", "r2", "r5", "r8", "r9")
    assert predicted_shift_indices(10, 3, 3) == {1, 2, 5, 8, 9}
    assert predicted_shift_indices(13, 4, 3) == {1, 2, 5, 8, 11, 12}
    with pytest.raises(ValueError):
        predicted_shifts(6, 2, 3)  # n <= s*k
    with pytest.raises(ValueError):
        predicted_shifts(9, 1, 3)


def test_shift_sets_closed_under_inverse_no_reflexions():
    for n, k, s in ((8, 2, 2), (7, 2, 3), (10, 3, 3), (13, 3, 4)):
        got = enumerate_shifts(stable_kneser(n, k, s))
        assert identity(n) not in got
        assert all(e.is_rotation for e in got)
        assert all(inverse(e) in got for e in got)


def test_non_shift_witness_examples():
    w = non_shift_witness(rho(1, 7), 7, 2, 3)
    assert 1 in w.elements and w.is_stable(3)
    assert non_shift_witness(rotation(3, 10), 10, 3, 3) == KSubset((1, 4, 7), 10)
    assert non_shift_witness(rotation(4, 8), 8, 2, 2) == KSubset((1, 5), 8)


def test_non_shift_witness_rejects_shifts():
    with pytest.raises(ValueError):
        non_shift_witness(rotation(1, 8), 8, 2, 2)


def test_non_shift_witness_grid():
    for k in (2, 3):
        for s in (2, 3, 4):
            for n in range(s * k + 1, min((k + 2) * s, 14) + 1):
                predicted = {rotation(i, n) for i in predicted_shift_indices(n, k, s)}
                for e in all_elements(n):
                    if e in predicted:
                        continue
                    w = non_shift_witness(e, n, k, s)
                    assert w.is_stable(s)
                    assert set(w.elements) & set(act_on_vertex(e, w).elements)


def test_element_names_round_trip():
    # names are worked out from the action x -> sign*x + offset, so each name
    # must parse back to its element and describe the element's images
    for n in range(3, 13):
        els = all_elements(n)
        for e in els:
            assert parse_element(str(e), n) == e
            assert parse_label(format_label(e)) == e
            assert tuple(map(e.apply, range(1, n + 1))) == named_perm(str(e), n)
        assert len({str(e) for e in els}) == 2 * n


def test_parse_element():
    assert parse_element("r3", 8) == rotation(3, 8)
    assert parse_element("p2", 8) == rho(2, 8)
    assert parse_element("d1", 8) == delta(1, 8)
    with pytest.raises(ValueError):
        parse_element("q1", 8)
    with pytest.raises(ValueError):
        parse_element("r9", 8)


def _relabelled(text: str) -> list[Graph]:
    """The graph `text` builds with its labels shuffled by four seeded
    permutations, then relabelled by one group element (vertex v takes the
    image of its label), which keeps the declared group a group of
    automorphisms."""
    g, rng = parse_family_spec(text).build(), random.Random(text)
    graphs = []
    for _ in range(4):
        labels = list(g.labels)
        rng.shuffle(labels)
        graphs.append(Graph(g.order, g.adj, tuple(labels)))
    e = rng.choice(declared_elements(g)[1:])
    return graphs + [Graph(g.order, g.adj, tuple(label_action(e, lab) for lab in g.labels))]


def test_label_orbits_fails_where_the_constructing_actions_fail():
    g = stable_kneser(9, 2, 2)
    r1 = partial(label_action, rotation(1, 9))
    # a vertex whose image is no label of the graph
    deleted = delete_vertex(g, 0)
    assert any(r1(lab) not in deleted.label_index() for lab in deleted.labels)
    assert label_automorphism(deleted, r1) is None
    assert label_orbits(deleted) is None
    # every image a label, but r1 is no automorphism of the relabelled graph
    swapped = Graph(g.order, g.adj, (g.labels[1], g.labels[0], *g.labels[2:]))
    assert all(r1(lab) in swapped.label_index() for lab in swapped.labels)
    assert label_automorphism(swapped, r1) is None
    assert label_orbits(swapped) is None
    # no labels: no group, and no automorphism from the reference either
    for bare in (Graph(0, ()), complete_graph(3)):
        assert label_orbits(bare) is None
        assert label_automorphism(bare, lambda x: x) is None
    # relabelled graphs fail exactly where the reference rejects r1 or p1 (or
    # +1 on residues), and otherwise every element's images are its own
    for text in ("stable:n=9,k=2,s=2", "circular:n=13,k=4", "caydih:n=6,gens=r1,r5,p1"):
        graphs = _relabelled(text)
        assert label_orbits(graphs[-1]) is not None, text
        for h in graphs:
            gens = [e for e in declared_elements(h) if str(e) in ("r1", "p1")]
            rejected = any(label_automorphism(h, partial(label_action, e)) is None for e in gens)
            orbits = label_orbits(h)
            assert (orbits is None) == rejected, text
            if orbits is not None:
                _, _, elements, image = orbits
                perms = declared_perms(h)
                assert elements == list(perms)
                assert all(tuple(image(e)) == perms[e] for e in elements), text


@pytest.mark.parametrize(
    "text", ["stable:n=16,k=4,s=3", "circular:n=37,k=12", "caydih:n=6,gens=r1,r5,p1"]
)
def test_label_orbits_constructs_no_label(monkeypatch, text):
    # generator images are read off a map from plain keys to vertex indices:
    # no label is built, and none is hashed
    g = parse_family_spec(text).build()
    built, hashed = [], []
    for cls in (KSubset, CyclicElem):
        check = cls.__post_init__
        monkeypatch.setattr(
            cls, "__post_init__", lambda self, check=check: built.append(self) or check(self)
        )
    for cls in (KSubset, CyclicElem, DihedralElement):
        digest = cls.__hash__
        monkeypatch.setattr(
            cls, "__hash__", lambda self, digest=digest: hashed.append(self) or digest(self)
        )
    _, fixing, elements, image = label_orbits(g)
    for e in elements:
        tuple(image(e))
    for v in range(g.order):
        fixing(v)
    assert built == [] and hashed == []
