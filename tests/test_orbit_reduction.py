"""The orbit-reduced searches against the unreduced ones.

The clique root, the criticality audit and the core test search one vertex
per orbit of the group `dihedral.label_orbits` verifies, and the
homomorphism and core searches break the target's group at every node. A
copy of the graph without labels declares no group, so it runs the plain
search; both must give the same answers and witnesses, and agree with the
brute-force oracles of `helpers`.
"""

import random
from functools import partial
from itertools import combinations

import pytest

from helpers import (
    brute_homomorphism_exists,
    brute_retraction_exists,
    cycle_graph,
    is_clique,
    is_independent_set,
    random_graph,
    strip_labels,
)
from kneser_lab import dihedral
from kneser_lab.budget import SearchBudget
from kneser_lab.cliques import clique_number, independence_number
from kneser_lab.coloring import chromatic_number, is_chi_critical
from kneser_lab.dihedral import (
    DihedralElement,
    act_on_vertex,
    all_elements,
    enumerate_shifts,
    label_orbits,
    orbit_leaders,
)
from kneser_lab.families import cayley_dihedral, parse_family_spec, stable_kneser
from kneser_lab.graphs import (
    Graph,
    cartesian_product,
    complete_graph,
    induced_subgraph,
    make_graph,
    verify_homomorphism,
)
from kneser_lab.harness import load_manifest, stable_pair_sets
from kneser_lab.homsolver import find_homomorphism, is_core
from kneser_lab.labels import KSubset


def _manifest_graphs():
    """Every graph the bundled manifest builds with at most 40 vertices:
    the shift, counting and isomorphism grids, the chi, core and
    hom-idempotence instances, the shift Cayley graphs of the negative cases
    and the blocks of the chi lower bound, keyed by a name."""
    man = load_manifest()
    specs = set()
    grid = man["shift_grid"]
    for k in grid["k_values"]:
        for s in grid["s_values"]:
            for n in range(s * k + 1, min((k + 2) * s, grid["n_cap"]) + 1):
                specs.add(f"stable:n={n},k={k},s={s}")
    for section in ("counting_grid", "iso_grid"):
        for k in man[section]["k_values"]:
            for s in man[section]["s_values"]:
                specs.add(f"stable:n={k * s + 1},k={k},s={s}")
                specs.add(f"circular:n={k * s + 1},k={k}")
    specs.update(inst["spec"] for inst in man["chi_instances"] + man["core_instances"])
    specs.update(
        f"stable:n={i['k'] * i['s'] + 1},k={i['k']},s={i['s']}" for i in man["hom_positive"]
    )
    negative = [(i["n"], i["k"], 2) for i in man["hom_negative_two_stable"]]
    negative += [(2 * i["s"] + 2, 2, i["s"]) for i in man["hom_negative_pair_family"]]
    graphs = {text: parse_family_spec(text).build() for text in sorted(specs)}
    for n, k, s in negative:
        g = stable_kneser(n, k, s)
        graphs[f"stable:n={n},k={k},s={s}"] = g
        graphs[f"shift graph of stable:n={n},k={k},s={s}"] = cayley_dihedral(n, enumerate_shifts(g))
    for s in man["chi_lower_bound_s"]:
        g = stable_kneser(2 * s + 2, 2, s)
        index = g.label_index()
        block_s, block_t = stable_pair_sets(s)
        block = [index[v] for v in block_s]
        graphs[f"chi lower bound block s={s}"] = induced_subgraph(g, block)
        pair_graph = induced_subgraph(g, block + [index[v] for v in block_t[:2]])
        graphs[f"chi lower bound graph s={s}"] = pair_graph
    return {name: g for name, g in graphs.items() if g.order <= 40}


def _grid_graphs():
    """Stable Kneser, Kneser, circular and cycle-power graphs on at most 40
    vertices; complete graphs only as cycle powers, K4 and K6."""
    specs = [
        f"stable:n={n},k={k},s={s}"
        for k in (2, 3)
        for s in (2, 3, 4)
        for n in range(k * s + 1, 11)
    ]
    specs += [f"kneser:n={n},k={k}" for n in range(4, 9) for k in (2, 3) if n >= 2 * k]
    specs += [f"circular:n={n},k={k}" for n in range(4, 14) for k in (2, 3, 4) if n >= 2 * k]
    specs += [f"cyclepow:n={n},a={a}" for n in range(3, 13) for a in (1, 2, 3) if n >= 2 * a]
    graphs = {text: parse_family_spec(text).build() for text in specs}
    return {text: g for text, g in graphs.items() if g.order <= 40}


def _invariant_graphs(count: int = 30):
    """Seeded graphs on the pairs of [n], n = 6..8, whose edges are a random
    union of orbits of the dihedral group on pairs of vertices. A pair fixed
    by a reflexion has a stabiliser of order 2, unlike the vertices of
    circulants and dihedral Cayley graphs."""
    rng = random.Random(7)
    graphs = {}
    for i in range(count):
        n = rng.randint(6, 8)
        els = all_elements(n)
        labels = [KSubset(c, n) for c in combinations(range(1, n + 1), 2)]
        index = {v: j for j, v in enumerate(labels)}
        seen, edges = set(), []
        for a, b in combinations(labels, 2):
            if (index[a], index[b]) in seen:
                continue
            orbit = {
                tuple(sorted((index[act_on_vertex(e, a)], index[act_on_vertex(e, b)]))) for e in els
            }
            seen |= orbit
            if rng.random() < 0.5:
                edges += orbit
        graphs[f"invariant {i}: n={n}"] = make_graph(len(labels), edges, labels)
    return graphs


MANIFEST = _manifest_graphs()
GRID = _grid_graphs()
CORPUS = {**GRID, **MANIFEST, **_invariant_graphs()}
# the unreduced core search takes 0.3-1 s on some graphs of 17-21 vertices
# and minutes on SG(11,2,3) (33 vertices), so cores are compared up to 16
CORE_CORPUS = sorted(name for name, g in CORPUS.items() if g.order <= 16)


def _mislabelled(g: Graph) -> Graph:
    """g with the labels of vertices 0 and 1 swapped, so the declared
    symmetry fails to verify."""
    return Graph(g.order, g.adj, (g.labels[1], g.labels[0], *g.labels[2:]))


def test_corpus_covers_the_manifest_and_every_label_kind():
    assert len(MANIFEST) >= 50 and len(GRID) >= 70
    verified = {name for name, g in CORPUS.items() if label_orbits(g) is not None}
    assert {name for name in CORPUS if name.startswith("invariant")} <= verified
    assert {inst["spec"] for inst in load_manifest()["core_instances"]} <= set(CORE_CORPUS)
    kinds = {type(CORPUS[name].labels[0]).__name__ for name in verified}
    assert kinds == {"KSubset", "CyclicElem", "DihedralElement"}
    # the chi lower-bound graphs are labelled but their symmetry fails
    assert label_orbits(MANIFEST["chi lower bound graph s=3"]) is None


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_clique_and_independent_sets_match_the_plain_search(name):
    g = CORPUS[name]
    for solve, check in ((clique_number, is_clique), (independence_number, is_independent_set)):
        reduced, plain = solve(g), solve(strip_labels(g))
        assert reduced.size == plain.size == len(reduced.vertices)
        assert check(g, reduced.vertices)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_criticality_report_matches_the_plain_audit(name):
    g = CORPUS[name]
    assert is_chi_critical(g) == is_chi_critical(strip_labels(g))


def _sources(name: str, h: Graph):
    """Seeded sources for searches into h: K3, K4, C5, C7, three random
    graphs on 5 to 8 vertices, and h's square while h has at most 10
    vertices."""
    rng = random.Random(name)
    sources = [complete_graph(3), complete_graph(4), cycle_graph(5), cycle_graph(7)]
    sources += [random_graph(rng, rng.randint(5, 8), rng.choice((0.3, 0.5))) for _ in range(3)]
    if h.order <= 10:
        sources.append(cartesian_product(h, h))
    return sources


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_homomorphisms_match_the_plain_search_and_the_brute_oracle(name):
    # the reduced tree is the plain one with subtrees cut, and it meets the
    # plain search's first solution: same answer and map, never more nodes
    h = CORPUS[name]
    for g in _sources(name, h):
        reduced, plain = find_homomorphism(g, h), find_homomorphism(g, strip_labels(h))
        assert (reduced.status, reduced.homomorphism) == (plain.status, plain.homomorphism)
        assert reduced.nodes <= plain.nodes
        assert not reduced.found or verify_homomorphism(g, h, reduced.homomorphism.mapping)
        if g.order <= 7:
            assert reduced.found == brute_homomorphism_exists(g, h)


def _stable_image(mapping) -> set[int]:
    """The image of the first power of an endomorphism that is idempotent,
    onto which that power retracts."""
    power = list(mapping)
    while any(power[x] != power[power[x]] for x in range(len(power))):
        power = [mapping[y] for y in power]
    return set(power)


@pytest.mark.parametrize("name", CORE_CORPUS)
def test_core_status_and_witness_match_the_plain_search(name):
    g = CORPUS[name]
    reduced, plain = is_core(g), is_core(strip_labels(g))
    assert (reduced.status, reduced.witness) == (plain.status, plain.witness)
    assert reduced.nodes <= plain.nodes
    # a core retracts onto no g - v; a non-core onto a witness's stable image
    if reduced.witness is None:
        assert reduced.status == "core"
        assert not any(brute_retraction_exists(g, set(range(g.order)) - {v}) for v in range(g.order))
    else:
        image = _stable_image(reduced.witness.mapping)
        assert len(image) < g.order and brute_retraction_exists(g, image)


@pytest.mark.parametrize("text", ["stable:n=8,k=2,s=3", "kneser:n=5,k=2", "circular:n=9,k=2"])
def test_symmetry_that_fails_verification_gives_the_unreduced_search(text):
    g = parse_family_spec(text).build()
    bad = _mislabelled(g)
    assert label_orbits(g) is not None and label_orbits(bad) is None
    assert orbit_leaders(bad) == list(range(g.order))
    plain = strip_labels(g)
    for solve in (clique_number, independence_number, chromatic_number):
        assert solve(bad) == solve(plain)
    assert is_chi_critical(bad) == is_chi_critical(plain)
    core, plain_core = is_core(bad), is_core(plain)
    assert (core.status, core.witness, core.nodes) == (
        plain_core.status,
        plain_core.witness,
        plain_core.nodes,
    )
    for source in (cartesian_product(g, g), g, cycle_graph(5), complete_graph(3)):
        hom, plain_hom = find_homomorphism(source, bad), find_homomorphism(source, plain)
        assert (hom.status, hom.homomorphism, hom.nodes) == (
            plain_hom.status,
            plain_hom.homomorphism,
            plain_hom.nodes,
        )


@pytest.mark.parametrize("n", [1, 2])
def test_dihedral_labels_on_fewer_than_three_points_declare_no_group(n):
    # the dihedral group on [1] or [2] has no r1 and p1 to check: K1 or K2
    # labelled by hand with its elements runs the unlabelled searches
    labels = tuple(DihedralElement(1, i, n) for i in range(n))
    g = Graph(n, complete_graph(n).adj, labels)
    plain = strip_labels(g)
    assert label_orbits(g) is None
    assert chromatic_number(g) == chromatic_number(plain)
    core, plain_core = is_core(g), is_core(plain)
    assert (core.status, core.witness, core.nodes) == (
        plain_core.status,
        plain_core.witness,
        plain_core.nodes,
    )
    for source in (complete_graph(2), cycle_graph(4), cycle_graph(5), make_graph(3, ())):
        hom, plain_hom = find_homomorphism(source, g), find_homomorphism(source, plain)
        assert (hom.status, hom.homomorphism, hom.nodes) == (
            plain_hom.status,
            plain_hom.homomorphism,
            plain_hom.nodes,
        )


@pytest.mark.parametrize("n", [9, 10])
def test_each_solver_call_verifies_the_generators_once(monkeypatch, n):
    # r1 and p1 of the graph the solver was given, and nothing else: not a
    # second time for the clique bound, not on the complement, not on g - v,
    # not for the orbit leaders beside the stabilisers, not on the labelled
    # source of a homomorphism search
    g = stable_kneser(n, 2, 2)
    source = stable_kneser(n, 2, 3)
    checked = []
    check = dihedral.verify_isomorphism
    monkeypatch.setattr(
        dihedral, "verify_isomorphism", lambda h, k, perm: checked.append((h, k)) or check(h, k, perm)
    )
    # the symmetry is read before the first node, so a small budget suffices
    capped = SearchBudget(1_000, None)
    solvers = [is_chi_critical, chromatic_number, clique_number, independence_number]
    for solve in solvers + [partial(is_core, budget=capped), partial(find_homomorphism, source)]:
        checked.clear()
        solve(g)
        assert len(checked) == 2 and all(h is k is g for h, k in checked), solve
