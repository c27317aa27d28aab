import random
import tracemalloc
from dataclasses import replace
from functools import partial

import pytest

from helpers import (
    brute_homomorphism_exists,
    brute_retraction_exists,
    cycle_graph,
    random_graph,
    reference_arc_consistency,
    reference_is_core,
    strip_labels,
)
from kneser_lab import homsolver
from kneser_lab.budget import SearchBudget
from kneser_lab.coloring import chromatic_number
from kneser_lab.dihedral import act_on_vertex, all_elements, orbit_leaders, rotation
from kneser_lab.families import (
    cayley_dihedral,
    circulant,
    circular_graph,
    cycle_power,
    kneser,
    parse_family_spec,
    prop_iso_map,
    stable_kneser,
)
from kneser_lab.graphs import (
    cartesian_product,
    complement,
    complete_graph,
    delete_vertex,
    induced_subgraph,
    iter_bits,
    make_graph,
)
from kneser_lab.homsolver import (
    certificate,
    certificate_dumps,
    certificate_loads,
    check_certificate,
    find_homomorphism,
    is_core,
    verify_homomorphism,
)
from kneser_lab.isomorphism import verify_isomorphism


def test_odd_cycle_to_cliques():
    c5 = cycle_graph(5)
    assert find_homomorphism(c5, complete_graph(3)).status == "found"
    assert find_homomorphism(c5, complete_graph(2)).status == "none"


def test_verify_homomorphism_basics():
    g = cycle_graph(4)
    assert verify_homomorphism(g, g, (0, 1, 2, 3))
    assert not verify_homomorphism(g, g, (0, 0, 0, 0))
    assert not verify_homomorphism(g, g, (0, 1, 2))
    assert not verify_homomorphism(g, g, (0.0, 1, 2, 3))
    assert not verify_homomorphism(g, g, ("0", 1, 2, 3))
    assert not verify_homomorphism(g, g, (False, True, 0, 1))
    assert not verify_homomorphism(g, g, (0, 1, 2, 4))
    assert not verify_homomorphism(g, g, (-1, 1, 2, 3))


def test_explicit_circulant_map_is_hom_both_ways():
    mapping = prop_iso_map(2, 3)
    src = circular_graph(7, 2)
    dst = stable_kneser(7, 2, 3)
    assert verify_homomorphism(src, dst, mapping)
    inverse = [0] * 7
    for u, t in enumerate(mapping):
        inverse[t] = u
    assert verify_homomorphism(dst, src, inverse)


def test_found_certificates_reverify():
    rng = random.Random(53)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 10), 0.4)
        h = random_graph(rng, rng.randint(1, 8), 0.5)
        out = find_homomorphism(g, h)
        assert (out.status == "found") == brute_homomorphism_exists(g, h)
        if out.found:
            assert verify_homomorphism(g, h, out.homomorphism.mapping)


def test_search_is_deterministic():
    rng = random.Random(59)
    g = random_graph(rng, 9, 0.4)
    h = random_graph(rng, 7, 0.5)
    first = find_homomorphism(g, h)
    second = find_homomorphism(g, h)
    assert first.status == second.status and first.nodes == second.nodes
    if first.found:
        assert first.homomorphism.mapping == second.homomorphism.mapping


def test_square_search_tree_is_pinned():
    # the tree on this 324-vertex square under the target's dihedral group,
    # broken at every node. Arc consistency has one fixpoint however it is
    # reached, so the count moves with the branching rule and the symmetry
    # breaking, never with how the propagator computes that fixpoint
    g = stable_kneser(9, 2, 3)
    out = find_homomorphism(cartesian_product(g, g), g, SearchBudget(2000, None))
    assert (out.status, out.nodes) == ("none", 754)


def test_budget_exhaustion_outcome():
    g = stable_kneser(8, 2, 3)
    cay = cayley_dihedral(8, {rotation(i, 8) for i in (1, 2, 6, 7)})
    out = find_homomorphism(g, cay, SearchBudget(node_limit=1, time_limit=None))
    assert out.status == "exhausted"


def test_core_test_spends_one_budget():
    g = stable_kneser(6, 2, 2)
    total = is_core(g).nodes
    assert is_core(g, SearchBudget(node_limit=total, time_limit=None)).status == "core"
    out = is_core(g, SearchBudget(node_limit=total - 1, time_limit=None))
    assert out.status == "exhausted" and out.nodes == total


def test_retraction_of_c6_onto_edge():
    # a retraction is a non-surjective endomorphism, so C6 is no core
    c6 = cycle_graph(6)
    assert brute_retraction_exists(c6, {0, 1})
    assert is_core(c6).status == "not-core"


def test_c5_has_no_proper_retraction():
    c5 = cycle_graph(5)
    assert is_core(c5).status == "core"
    for size in (1, 2, 3, 4):
        assert not brute_retraction_exists(c5, range(size))


def test_no_retraction_off_the_clique_block():
    # dropping any single distance-(s+1) pair from the s = 3 pair family
    # admits no retraction onto the rest
    g = stable_kneser(8, 2, 3)
    assert is_core(g).status == "core"
    for v, label in enumerate(g.labels):
        if sorted(label.gaps()) != [4, 4]:
            continue
        keep = [u for u in range(g.order) if u != v]
        assert not brute_retraction_exists(g, keep)


def test_is_core_agrees_with_brute_endomorphisms():
    # g is a core exactly when no map g -> g - v exists for any vertex v. The
    # statuses match the search over all endomorphisms, and every witness is
    # a retraction: it fixes its image, which misses a vertex
    rng = random.Random(61)
    non_cores = 0
    for _ in range(400):
        g = random_graph(rng, rng.randint(0, 9), rng.choice([0.3, 0.5, 0.7]))
        out = is_core(g)
        assert out.status == reference_is_core(g).status
        if g.order <= 6:
            misses = any(brute_homomorphism_exists(g, delete_vertex(g, v)) for v in range(g.order))
            assert out.status == ("not-core" if misses else "core")
        if out.witness is not None:
            non_cores += 1
            m = out.witness.mapping
            assert verify_homomorphism(g, g, m)
            assert all(m[m[x]] == m[x] for x in range(g.order))
            assert len(set(m)) < g.order and brute_retraction_exists(g, set(m))
    assert 100 < non_cores < 300


def _reference_retraction_fixpoint(g, doms):
    """Arc consistency and the two retraction rules, each applied in full
    until nothing changes: the domains as sets, or None on a wipe-out."""
    doms = [set(d) for d in doms]
    while True:
        doms = reference_arc_consistency(g, g, doms)
        if doms is None:
            return None
        new = [set(d) for d in doms]
        for d in doms:
            if len(d) == 1:
                (y,) = d
                new[y] &= d
        fixed = {y for y in range(g.order) if y in new[y]}
        new = [d & fixed for d in new]
        if not all(new):
            return None
        if new == doms:
            return doms
        doms = new


def test_retraction_rules_reach_the_joint_fixpoint():
    # from random start domains, and again after the search's own kind of
    # change (one domain narrowed, here or to a singleton, passed as the seed)
    rng = random.Random(31)

    def check(g, enforce, doms, seeds):
        expected = _reference_retraction_fixpoint(g, [set(iter_bits(d)) for d in doms])
        ok = enforce(doms, seeds)
        assert ok == (expected is not None)
        assert not ok or [set(iter_bits(d)) for d in doms] == expected
        return ok

    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 9), rng.choice([0.3, 0.5, 0.7]))
        n = g.order
        enforce = homsolver._retraction_rules(homsolver._arc_consistency(g, g), n)
        doms = [rng.getrandbits(n) | 1 << rng.randrange(n) for _ in range(n)]
        if not check(g, enforce, doms, range(n)):
            continue
        for _ in range(3):
            wide = [u for u in range(n) if doms[u].bit_count() > 1]
            if not wide:
                break
            u = rng.choice(wide)
            values = list(iter_bits(doms[u]))
            keep = rng.sample(values, rng.choice([1, rng.randint(1, len(values) - 1)]))
            doms = doms.copy()
            doms[u] = sum(1 << y for y in keep)
            if not check(g, enforce, doms, (u,)):
                break


def test_complete_graph_is_a_core_within_few_nodes():
    # arc consistency alone cannot see that K20 has no map into 19 vertices,
    # and the search over all endomorphisms needs about 20! nodes; a retraction
    # fixes each value it takes, and a vertex sent elsewhere leaves every domain
    out = is_core(complete_graph(20), SearchBudget(5_000, None))
    assert out.status == "core" and out.nodes <= 5_000


def test_cores_small():
    assert is_core(complete_graph(4)).status == "core"
    assert is_core(cycle_graph(5)).status == "core"
    out = is_core(cycle_graph(6))
    assert out.status == "not-core"
    assert len(out.witness.image()) < 6


def test_hom_and_core_searches_return_one_outcome_type():
    c6 = cycle_graph(6)
    hom, core = find_homomorphism(c6, complete_graph(2)), is_core(c6)
    assert type(hom) is type(core) is homsolver.Outcome
    assert (hom.status, core.status) == ("found", "not-core")
    for outcome in (hom, core):
        assert outcome.homomorphism is outcome.witness is not None


def test_not_core_witness_must_miss_a_vertex(monkeypatch):
    # the identity is an endomorphism, but it proves nothing about cores
    identity = lambda doms, enforce, clock, sym: tuple(range(len(doms)))
    monkeypatch.setattr(homsolver, "_run_search", identity)
    with pytest.raises(RuntimeError):
        is_core(cycle_graph(5))


def test_not_core_witness_must_be_idempotent(monkeypatch):
    # x -> (x + 1) mod 2 maps C6 onto an edge and misses four vertices, but
    # swaps the ends of that edge, so it is no retraction
    swap = lambda doms, enforce, clock, sym: tuple((x + 1) % 2 for x in range(len(doms)))
    monkeypatch.setattr(homsolver, "_run_search", swap)
    with pytest.raises(RuntimeError):
        is_core(cycle_graph(6))


@pytest.mark.parametrize(
    "g, h",
    [
        pytest.param(cartesian_product(stable_kneser(7, 3, 2), stable_kneser(7, 3, 2)),
                     stable_kneser(7, 3, 2), id="square-into-smaller-fibres"),
        pytest.param(cycle_graph(6), cycle_graph(6), id="equal-order"),
    ],
)
def test_found_map_must_pass_the_checker(monkeypatch, g, h):
    # a search that returns its map with vertex 0 sent onto a neighbour's
    # image is caught by the re-check, into a smaller target or an equal one
    real = homsolver._run_search

    def corrupted(doms, enforce, clock, sym):
        found = list(real(doms, enforce, clock, sym))
        found[0] = found[next(iter_bits(g.adj[0]))]
        return tuple(found)

    assert find_homomorphism(g, h).status == "found"
    monkeypatch.setattr(homsolver, "_run_search", corrupted)
    with pytest.raises(RuntimeError):
        find_homomorphism(g, h)


def test_core_retract_duality():
    from kneser_lab.families import kneser

    cores = [complete_graph(4), cycle_graph(5), cycle_graph(7), kneser(5, 2)]
    for g in cores:
        assert is_core(g).status == "core"
        for v in range(g.order):
            keep = [u for u in range(g.order) if u != v]
            assert not brute_retraction_exists(g, keep)
    # a non-core admits a retraction onto the stable image of its witness
    c6 = cycle_graph(6)
    witness = is_core(c6).witness.mapping
    power = list(witness)
    for _ in range(50):
        if all(power[power[x]] == power[x] for x in range(6)):
            break
        power = [witness[y] for y in power]
    image = sorted(set(power))
    assert len(image) < 6
    assert brute_retraction_exists(c6, image)


def test_hom_equivalence_implies_equal_chi():
    g = circular_graph(7, 2)
    h = stable_kneser(7, 2, 3)
    assert find_homomorphism(g, h).found and find_homomorphism(h, g).found
    assert chromatic_number(g).chi == chromatic_number(h).chi


def _leader_mask(h):
    """The orbit leaders of h, the only values the first node of
    `find_homomorphism` into h tries."""
    return sum(1 << v for v, lead in enumerate(orbit_leaders(h)) if lead == v)


def test_root_orbit_leaders():
    circ = circulant(8, {1, 2, 6, 7})
    assert _leader_mask(circ) == 1  # one orbit, representative 0
    cay = cayley_dihedral(6, {rotation(1, 6), rotation(5, 6)})
    assert _leader_mask(cay) == 1
    assert orbit_leaders(cycle_graph(5)) == list(range(5))
    # one representative each for the distance-3 and the distance-4 pairs
    assert _leader_mask(stable_kneser(8, 2, 3)) == 0b11
    # no dihedral group on [2]; an induced subgraph the group does not act on
    # (no verified group: every vertex leads itself)
    assert orbit_leaders(kneser(2, 1)) == [0, 1]
    assert orbit_leaders(induced_subgraph(stable_kneser(8, 2, 3), range(5))) == list(range(5))


def _connected_first(g):
    """An isomorphic copy of g in which every vertex has as many neighbours
    among the earlier ones as possible, so the naive oracle prunes early."""
    order = []
    while len(order) < g.order:
        rest = [u for u in range(g.order) if u not in order]
        links = {u: sum(g.has_edge(u, v) for v in order) for u in rest}
        order.append(max(rest, key=lambda u: (links[u], g.degree(u))))
    pos = {u: i for i, u in enumerate(order)}
    return make_graph(g.order, [(pos[u], pos[v]) for u, v in g.edges()])


def _subset_targets():
    """Stable Kneser and Kneser graphs on at most 9 points."""
    shapes = [(n, k) for n in range(4, 10) for k in (2, 3) if n >= 2 * k]
    stable = [stable_kneser(n, k, s) for n, k in shapes for s in (2, 3, 4) if k * s <= n]
    return stable + [kneser(n, k) for n, k in shapes]


def test_subset_root_candidates_meet_every_orbit_once():
    for h in _subset_targets():
        reps = _leader_mask(h)
        index = h.label_index()
        for label in h.labels:
            orbit = {index[act_on_vertex(e, label)] for e in all_elements(label.ambient)}
            assert sum(reps >> v & 1 for v in orbit) == 1


def test_subset_symmetry_reduction_keeps_answers():
    targets = _subset_targets()
    rng = random.Random(2)
    statuses = set()
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 9), rng.choice((0.3, 0.5, 0.7)))
        h = rng.choice(targets)
        reduced = find_homomorphism(g, h).status
        assert reduced == find_homomorphism(g, strip_labels(h)).status
        assert (reduced == "found") == brute_homomorphism_exists(_connected_first(g), h)
        statuses.add(reduced)
    assert statuses == {"found", "none"}


def test_symmetry_does_not_change_answers():
    g = stable_kneser(6, 2, 2)
    cay = cayley_dihedral(6, {rotation(1, 6), rotation(5, 6)})
    with_sym = find_homomorphism(g, cay)
    without = find_homomorphism(g, strip_labels(cay))
    assert with_sym.status == without.status == "none"
    circ = circulant(5, {2, 3})
    assert find_homomorphism(cycle_graph(5), circ).found
    assert find_homomorphism(cycle_graph(5), strip_labels(circ)).found


def _square(g):
    return cartesian_product(g, g)


@pytest.mark.parametrize(
    "source, target, status, nodes",
    [
        pytest.param(
            lambda: stable_kneser(6, 2, 2),
            lambda: cayley_dihedral(6, {rotation(1, 6), rotation(5, 6)}),
            "none",
            13,
            id="SG(6,2,2)-to-Cay(D6,r1,r5)",
        ),
        pytest.param(
            lambda: cycle_graph(5), lambda: circulant(5, {2, 3}), "found", 5, id="C5-to-circulant"
        ),
        pytest.param(
            lambda: _square(stable_kneser(6, 2, 2)),
            lambda: stable_kneser(6, 2, 2),
            "none",
            163,
            id="square-SG(6,2,2)",
        ),
        pytest.param(
            lambda: _square(stable_kneser(9, 2, 3)),
            lambda: stable_kneser(9, 2, 3),
            "none",
            13_483,
            id="square-SG(9,2,3)",
        ),
    ],
)
def test_stripped_target_search_trees_are_pinned(source, target, status, nodes):
    # the plain search on a label-stripped target; these are the node counts
    # of the unreduced reference search before it took this form
    outcome = find_homomorphism(source(), strip_labels(target()))
    assert (outcome.status, outcome.nodes) == (status, nodes)


def _ac_corpus():
    """(g, h, start domains) on targets whose order sits on either side of a
    byte boundary: full, "full minus v", one-singleton and random domains."""
    rng = random.Random(1718)
    for order in (0, 1, 7, 8, 9, 17):
        for p in (0.3, 0.6, 0.9):
            h = random_graph(rng, order, p)
            g = random_graph(rng, rng.randrange(7), rng.choice((0.3, 0.6)))
            full = (1 << order) - 1
            starts = [[full] * g.order]
            starts += [[full & ~(1 << v)] * g.order for v in range(order)]
            for _ in range(4 if order and g.order else 0):
                single = [full] * g.order
                single[rng.randrange(g.order)] = 1 << rng.randrange(order)
                starts.append(single)
                starts.append([rng.randrange(1, full + 1) for _ in range(g.order)])
            yield g, h, starts


def _as_sets(doms):
    return [set(iter_bits(d)) for d in doms]


@pytest.mark.parametrize("cap", [None, 3], ids=["default-cap", "cap-3"])
def test_arc_consistency_reaches_the_reference_fixpoint(monkeypatch, cap):
    # from every start domain with all vertices changed, and from the search's
    # step (one vertex of a fixpoint narrowed to a singleton, only it changed),
    # enforce must stop at the reference fixpoint or wipe out where it does
    if cap is not None:
        monkeypatch.setattr(homsolver, "_SUPPORT_MEMO_CAP", cap)
    memo_sizes = []
    for g, h, starts in _ac_corpus():
        enforce = homsolver._arc_consistency(g, h)
        runs = [(start, range(g.order)) for start in starts]
        while runs:
            start, seeds = runs.pop()
            doms = list(start)
            survived = enforce(doms, seeds) and all(doms)
            expected = reference_arc_consistency(g, h, _as_sets(start))
            assert (_as_sets(doms) if survived else None) == expected
            if survived and len(seeds) > 1:
                for u in range(g.order):
                    for a in iter_bits(doms[u]):
                        runs.append((doms[:u] + [1 << a] + doms[u + 1 :], (u,)))
        (memo,) = [c.cell_contents for c in enforce.__closure__ if isinstance(c.cell_contents, dict)]
        memo_sizes.append(len(memo))
    if cap is not None:
        # the memo filled up, so the later supports came from the table
        assert max(memo_sizes) == cap


def test_byte_table_holds_only_the_entries_read():
    # an edgeless source: enforce reads the support of each seed's domain and
    # narrows nothing, so the (block, byte) pairs read are the nonzero bytes
    # of those domains; 17 target vertices leave a partial last block
    rng = random.Random(17)
    h = random_graph(rng, 17, 0.5)
    enforce = homsolver._arc_consistency(make_graph(3, ()), h)
    (table,) = [
        c.cell_contents
        for c in enforce.__closure__
        if isinstance(c.cell_contents, list) and all(len(r) == 256 for r in c.cell_contents)
    ]

    def filled():
        return {(i, b) for i, row in enumerate(table) for b, union in enumerate(row) if union is not None}

    assert not filled()
    read = set()
    for doms in ([1 << 3 | 1 << 16, 0b1010 << 8, 1 << 3], [(1 << 17) - 1, 5, 1 << 16]):
        assert enforce(doms, range(3))
        read |= {(i, b) for d in doms for i, b in enumerate(d.to_bytes(3, "little")) if b}
        assert filled() == read
    for i, b in read:
        rows = [set(iter_bits(h.adj[a])) for a in iter_bits(b << 8 * i)]
        assert set(iter_bits(table[i][b])) == set().union(*rows)


def test_neighbour_lists_list_each_row_with_one_object_per_vertex():
    # past 256 every int is a fresh object unless the lists share them
    rng = random.Random(34)
    torus = cartesian_product(cycle_graph(17), cycle_graph(19))
    for g in (random_graph(rng, 300, 0.05), complement(cycle_graph(600)), torus):
        nbrs = homsolver._neighbour_lists(g)
        assert nbrs == [list(iter_bits(row)) for row in g.adj]
        shared = {}
        assert all(w is shared.setdefault(w, w) for nbr in nbrs for w in nbr)
        assert len(shared) > 256


def test_neighbour_lists_share_one_int_per_vertex():
    # each vertex of the complement of C1200 has 1,197 neighbours; lists that
    # reference one int object per vertex peak at 11.8 MiB, where a fresh int
    # for each entry took 46.2 MiB
    g = complement(cycle_graph(1200))
    tracemalloc.start()
    try:
        homsolver._arc_consistency(g, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


def _hom_refute_calls():
    """The exhaustive refutations of the hom-refute benchmark workload: four
    squares (the last at its 2,000-node cap) and four core tests."""
    calls = []
    for n, k, s, cap in ((6, 2, 2, None), (7, 2, 2, None), (8, 2, 3, None), (9, 2, 3, 2_000)):
        g = stable_kneser(n, k, s)
        calls.append(partial(find_homomorphism, _square(g), g, SearchBudget(cap, None)))
    for spec in ("stable:n=7,k=2,s=2", "stable:n=8,k=2,s=3", "kneser:n=6,k=2", "circular:n=13,k=4"):
        calls.append(partial(is_core, parse_family_spec(spec).build(), SearchBudget(None, None)))
    return calls


def test_hom_refute_trees_are_pinned():
    # a propagation change that alters a search tree shows here first
    outcomes = [call() for call in _hom_refute_calls()]
    assert [(out.status, out.nodes) for out in outcomes] == [
        ("none", 28),
        ("none", 42),
        ("none", 153),
        ("none", 754),
        ("core", 121),
        ("core", 154),
        ("core", 211),
        ("core", 43),
    ]


@pytest.mark.parametrize("cap", [0, 1])
def test_support_memo_does_not_change_searches(monkeypatch, cap):
    rng = random.Random(20)
    calls = _hom_refute_calls()
    for _ in range(20):
        g = random_graph(rng, rng.randrange(3, 10), 0.5)
        h = random_graph(rng, rng.randrange(2, 13), 0.5)
        calls += [partial(find_homomorphism, g, h), partial(is_core, g)]

    def outcomes():
        return [replace(call(), seconds=0.0) for call in calls]

    default = outcomes()
    monkeypatch.setattr(homsolver, "_SUPPORT_MEMO_CAP", cap)
    assert outcomes() == default


def test_certificate_round_trip():
    g = cycle_graph(5)
    h = complete_graph(3)
    out = find_homomorphism(g, h)
    cert = certificate(
        "homomorphism",
        data=out.homomorphism.mapping,
        source=g,
        target=h,
        verified=True,
        nodes=out.nodes,
        seconds=out.seconds,
    )
    loaded = certificate_loads(certificate_dumps(cert))
    assert check_certificate(loaded, g, h)
    assert not check_certificate(loaded, g, complete_graph(4))  # fingerprint mismatch
    bad = dict(loaded, map=[0] * 5)
    assert not check_certificate(bad, g, h)


def test_certificate_other_kinds():
    g = cycle_graph(5)
    chi = chromatic_number(g)
    col = certificate("coloring", data=chi.coloring, source=g, verified=True)
    assert check_certificate(col, g)
    clique = certificate("clique", data=(0, 1), source=g, verified=True)
    assert check_certificate(clique, g)
    assert not check_certificate(dict(clique, clique=[0, 2]), g)
    with pytest.raises(ValueError):
        certificate("nonsense", data=())


def test_certificate_of_a_graph_too_wide_for_decimal_rows():
    # an adjacency row of more than 14,284 bits has over 4,300 decimal digits,
    # Python's default limit for int -> str, so the fingerprint must not print rows
    g = cycle_power(15000, 1)
    stamp = homsolver.graph_fingerprint(g)
    assert (stamp["order"], stamp["edges"], len(stamp["digest"])) == (15000, 15000, 16)
    cert = certificate("coloring", data=chromatic_number(g).coloring, source=g, verified=True)
    assert check_certificate(certificate_loads(certificate_dumps(cert)), g)
    assert homsolver.graph_fingerprint(cycle_power(15001, 1))["digest"] != stamp["digest"]


def _loaded(**fields) -> dict:
    return certificate_loads(certificate_dumps(fields))


@pytest.mark.parametrize(
    "cert",
    [
        # on C5, index -1 would name vertex 4, which is adjacent to 0
        pytest.param(_loaded(kind="clique", clique=[-1, 0]), id="clique-negative"),
        pytest.param(_loaded(kind="clique", clique=[7, 0]), id="clique-out-of-range"),
        pytest.param(_loaded(kind="coloring", coloring=[-1, 0, -1, 0, 1]), id="coloring-negative"),
        pytest.param(_loaded(kind="coloring", coloring=["x", 0, "x", 0, 1]), id="coloring-str"),
        # each would be a proper colouring if read as the int 1, 2 or 5
        pytest.param(_loaded(kind="coloring", coloring=[True, 0, 1, 0, 2]), id="coloring-bool"),
        pytest.param(_loaded(kind="coloring", coloring=[0, 1, 0, 1, 2.0]), id="coloring-float"),
        pytest.param(_loaded(kind="coloring", coloring=[0, 1, 0, 1, 5]), id="coloring-order"),
        pytest.param(_loaded(kind="nonsense", nonsense=[]), id="unknown-kind"),
        pytest.param(_loaded(kind="nonsense"), id="unknown-kind-no-payload"),
        pytest.param(_loaded(kind="clique"), id="missing-payload"),
        pytest.param(_loaded(kind="homomorphism", map=[0.0, 1, 0, 1, 2]), id="map-float"),
        pytest.param(_loaded(kind="homomorphism", map=["0", 1, 0, 1, 2]), id="map-str"),
    ],
)
def test_check_certificate_rejects_forged_and_malformed(cert):
    assert check_certificate(cert, cycle_graph(5), complete_graph(3)) is False


def test_coloring_certificate_is_checked_into_its_colours(monkeypatch):
    # a 3-colouring of C9 is checked as a map into K_3, not into K_9
    orders = []
    real = homsolver.complete_graph

    def recorded(n):
        orders.append(n)
        return real(n)

    monkeypatch.setattr(homsolver, "complete_graph", recorded)
    g = cycle_graph(9)
    cert = certificate("coloring", data=[0, 1, 2] * 3, source=g, verified=True)
    assert check_certificate(cert, g)
    assert orders == [3]
    assert not check_certificate(dict(cert, coloring=[0, 1, 2] * 2 + [0, 1, 1]), g)
