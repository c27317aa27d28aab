import random

import pytest

from helpers import brute_homomorphism_exists, random_graph
from kneser_lab.budget import SearchBudget
from kneser_lab.coloring import chromatic_number
from kneser_lab.dihedral import rotation
from kneser_lab.families import (
    cayley_dihedral,
    circulant,
    circular_graph,
    prop_iso_map,
    stable_kneser,
)
from kneser_lab.graphs import (
    cartesian_product,
    complete_graph,
    cycle_graph,
    induced_subgraph,
)
from kneser_lab.homsolver import (
    certificate,
    certificate_dumps,
    certificate_loads,
    check_certificate,
    find_homomorphism,
    find_retraction,
    is_core,
    normal_cayley_self_hom,
    symmetry_root_candidates,
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
            assert out.homomorphism.verified
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


def test_budget_exhaustion_outcome():
    g = stable_kneser(8, 2, 3)
    cay = cayley_dihedral(8, {rotation(i, 8) for i in (1, 2, 6, 7)})
    out = find_homomorphism(g, cay, SearchBudget(node_limit=1, time_limit=None))
    assert out.status == "exhausted"


def test_core_test_spends_one_budget():
    g = stable_kneser(6, 2, 2)
    costs = [
        find_homomorphism(g, g, exclude_image=(v,), use_target_symmetry=False).nodes
        for v in range(g.order)
    ]
    assert max(costs) < sum(costs) == is_core(g).nodes
    out = is_core(g, SearchBudget(node_limit=max(costs), time_limit=None))
    assert out.status == "exhausted"


def test_retraction_of_c6_onto_edge():
    out = find_retraction(cycle_graph(6), {0, 1})
    assert out.found
    mapping = out.homomorphism.mapping
    assert mapping[0] == 0 and mapping[1] == 1


def test_c5_has_no_proper_retraction():
    c5 = cycle_graph(5)
    for size in (1, 2, 3, 4):
        keep = tuple(range(size))
        assert find_retraction(c5, keep).status == "none"


def test_no_retraction_off_the_clique_block():
    # dropping any single distance-(s+1) pair from the s = 3 pair family
    # admits no retraction onto the rest
    g = stable_kneser(8, 2, 3)
    for v, label in enumerate(g.labels):
        if sorted(label.gaps()) != [4, 4]:
            continue
        keep = [u for u in range(g.order) if u != v]
        assert find_retraction(g, keep).status == "none"


def test_retraction_fixed_points_hold():
    rng = random.Random(61)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 9), 0.5)
        keep = sorted(rng.sample(range(g.order), rng.randint(1, g.order)))
        out = find_retraction(g, keep)
        if out.found:
            sub = induced_subgraph(g, keep)
            assert verify_homomorphism(g, sub, out.homomorphism.mapping)
            for i, v in enumerate(keep):
                assert out.homomorphism.mapping[v] == i


def test_cores_small():
    assert is_core(complete_graph(4)).status == "core"
    assert is_core(cycle_graph(5)).status == "core"
    out = is_core(cycle_graph(6))
    assert out.status == "not-core"
    assert out.witness.verified and not out.witness.surjective


def test_core_retract_duality():
    from kneser_lab.families import kneser

    cores = [complete_graph(4), cycle_graph(5), cycle_graph(7), kneser(5, 2)]
    for g in cores:
        assert is_core(g).status == "core"
        for v in range(g.order):
            keep = [u for u in range(g.order) if u != v]
            assert find_retraction(g, keep).status == "none"
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
    assert find_retraction(c6, image).status == "found"


def test_hom_equivalence_implies_equal_chi():
    g = circular_graph(7, 2)
    h = stable_kneser(7, 2, 3)
    assert find_homomorphism(g, h).found and find_homomorphism(h, g).found
    assert chromatic_number(g).chi == chromatic_number(h).chi


def test_symmetry_root_candidates():
    circ = circulant(8, {1, 2, 6, 7})
    assert symmetry_root_candidates(circ) == 1  # one orbit, representative 0
    cay = cayley_dihedral(6, {rotation(1, 6), rotation(5, 6)})
    assert symmetry_root_candidates(cay) == 1
    assert symmetry_root_candidates(cycle_graph(5)) is None
    assert symmetry_root_candidates(stable_kneser(8, 2, 3)) is None


def test_symmetry_does_not_change_answers():
    g = stable_kneser(6, 2, 2)
    cay = cayley_dihedral(6, {rotation(1, 6), rotation(5, 6)})
    with_sym = find_homomorphism(g, cay)
    without = find_homomorphism(g, cay, use_target_symmetry=False)
    assert with_sym.status == without.status == "none"
    circ = circulant(5, {2, 3})
    assert find_homomorphism(cycle_graph(5), circ).found
    assert find_homomorphism(cycle_graph(5), circ, use_target_symmetry=False).found


def test_normal_cayley_self_hom():
    c5 = circulant(5, {1, 4})
    hom = normal_cayley_self_hom(c5)
    assert hom.verified and hom.source_order == 25
    square = cartesian_product(c5, c5)
    assert verify_homomorphism(square, c5, hom.mapping)
    # each slice at fixed second coordinate is a translation automorphism
    for v0 in range(5):
        slice_map = [hom.mapping[a * 5 + v0] for a in range(5)]
        assert verify_isomorphism(c5, c5, slice_map)


def test_normal_cayley_requires_residue_labels():
    with pytest.raises(ValueError):
        normal_cayley_self_hom(cycle_graph(5))


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
        pytest.param(_loaded(kind="nonsense", nonsense=[]), id="unknown-kind"),
        pytest.param(_loaded(kind="nonsense"), id="unknown-kind-no-payload"),
        pytest.param(_loaded(kind="clique"), id="missing-payload"),
        pytest.param(_loaded(kind="homomorphism", map=[0.0, 1, 0, 1, 2]), id="map-float"),
        pytest.param(_loaded(kind="homomorphism", map=["0", 1, 0, 1, 2]), id="map-str"),
    ],
)
def test_check_certificate_rejects_forged_and_malformed(cert):
    assert check_certificate(cert, cycle_graph(5), complete_graph(3)) is False
