"""Acceptance suite: one test per criterion, each printing a pass line.

All comparisons are exact (integers and finite sets). Budgets are the
defaults; every instance here is desk scale by construction.
"""

import random

from helpers import brute_homomorphism_exists, cycle_graph, random_graph
from kneser_lab.coloring import chromatic_number, closed_form_chi, is_chi_critical
from kneser_lab.dihedral import (
    act_on_vertex,
    all_elements,
    enumerate_shifts,
    is_shift,
    non_shift_witness,
    predicted_shifts,
)
from kneser_lab.families import (
    cayley_dihedral,
    circular_graph,
    cycle_power,
    kneser,
    parse_family_spec,
    prop_iso_map,
    stable_kneser,
)
from kneser_lab.graphs import complete_graph, connected_components, disjoint_union
from kneser_lab.harness import transported_square_hom
from kneser_lab.homsolver import (
    check_certificate,
    certificate,
    certificate_dumps,
    certificate_loads,
    find_homomorphism,
    is_core,
    verify_homomorphism,
)
from kneser_lab.isomorphism import are_isomorphic, verify_isomorphism

GRID = [(k, s) for k in (2, 3, 4) for s in (2, 3, 4)]


def _grid_cells():
    for k, s in GRID:
        for n in range(s * k + 1, min((k + 2) * s, 16) + 1):
            yield n, k, s


def test_criterion_01_shift_grid():
    cells = 0
    for n, k, s in _grid_cells():
        g = stable_kneser(n, k, s)
        assert enumerate_shifts(g) == predicted_shifts(n, k, s), (n, k, s)
        cells += 1
    assert cells >= 30
    print(f"\nACCEPTANCE 1 shift-grid ({cells} cells): PASS")


def test_criterion_02_reflexions_refuted_with_witnesses():
    checked = 0
    for n, k, s in _grid_cells():
        g = stable_kneser(n, k, s)
        for e in all_elements(n):
            if e.is_rotation:
                continue
            moved, bad_vertex = is_shift(e, g)
            assert not moved, (str(e), n, k, s)
            assert bad_vertex is not None
            witness = non_shift_witness(e, n, k, s)
            assert witness.is_stable(s)
            assert set(witness.elements) & set(act_on_vertex(e, witness).elements)
            if e.kind == "p":
                assert e.index in witness.elements  # the fixed point stays put
            checked += 1
    print(f"\nACCEPTANCE 2 reflexion-witnesses ({checked} reflexions): PASS")


def test_criterion_03_count_and_gap_structure():
    for k in (2, 3, 4, 5):
        for s in (2, 3, 4, 5):
            g = stable_kneser(k * s + 1, k, s)
            assert g.order == k * s + 1, (k, s)
            want = sorted([s] * (k - 1) + [s + 1])
            for v in g.labels:
                assert sorted(v.gaps()) == want, (k, s, str(v))
    print("\nACCEPTANCE 3 count-and-gap-structure (k,s in 2..5): PASS")


def test_criterion_04_explicit_isomorphism():
    for k in (2, 3, 4):
        for s in (2, 3, 4):
            n = k * s + 1
            circ = circular_graph(n, k)
            stab = stable_kneser(n, k, s)
            mapping = prop_iso_map(k, s)
            assert sorted(mapping) == list(range(n))
            assert verify_isomorphism(circ, stab, mapping), (k, s)
            found = are_isomorphic(circ, stab)
            assert found is not None and verify_isomorphism(circ, stab, found)
    print("\nACCEPTANCE 4 explicit-isomorphism (k,s in 2..4): PASS")


CHI_CASES = [
    ("kneser:n=5,k=2", 3),
    ("stable:n=6,k=2,s=2", 4),
    ("stable:n=7,k=3,s=2", 3),
    ("circular:n=7,k=2", 4),
    ("circular:n=9,k=4", 3),
    ("cyclepow:n=8,a=2", 4),
    ("cyclepow:n=10,a=2", 4),
    ("stable:n=8,k=2,s=3", 5),
    ("stable:n=10,k=2,s=4", 6),
]


def test_criterion_05_chromatic_numbers():
    for text, expected in CHI_CASES:
        spec = parse_family_spec(text)
        formula = closed_form_chi(spec)
        assert not formula.conjectural and formula.value == expected, text
        assert chromatic_number(spec.build()).chi == expected, text
    print(f"\nACCEPTANCE 5 chromatic-numbers ({len(CHI_CASES)} instances): PASS")


def test_criterion_06_criticality():
    for text in ("stable:n=6,k=2,s=2", "stable:n=7,k=3,s=2"):
        g = parse_family_spec(text).build()
        report = is_chi_critical(g)
        assert report.critical, text
        assert all(c == report.chi - 1 for c in report.per_vertex)
    g = stable_kneser(8, 2, 3)
    report = is_chi_critical(g)
    assert report.chi == 5 and not report.critical
    assert report.per_vertex[report.witness] == 5
    witness_label = g.labels[report.witness]
    print(f"\nACCEPTANCE 6 criticality (witness {witness_label}): PASS")


def test_criterion_07_cores():
    for builder in (lambda: kneser(5, 2), lambda: stable_kneser(6, 2, 2), lambda: stable_kneser(8, 2, 3)):
        g = builder()
        assert is_core(g).status == "core"
    out = is_core(cycle_graph(6))
    assert out.status == "not-core"
    assert len(out.witness.image()) < 6
    print("\nACCEPTANCE 7 cores: PASS")


def test_criterion_08_hom_idempotence_positive():
    for k, s in ((2, 2), (2, 3), (3, 2)):
        square, g, mapping = transported_square_hom(k, s)
        assert verify_homomorphism(square, g, mapping), (k, s)
    print("\nACCEPTANCE 8 hom-idempotence-positive: PASS")


def test_criterion_09_hom_idempotence_negative():
    # two-stable case on six points
    g6 = stable_kneser(6, 2, 2)
    shifts6 = enumerate_shifts(g6)
    cay6 = cayley_dihedral(6, shifts6)
    assert are_isomorphic(cay6, disjoint_union(cycle_graph(6), cycle_graph(6))) is not None
    assert [len(c) for c in connected_components(cay6)] == [6, 6]
    assert chromatic_number(cay6).chi < chromatic_number(g6).chi
    assert find_homomorphism(g6, cay6).status == "none"
    # the pair family at s = 3
    g8 = stable_kneser(8, 2, 3)
    shifts8 = enumerate_shifts(g8)
    assert tuple(map(str, shifts8)) == ("r1", "r2", "r6", "r7")
    cay8 = cayley_dihedral(8, shifts8)
    piece = cycle_power(8, 2)
    assert are_isomorphic(cay8, disjoint_union(piece, piece)) is not None
    chi_piece = chromatic_number(piece).chi
    assert chi_piece == 4 and chi_piece < chromatic_number(g8).chi
    assert find_homomorphism(g8, cay8).status == "none"
    print("\nACCEPTANCE 9 hom-idempotence-negative: PASS")


def test_criterion_10_solver_cross_validation():
    rng = random.Random(20260809)
    found_certs = []
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 12), rng.choice([0.2, 0.35, 0.5, 0.65]))
        h = random_graph(rng, rng.randint(1, 10), rng.choice([0.2, 0.35, 0.5, 0.65]))
        out = find_homomorphism(g, h)
        assert out.status in ("found", "none")
        assert out.found == brute_homomorphism_exists(g, h)
        if out.found:
            assert verify_homomorphism(g, h, out.homomorphism.mapping)
            found_certs.append((g, h, out))
    # chromatic number must match the hom-into-clique definition on every
    # curated instance (all at most 25 vertices)
    for text, expected in CHI_CASES:
        g = parse_family_spec(text).build()
        assert g.order <= 25
        chi = chromatic_number(g).chi
        assert chi == expected
        assert find_homomorphism(g, complete_graph(chi)).found
        assert find_homomorphism(g, complete_graph(chi - 1)).status == "none"
    # every found certificate survives a serialization round trip
    for g, h, out in found_certs[:50]:
        cert = certificate(
            "homomorphism",
            data=out.homomorphism.mapping,
            source=g,
            target=h,
            verified=True,
            nodes=out.nodes,
        )
        assert check_certificate(certificate_loads(certificate_dumps(cert)), g, h)
    print(f"\nACCEPTANCE 10 solver-cross-validation (200 random, {len(found_certs)} found): PASS")
