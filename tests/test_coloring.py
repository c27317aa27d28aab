import random
from functools import partial

import pytest

from helpers import (
    brute_chromatic_number,
    cycle_graph,
    empty_graph,
    random_graph,
    reference_chromatic,
    reference_dsatur,
    strip_labels,
)
from kneser_lab import coloring
from kneser_lab.budget import BudgetClock, BudgetExhausted, SearchBudget
from kneser_lab.cliques import clique_number
from kneser_lab.coloring import (
    ColoringResult,
    CriticalityReport,
    _colorable,
    _dsatur,
    chromatic_number,
    closed_form_chi,
    is_chi_critical,
)
from kneser_lab.dihedral import orbit_leaders
from kneser_lab.families import parse_family_spec, stable_kneser
from kneser_lab.graphs import complete_graph, delete_vertex
from kneser_lab.harness import load_manifest
from kneser_lab.homsolver import find_homomorphism


def test_chi_small_cases():
    assert chromatic_number(empty_graph(0)).chi == 0
    assert chromatic_number(empty_graph(4)).chi == 1
    assert chromatic_number(complete_graph(4)).chi == 4
    assert chromatic_number(cycle_graph(5)).chi == 3
    assert chromatic_number(cycle_graph(6)).chi == 2


def test_chi_matches_exhaustive_oracle():
    rng = random.Random(67)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 9), rng.choice([0.25, 0.5, 0.75]))
        assert chromatic_number(g).chi == brute_chromatic_number(g)


def test_chi_witnesses_are_sound():
    rng = random.Random(71)
    for _ in range(15):
        g = random_graph(rng, rng.randint(1, 12), 0.5)
        result = chromatic_number(g)
        assert all(result.coloring[u] != result.coloring[v] for u, v in g.edges())
        assert len(set(result.coloring)) == result.chi
        assert all(
            g.has_edge(u, v)
            for i, u in enumerate(result.clique)
            for v in result.clique[i + 1 :]
        )
        assert len(result.clique) <= result.chi


def test_chi_agrees_with_hom_to_clique():
    instances = [
        "kneser:n=5,k=2",
        "stable:n=6,k=2,s=2",
        "stable:n=7,k=3,s=2",
        "circular:n=7,k=2",
        "circular:n=9,k=4",
        "cyclepow:n=8,a=2",
        "cyclepow:n=10,a=2",
        "stable:n=8,k=2,s=3",
        "stable:n=10,k=2,s=4",
    ]
    for text in instances:
        g = parse_family_spec(text).build()
        assert g.order <= 25
        chi = chromatic_number(g).chi
        assert find_homomorphism(g, complete_graph(chi)).status == "found"
        if chi > 1:
            assert find_homomorphism(g, complete_graph(chi - 1)).status == "none"


def test_dsatur_kernel_matches_max_scan_reference():
    # the incremental kernel must walk the max-scan search tree node for node
    rng = random.Random(79)
    graphs = [
        random_graph(rng, rng.randint(1, 20), rng.choice([0.2, 0.4, 0.6, 0.8]))
        for _ in range(120)
    ]
    graphs += [
        parse_family_spec(text).build()
        for text in (
            "stable:n=8,k=2,s=3",
            "stable:n=9,k=2,s=2",
            "kneser:n=7,k=2",
            "circular:n=11,k=3",
            "cyclepow:n=11,a=2",
        )
    ]
    for g in graphs:
        upper, greedy = reference_dsatur(g)
        assert _dsatur(g, g.order, lambda: None) == greedy
        for k in range(clique_number(g).size, upper + 1):
            old, new = BudgetClock(SearchBudget(None, None)), BudgetClock(SearchBudget(None, None))
            assert _dsatur(g, k, new.tick) == reference_dsatur(g, k, old)
            assert new.nodes == old.nodes


def test_chromatic_search_runs_on_the_clock(monkeypatch):
    # every DSATUR search of chromatic_number and of the audit ticks a
    # BudgetClock, so none of their nodes escapes the caller's budget
    ticks = []
    real = coloring._dsatur

    def recording(g, k, tick):
        ticks.append(tick)
        return real(g, k, tick)

    monkeypatch.setattr(coloring, "_dsatur", recording)
    for g in (stable_kneser(6, 2, 2), stable_kneser(8, 2, 3), cycle_graph(7)):
        chromatic_number(g)
        is_chi_critical(g)
    assert ticks
    for tick in ticks:
        assert isinstance(getattr(tick, "__self__", None), BudgetClock)
        assert tick.__func__ is BudgetClock.tick


def _reference_corpus():
    """The bundled chi instances, the chi-exact benchmark specs and 200
    seeded random graphs of order at most 14."""
    texts = [inst["spec"] for inst in load_manifest()["chi_instances"]]
    texts += ["stable:n=11,k=2,s=2", "stable:n=10,k=2,s=2", "stable:n=9,k=3,s=2",
              "kneser:n=9,k=2", "kneser:n=9,k=3", "kneser:n=10,k=4"]
    graphs = [parse_family_spec(text).build() for text in texts]
    rng = random.Random(29)
    graphs += [
        random_graph(rng, rng.randint(0, 14), rng.choice([0.2, 0.4, 0.6, 0.8]))
        for _ in range(200)
    ]
    return graphs


def test_chromatic_matches_greedy_bounded_reference():
    # deciding k = omega, omega + 1, ... finds the greedy-bounded search's
    # answers; when greedy was optimal, the k = chi decision repeats its
    # descent on the clock, one node per vertex and one at the leaf
    for g in _reference_corpus():
        old, greedy = reference_chromatic(g)
        new = chromatic_number(g)
        assert (new.chi, new.coloring, new.clique) == (old.chi, old.coloring, old.clique)
        assert new.nodes == old.nodes + (g.order + 1 if greedy == old.chi else 0)


@pytest.mark.parametrize(
    "text, nodes, chi",
    [
        ("stable:n=10,k=2,s=2", 5_642, 8),
        ("stable:n=9,k=3,s=2", 6_166, 5),
        ("kneser:n=9,k=2", 1_613, 7),
        ("kneser:n=9,k=3", 2_241, 5),
        ("kneser:n=10,k=4", 4_450, 4),
        ("stable:n=11,k=2,s=2", 84_750, 9),
    ],
)
def test_chi_exact_search_trees_are_pinned(text, nodes, chi):
    # a pruning change must update these counts on purpose; `nodes` is the
    # unreduced search, on a copy without labels and so without a group
    plain = chromatic_number(strip_labels(parse_family_spec(text).build()))
    assert (plain.nodes, plain.chi) == (nodes, chi)


def _chi_exact_calls():
    """The calls of the chi-exact benchmark workload, as it lists them: six chi
    searches on labelled graphs, whose clique bound searches one root per
    orbit of the group `label_orbits` verifies, three criticality audits,
    omega(SG(30,5,5)) and chi(SG(12,2,2)) at its 50,000-node cap."""
    unlimited = SearchBudget(None, None)
    calls = [
        partial(chromatic_number, parse_family_spec(text).build(), unlimited)
        for text in ("stable:n=11,k=2,s=2", "stable:n=10,k=2,s=2", "stable:n=9,k=3,s=2",
                     "kneser:n=9,k=2", "kneser:n=9,k=3", "kneser:n=10,k=4")
    ]
    calls += [
        partial(is_chi_critical, parse_family_spec(text).build(), unlimited)
        for text in ("stable:n=10,k=2,s=2", "stable:n=9,k=2,s=2", "kneser:n=7,k=2")
    ]
    calls.append(partial(clique_number, stable_kneser(30, 5, 5), unlimited))
    calls.append(partial(chromatic_number, stable_kneser(12, 2, 2), SearchBudget(50_000, None)))
    return calls


def _pinned(call):
    try:
        result = call()
    except BudgetExhausted as stop:
        return ("exhausted", stop.nodes)
    if isinstance(result, CriticalityReport):
        return (result.critical, result.per_vertex)
    if isinstance(result, ColoringResult):
        return (result.chi, result.nodes)
    return (result.size, result.nodes)


def test_chi_exact_calls_are_pinned():
    # a DSATUR or clique change that alters a search tree shows here first
    assert [_pinned(call) for call in _chi_exact_calls()] == [
        (9, 84_322),
        (8, 5_598),
        (5, 6_164),
        (7, 1_492),
        (5, 2_227),
        (4, 4_396),
        (True, (7,) * 35),
        (True, (6,) * 27),
        (False, (5,) * 21),
        (6, 23_345),
        ("exhausted", 50_001),
    ]


def test_criticality_small():
    assert is_chi_critical(complete_graph(5)).critical
    assert is_chi_critical(cycle_graph(5)).critical
    report = is_chi_critical(cycle_graph(6))
    assert not report.critical and report.witness is not None


def test_criticality_spends_one_budget():
    # the audit solves g, then decides one deletion per orbit with chi - 1
    # colours, all on one clock
    g = stable_kneser(6, 2, 2)
    result = chromatic_number(g)
    costs = [result.nodes]
    for v in sorted(set(orbit_leaders(g))):
        clock = BudgetClock(SearchBudget(node_limit=None, time_limit=None))
        _colorable(delete_vertex(g, v), result.chi - 1, clock.tick)
        costs.append(clock.nodes)
    assert costs == [27, 13, 9]
    total = sum(costs)
    assert is_chi_critical(g, SearchBudget(node_limit=total, time_limit=None)).critical
    with pytest.raises(BudgetExhausted):
        is_chi_critical(g, SearchBudget(node_limit=total - 1, time_limit=None))


def _audit_corpus():
    """Seeded random graphs of order at most 9, K0, K1, edgeless graphs and
    the critical rows of the bundled manifest."""
    rng = random.Random(16)
    graphs = {
        f"random {i}": random_graph(rng, rng.randint(2, 9), rng.choice([0.25, 0.5, 0.75]))
        for i in range(40)
    }
    graphs.update({"K0": complete_graph(0), "K1": complete_graph(1)})
    graphs.update({f"edgeless {n}": empty_graph(n) for n in (2, 3, 5)})
    graphs.update(
        (inst["spec"], parse_family_spec(inst["spec"]).build())
        for inst in load_manifest()["chi_instances"]
        if "critical" in inst
    )
    return graphs


AUDIT_CORPUS = _audit_corpus()


@pytest.mark.parametrize("name", sorted(AUDIT_CORPUS))
def test_criticality_matches_exhaustive_oracle(name):
    g = AUDIT_CORPUS[name]
    report = is_chi_critical(g)
    assert report.chi == brute_chromatic_number(g)
    per_vertex = tuple(brute_chromatic_number(delete_vertex(g, v)) for v in range(g.order))
    assert report.per_vertex == per_vertex
    first_kept = next((v for v, sub in enumerate(per_vertex) if sub == report.chi), None)
    assert (report.critical, report.witness) == (first_kept is None, first_kept)


@pytest.mark.parametrize(
    "text, nodes",
    [
        ("stable:n=6,k=2,s=2", 49),
        ("stable:n=7,k=3,s=2", 25),
        ("stable:n=8,k=2,s=3", 58),
        ("stable:n=10,k=2,s=4", 77),
    ],
)
def test_criticality_audit_nodes_are_pinned(text, nodes):
    # a pruning change must update these totals on purpose; the report
    # digests cannot see them, since criticality rows record no nodes
    g = parse_family_spec(text).build()
    is_chi_critical(g, SearchBudget(node_limit=nodes, time_limit=None))
    with pytest.raises(BudgetExhausted):
        is_chi_critical(g, SearchBudget(node_limit=nodes - 1, time_limit=None))


def test_improper_colouring_is_refused(monkeypatch):
    # a search that colours K2 or C7 with one colour is caught by the
    # re-check, in the chromatic number and in a deletion of the audit alike;
    # C7 into K2 is a map into fewer vertices, which the checker takes by fibres
    real = coloring._dsatur
    faulty = lambda g, k, tick: (0,) * g.order if g.order in (2, 7) else real(g, k, tick)
    monkeypatch.setattr(coloring, "_dsatur", faulty)
    with pytest.raises(RuntimeError):
        chromatic_number(complete_graph(2))
    with pytest.raises(RuntimeError):
        chromatic_number(cycle_graph(7))
    assert chromatic_number(complete_graph(3)).chi == 3
    with pytest.raises(RuntimeError):
        is_chi_critical(complete_graph(3))


def test_criticality_two_stable():
    report = is_chi_critical(stable_kneser(6, 2, 2))
    assert report.chi == 4 and report.critical
    assert report.per_vertex == (3,) * 9


def test_non_criticality_pair_family():
    g = stable_kneser(8, 2, 3)
    report = is_chi_critical(g)
    assert report.chi == 5 and not report.critical
    assert report.per_vertex[report.witness] == 5
    # deletions inside the clique block (pairs at circular distance s+1) keep
    # the chromatic number; every other deletion drops it
    for v, label in enumerate(g.labels):
        in_clique_block = sorted(label.gaps()) == [4, 4]
        assert (report.per_vertex[v] == 5) == in_clique_block


def test_closed_form_values():
    cases = [
        ("kneser:n=7,k=3", 3, False, "kneser"),
        ("kneser:n=5,k=2", 3, False, "kneser"),
        ("circular:n=7,k=2", 4, False, "circular"),
        ("cyclepow:n=8,a=2", 4, False, "cycle-power"),
        ("cyclepow:n=10,a=2", 4, False, "cycle-power"),
        ("stable:n=6,k=2,s=2", 4, False, "stable-2"),
        ("stable:n=7,k=2,s=3", 4, False, "stable-circulant"),
        ("stable:n=8,k=2,s=3", 5, False, "stable-pair-family"),
        ("stable:n=10,k=2,s=4", 6, False, "stable-pair-family"),
        ("stable:n=9,k=2,s=3", 6, True, "stable-conjecture"),
        ("stable:n=11,k=3,s=3", 5, True, "stable-conjecture"),
    ]
    for text, value, conjectural, rule in cases:
        formula = closed_form_chi(parse_family_spec(text))
        assert (formula.value, formula.conjectural, formula.rule) == (value, conjectural, rule)


def test_closed_form_rejects_uncovered():
    with pytest.raises(ValueError):
        closed_form_chi(parse_family_spec("circulant:n=8,conn=1,7"))
    with pytest.raises(ValueError):
        closed_form_chi(parse_family_spec("caydih:n=6,gens=r1,r5"))
    with pytest.raises(ValueError):
        closed_form_chi(parse_family_spec("stable:n=6,k=2,s=3"))  # n = ks


def test_conjectured_value_on_probe_instance():
    # the probe instance the conjecture predicts as 6; exact solver agrees here
    g = stable_kneser(9, 2, 3)
    assert chromatic_number(g).chi == 6
