import hashlib
import json
import random
import re
import shlex
import time
from pathlib import Path

import pytest

from kneser_lab import cli, coloring, dihedral, families, harness, homsolver
from kneser_lab.budget import SearchBudget
from kneser_lab.claims import CLAIMS
from kneser_lab.cliques import clique_number, independence_number
from kneser_lab.dimacs import dimacs_dumps, dimacs_loads, read_dimacs
from kneser_lab.families import parse_family_spec, stable_kneser
from kneser_lab.graphs import complete_graph, induced_subgraph, make_graph
from kneser_lab.isomorphism import verify_isomorphism
from kneser_lab.labels import KSubset


def _by_claim(reports, claim_id):
    return [r for r in reports if r.claim_id == claim_id]


def test_shift_suite_passes():
    grid = {"k_values": [2], "s_values": [2, 3], "n_cap": 10}
    reports = harness.run_shift_grid(manifest={"shift_grid": grid})
    assert reports and all(r.status == "pass" for r in reports)
    cell = [r for r in _by_claim(reports, "shift-grid") if r.params == {"n": 6, "k": 2, "s": 2}]
    assert cell and cell[0].computed == ["r1", "r5"]


def test_shift_grid_rows_time_the_enumeration(monkeypatch):
    # a shift-grid row reports the shifts it found, so its seconds must
    # include the enumeration that found them
    enumerate_shifts = dihedral.enumerate_shifts

    def slow(g):
        time.sleep(0.01)
        return enumerate_shifts(g)

    monkeypatch.setattr(dihedral, "enumerate_shifts", slow)
    grid = {"k_values": [2], "s_values": [2], "n_cap": 5}
    rows = _by_claim(harness.run_shift_grid(manifest={"shift_grid": grid}), "shift-grid")
    assert rows and all(r.status == "pass" and r.seconds >= 0.01 for r in rows)


def test_count_and_iso_suites_pass():
    counts = {"counting_grid": {"k_values": [2, 3], "s_values": [2, 3]}}
    assert all(r.status == "pass" for r in harness.run_count_grid(manifest=counts))
    iso = {"iso_grid": {"k_values": [2, 3], "s_values": [2]}}
    assert all(r.status == "pass" for r in harness.run_prop_iso(manifest=iso))


def test_chi_suite_passes_with_witnesses():
    reports = harness.run_chi_suite()
    assert all(r.status == "pass" for r in reports)
    noncrit = _by_claim(reports, "chi-not-critical")
    assert len(noncrit) == 2
    for r in noncrit:
        assert r.computed is False and "witness_label" in r.evidence
    lower = _by_claim(reports, "chi-lower-bound")
    assert lower and lower[0].computed == 5
    assert lower[0].evidence["alpha_block_s"] == 2


def test_core_suite_passes():
    reports = harness.run_core_suite()
    assert all(r.status == "pass" for r in reports)
    not_core = [r for r in reports if r.expected == "not-core"]
    assert not_core and not_core[0].evidence["image_size"] < 6


def test_homidem_suite_passes():
    reports = harness.run_hom_idempotence_suite()
    assert all(r.status == "pass" for r in reports)
    assert not any(r.claim_id == "homidem-square-search" for r in reports)
    shape = [
        r
        for r in _by_claim(reports, "homidem-negative-shape")
        if r.params == {"n": 6, "k": 2, "s": 2}
    ]
    assert shape and shape[0].evidence["components"] == [6, 6]
    assert shape[0].evidence["shifts"] == ["r1", "r5"]
    chi_rows = _by_claim(reports, "homidem-negative-chi")
    assert all(r.computed is True for r in chi_rows)


def test_homidem_optional_square_searches_complete():
    reports = harness.run_hom_idempotence_suite(include_square_search=True)
    squares = _by_claim(reports, "homidem-square-search")
    assert len(squares) == 3
    # the direct searches actually finish on the default instances,
    # refuting hom-idempotence without the constituent chain
    assert all(r.status == "pass" and r.computed == "none" for r in squares)


def test_faulty_circulant_map_fails_its_rows(monkeypatch):
    # the iso-map and homidem-positive rows are the only checks of the explicit
    # map, so an image that is not a vertex grades as a failure, not an error
    original = families.prop_iso_images

    def images(k, s):
        return (KSubset((1, 2), k * s + 1),) + original(k, s)[1:]

    monkeypatch.setattr(families, "prop_iso_images", images)
    assert families.prop_iso_map(2, 3)[0] == -1
    iso = harness.run_prop_iso(manifest={"iso_grid": {"k_values": [2], "s_values": [3]}})
    assert [r.status for r in _by_claim(iso, "iso-map")] == ["fail"]
    manifest = {
        "hom_positive": [{"k": 2, "s": 3}],
        "hom_negative_two_stable": [],
        "hom_negative_pair_family": [],
    }
    homidem = harness.run_hom_idempotence_suite(manifest=manifest)
    assert [(r.claim_id, r.status) for r in homidem] == [("homidem-positive", "fail")]


def test_faulty_reflexion_witness_fails_its_row(monkeypatch):
    # the reflexion row is the only check of each witness, so a vertex that
    # misses its image grades as a failure naming the reflexion, not an error
    def first_vertex(e, n, k, s):
        return KSubset(tuple(1 + t * s for t in range(k)), n)

    monkeypatch.setattr(dihedral, "non_shift_witness", first_vertex)
    grid = {"shift_grid": {"k_values": [2], "s_values": [3], "n_cap": 9}}
    rows = _by_claim(harness.run_shift_grid(manifest=grid), "shift-reflexion-witness")
    assert [r.status for r in rows] == ["fail"] * 3
    assert sum(len(r.computed) for r in rows) == 15


def test_claim_ids_have_manifest_entries():
    reports = harness.run_all()
    for r in reports:
        info = CLAIMS[r.claim_id]
        assert info["statement"] and info["topic"]
        assert r.provenance == info["provenance"]


def test_stable_pair_structures():
    s = 3
    n = 2 * s + 2
    g = stable_kneser(n, 2, s)
    block_s, block_t = harness.stable_pair_sets(s)
    assert len(block_s) == 2 * s + 2 and len(block_t) == s + 1
    assert set(block_s) | set(block_t) == set(g.labels)
    assert not set(block_s) & set(block_t)
    index = g.label_index()
    t_sub = induced_subgraph(g, [index[v] for v in block_t])
    assert t_sub.edge_count == (s + 1) * s // 2  # a complete block of size s+1
    clique = clique_number(t_sub)
    assert clique.size == s + 1 and clique.vertices == (0, 1, 2, 3)
    s_sub = induced_subgraph(g, [index[v] for v in block_s])
    assert independence_number(s_sub).size == 2


def test_manifest_is_configuration(tmp_path):
    manifest = harness.load_manifest()
    manifest["chi_instances"] = [{"spec": "kneser:n=5,k=2"}]
    manifest["chi_lower_bound_s"] = []
    path = tmp_path / "small.json"
    path.write_text(json.dumps(manifest))
    reports = harness.run_chi_suite(manifest=harness.load_manifest(str(path)))
    assert len(reports) == 1 and reports[0].status == "pass"


def test_search_row_keeps_a_found_map_as_a_certificate():
    # a "none" claim whose search finds a map fails, and the map is checkable evidence
    c6, k2 = families.cycle_power(6, 1), complete_graph(2)
    row = harness._search_row("homidem-negative-search", {}, "none", None, c6, k2)
    assert (row.status, row.computed) == ("fail", "found")
    assert homsolver.check_certificate(row.evidence["witness"], c6, k2)
    assert row.evidence["image_size"] == 2


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        harness.run_suite("nonsense")


def test_probe_reports_are_flagged():
    reports = harness.probe_conjectures([9], [2], [3])
    assert reports
    for r in reports:
        assert r.conjecture
    chi_rows = [r for r in reports if r.claim_id == "conjecture-chi"]
    assert chi_rows and chi_rows[0].computed == 6 and chi_rows[0].status == "pass"


@pytest.mark.parametrize("budget", [SearchBudget(3_000_000, 120.0), None], ids=str)
def test_square_searches_run_on_the_callers_budget(monkeypatch, budget):
    # the direct square searches take the budget they are given, with no
    # limits of their own on top, and None stays None (the default limits)
    find = harness.homsolver.find_homomorphism
    seen = []

    def recording(g, h, b=None):
        if g.order == h.order**2:
            seen.append(b)
        return find(g, h, b)

    monkeypatch.setattr(harness.homsolver, "find_homomorphism", recording)
    harness.run_hom_idempotence_suite(budget=budget, include_square_search=True)
    assert len(seen) == 3
    harness.probe_conjectures([9], [2], [3], budget=budget, square_order_cap=400)
    assert len(seen) == 4
    assert all(b is budget for b in seen)


def _untimed_digest(reports) -> str:
    def untimed(value):
        if isinstance(value, dict):
            return {k: untimed(v) for k, v in value.items() if k != "seconds"}
        if isinstance(value, list):
            return [untimed(v) for v in value]
        return value

    blob = json.dumps(untimed(harness.reports_to_json(reports)), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


VERIFY_ALL_DIGEST = "b9d906c29d1de793"


def test_verify_all_report_digest():
    # Pins the whole `verify all --json` content except timings; a change
    # that alters verify output must update this digest and say why. Last
    # moved when the core test began to search only idempotent maps: the
    # `nodes` of the core-status rows fell, and no answer changed.
    assert _untimed_digest(harness.run_all()) == VERIFY_ALL_DIGEST


def test_answers_do_not_depend_on_the_environment(monkeypatch):
    # a budget comes from the caller only; a variable that once set one is inert
    monkeypatch.setenv("KNESER_LAB_BUDGET", "1,0.001")
    assert coloring.chromatic_number(stable_kneser(8, 2, 3)).chi == 5
    assert _untimed_digest(harness.run_all()) == VERIFY_ALL_DIGEST


def test_verify_homidem_square_report_digest():
    # Pins `verify homidem --square --json` except timings, which adds the
    # three direct square searches (28, 42 and 153 nodes) that `verify all`
    # leaves out. Last moved with the verify-all digest, by the nodes of its
    # core-status row.
    reports = harness.run_hom_idempotence_suite(include_square_search=True)
    assert _untimed_digest(reports) == "1f4c0cbdae80b883"


def test_verify_json_deterministic():
    # perfbench's verify-all answer hashes each row with only its top-level
    # seconds removed, and every iteration must repeat it: a time anywhere
    # else in a row, such as a certificate's, would break that answer

    def untimed(reports):
        out = harness.reports_to_json(reports)
        for row in out["reports"]:
            del row["seconds"]
        return json.dumps(out, sort_keys=True)

    assert untimed(harness.run_all()) == untimed(harness.run_all())


def test_exit_code_logic():
    reports = harness.run_core_suite()
    assert harness.exit_code_for(reports) == 0
    reports[0].status = "exhausted"
    assert harness.exit_code_for(reports) == 3
    reports[1].status = "fail"
    assert harness.exit_code_for(reports) == 2


def test_cli_construct_and_read_back(tmp_path, capsys):
    out = tmp_path / "g.dimacs"
    code = cli.main(["construct", "stable:n=6,k=2,s=2", "--out", str(out)])
    assert code == 0
    assert read_dimacs(out) == stable_kneser(6, 2, 2)
    printed = capsys.readouterr().out
    assert "9 vertices" in printed


def test_cli_construct_writes_dimacs_to_stdout(capsys):
    # with --out -, stdout carries the DIMACS text alone and the summary goes
    # to stderr, so the lab's own reader takes the output back, labels included
    assert cli.main(["construct", "stable:n=8,k=2,s=2", "--out", "-"]) == 0
    captured = capsys.readouterr()
    assert dimacs_loads(captured.out) == stable_kneser(8, 2, 2)
    assert "20 vertices, 110 edges" in captured.err


def test_cli_shifts_predict(capsys):
    assert cli.main(["shifts", "stable:n=8,k=2,s=2", "--predict"]) == 0
    printed = capsys.readouterr().out
    assert "r1, r7" in printed and "agree: True" in printed


def test_cli_chi_core_hom_iso(capsys):
    assert cli.main(["chi", "stable:n=7,k=2,s=3"]) == 0
    assert "chi = 4" in capsys.readouterr().out
    assert cli.main(["core", "cyclepow:n=6,a=1"]) == 0
    assert "not-core" in capsys.readouterr().out
    assert cli.main(["hom", "cyclepow:n=5,a=1", "kneser:n=5,k=2"]) == 0
    assert "found" in capsys.readouterr().out
    assert cli.main(["iso", "circular:n=7,k=2", "stable:n=7,k=2,s=3"]) == 0
    assert "isomorphic" in capsys.readouterr().out
    assert cli.main(["iso", "cyclepow:n=6,a=1", "kneser:n=4,k=2"]) == 0
    assert "not isomorphic" in capsys.readouterr().out


_C6_CERT = (
    '{"kind": "homomorphism", "map": [2, 1, 2, 1, 2, 1], "nodes": 8, "seconds": S, '
    '"source": {"digest": "79dc2cd5da97a589", "edges": 6, "order": 6}, '
    '"target": {"digest": "79dc2cd5da97a589", "edges": 6, "order": 6}, "verified": true}'
)
_C5_PETERSEN_CERT = (
    '{"kind": "homomorphism", "map": [0, 7, 3, 4, 9], "nodes": 9, "seconds": S, '
    '"source": {"digest": "3a1cfbd4cd576f42", "edges": 5, "order": 5}, '
    '"target": {"digest": "409159ebfa6a45e1", "edges": 15, "order": 10}, "verified": true}'
)


@pytest.mark.parametrize(
    "argv, code, stdout",
    [
        (["core", "cyclepow:n=6,a=1"], 0, f"not-core\n{_C6_CERT}\n"),
        (["core", "stable:n=8,k=2,s=3"], 0, "core\n"),
        (["hom", "cyclepow:n=5,a=1", "kneser:n=5,k=2"], 0, f"found\n{_C5_PETERSEN_CERT}\n"),
        (["--budget", "10,", "core", "stable:n=8,k=2,s=3"], 3, "exhausted after 11 nodes\n"),
    ],
    ids=["not-core", "core", "found", "exhausted"],
)
def test_cli_core_and_hom_stdout_is_pinned(capsys, argv, code, stdout):
    # the status line, then the certificate of a map found; only its seconds vary
    assert cli.main(argv) == code
    assert re.sub(r'"seconds": [^,]+', '"seconds": S', capsys.readouterr().out) == stdout


def test_cli_chi_certificate_carries_the_search_time(monkeypatch, capsys):
    colorable = coloring._colorable

    def slow(*args):
        time.sleep(0.01)
        return colorable(*args)

    monkeypatch.setattr(coloring, "_colorable", slow)
    assert cli.main(["chi", "stable:n=7,k=2,s=3"]) == 0
    cert = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert cert["kind"] == "coloring" and cert["seconds"] >= 0.01


@pytest.mark.parametrize(
    "argv, answer",
    [
        (["hom", "cyclepow:n=1001,a=1", "cyclepow:n=3,a=1"], "found"),
        (["iso", "cyclepow:n=1001,a=1", "cyclepow:n=1001,a=1"], "isomorphic"),
        (["chi", "cyclepow:n=1001,a=500"], "chi = 1001"),
    ],
    ids=["hom", "iso", "chi"],
)
def test_cli_searches_deeper_than_the_recursion_limit(capsys, argv, answer):
    # each search fixes one vertex per level, so it runs about 1,000 levels deep
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines()[0] == answer


@pytest.mark.parametrize("spec", ["stable:n=12,k=2,s=2", "stable:n=14,k=2,s=3"])
def test_cli_iso_finds_map_when_refinement_leaves_one_class(tmp_path, capsys, spec):
    # refinement leaves one colour class, so the search alone must find the map
    g = parse_family_spec(spec).build()
    perm = random.Random(12).sample(range(g.order), g.order)
    path = tmp_path / "relabelled.dimacs"
    path.write_text(dimacs_dumps(make_graph(g.order, [(perm[u], perm[v]) for u, v in g.edges()])))
    assert cli.main(["--budget", "100000,", "iso", str(path), spec]) == 0
    verdict, printed_map = capsys.readouterr().out.splitlines()
    assert verdict == "isomorphic"
    assert verify_isomorphism(read_dimacs(path), g, json.loads(printed_map))


def test_cli_chi_from_dimacs(tmp_path, capsys):
    out = tmp_path / "c5.dimacs"
    assert cli.main(["construct", "cyclepow:n=5,a=1", "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["chi", str(out)]) == 0
    assert "chi = 3" in capsys.readouterr().out


def test_cli_verify_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.main(["verify", "counts", "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["reports"] and all(r["status"] == "pass" for r in data["reports"])
    assert "count-vertices" in data["claims"]


def test_cli_usage_errors_exit_64(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["bogus"])
    assert err.value.code == 64
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "nonsense"])
    assert err.value.code == 64
    assert cli.main(["construct", "mystery:n=1"]) == 64


def test_cli_shifts_predict_usage_error_prints_nothing(capsys):
    # no prediction exists for n <= sk; that is found before any output
    assert cli.main(["shifts", "stable:n=6,k=2,s=3", "--predict"]) == 64
    printed = capsys.readouterr()
    assert printed.out == "" and "no shift characterization" in printed.err


def test_cli_shifts_requires_stable(capsys):
    assert cli.main(["shifts", "kneser:n=5,k=2"]) == 64


@pytest.mark.parametrize(
    "argv",
    [
        ["chi", "stable:n=8,k=2,s=3"],
        ["iso", "stable:n=8,k=2,s=3", "stable:n=8,k=2,s=3"],
        ["core", "stable:n=8,k=2,s=3"],
        ["hom", "stable:n=8,k=2,s=3", "stable:n=8,k=2,s=3"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_budget_exhaustion_exit(argv, capsys):
    # every search verb reports exhaustion in the same one line
    assert cli.main(["--budget", "1,", *argv]) == 3
    assert capsys.readouterr().out == "exhausted after 2 nodes\n"


def test_exhausted_rows_have_no_computed_value(tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(["--budget", "0", "verify", "all", "--json", str(out)]) == 3
    rows = [r for r in json.loads(out.read_text())["reports"] if r["status"] == "exhausted"]
    # rows of solvers that raise and of solvers that return an "exhausted" status
    assert {"chi-exact", "core-status", "homidem-negative-search"} <= {r["claim_id"] for r in rows}
    for r in rows:
        assert r["computed"] is None
        assert type(r["evidence"]["nodes"]) is int


@pytest.mark.parametrize("n", [999, 1201])
def test_cli_chi_on_long_cycles(n, capsys):
    # the colouring search is as deep as the graph is large
    assert cli.main(["chi", f"cyclepow:n={n},a=1"]) == 0
    assert capsys.readouterr().out.startswith("chi = 3\n")


def test_cli_rejects_nonsense_budgets(capsys):
    for text in ("-5,", "100,-1", "100,nan", "100,inf", "-1,-1"):
        with pytest.raises(ValueError):
            SearchBudget.from_text(text)
        assert cli.main([f"--budget={text}", "chi", "stable:n=7,k=2,s=3"]) == 64
        assert cli.main([f"--budget={text}", "verify", "shifts"]) == 64
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("kneser-lab: error: ") == 2
    # text that is not a number names the flag
    for text in ("x", "10,x"):
        assert cli.main(["--budget", text, "chi", "stable:n=6,k=2,s=2"]) == 64
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("kneser-lab: error: --budget ")
    # a zero node limit is legal: the search stops at its first node
    assert SearchBudget.from_text("0,0") == SearchBudget(0, 0.0)
    assert cli.main(["--budget=0,", "chi", "stable:n=7,k=2,s=3"]) == 3


def test_cli_bad_budget_fails_before_any_work(tmp_path, monkeypatch, capsys):
    # every verb, even one that runs no solver, rejects a malformed --budget
    # before it builds a graph or opens a file
    out = tmp_path / "g.dimacs"
    assert cli.main(["--budget", "x", "construct", "stable:n=6,k=2,s=2", "--out", str(out)]) == 64
    assert not out.exists()
    assert cli.main(["--budget", "x", "shifts", "stable:n=6,k=2,s=2"]) == 64
    report = tmp_path / "report.json"
    report.write_text("kept\n")
    assert cli.main(["--budget", "x", "verify", "shifts", "--json", str(report)]) == 64
    assert report.read_text() == "kept\n"
    loaded = []
    monkeypatch.setattr(cli, "_load_graph", loaded.append)
    assert cli.main(["--budget", "x", "chi", "stable:n=6,k=2,s=2"]) == 64
    assert loaded == []
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("kneser-lab: error: --budget 'x'") == 4


@pytest.mark.parametrize(
    "argv, code",
    [
        (["verify", "shifts"], 0),
        (["verify", "counts"], 0),
        (["verify", "iso"], 3),
        (["verify", "chi"], 3),
        (["verify", "cores"], 3),
        (["verify", "homidem"], 3),
        (["verify", "homidem", "--square"], 3),
        (["verify", "all"], 3),
        (["chi", "stable:n=8,k=2,s=3"], 3),
        (["core", "stable:n=8,k=2,s=3"], 3),
        (["hom", "kneser:n=6,k=2", "cyclepow:n=7,a=2"], 3),
        (["probe"], 0),
    ],
    ids=lambda value: "_".join(value) if isinstance(value, list) else None,
)
def test_cli_small_budget_never_crashes(argv, code, capsys):
    # the shift and count grids run no budgeted solver, so they still pass;
    # the iso grid decides every row within 10 nodes, but half of them need
    # more than 4
    budget = "4,1" if argv == ["verify", "iso"] else "10,1"
    assert cli.main(["--budget", budget, *argv]) == code
    out = capsys.readouterr().out
    if argv == ["verify", "chi"]:
        assert "total=14 " in out
    if argv == ["probe"]:
        lines = out.splitlines()
        assert lines and all(line.split()[0] in ("EXHAUSTED", "PASS") for line in lines)


@pytest.mark.parametrize(
    "inst",
    [
        {"spec": "stable:n=9,k=2,s=3"},  # only conjectured
    ],
)
def test_cli_manifest_chi_must_match_closed_form(tmp_path, capsys, inst):
    manifest = harness.load_manifest()
    manifest["chi_instances"] = [inst]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(manifest))
    assert cli.main(["verify", "chi", "--manifest", str(path)]) == 64
    assert "closed form" in capsys.readouterr().err


@pytest.mark.parametrize(
    "suite, section, value, key",
    [
        ("chi", "chi_instances", [{"spec": "stable:n=6,k=2,s=2", "critcal": True}], "critcal"),
        ("chi", "chi_instances", [{"spec": "kneser:n=5,k=2", "chi": 4}], "chi"),
        ("cores", "core_instances", [{"spec": "kneser:n=5,k=2", "core": True, "order": 10}], "order"),
        ("shifts", "shift_grid", {"k_values": [2], "s_values": [2], "n_cap": 6, "ncap": 8}, "ncap"),
        ("homidem", "hom_negative_pair_family", [{"s": 3, "n": 8}], "n"),
        ("cores", "core_instance", [], "core_instance"),
    ],
    ids=["critcal", "stale chi", "order", "ncap", "pair family n", "section"],
)
def test_cli_manifest_keys_no_suite_reads_exit_64(tmp_path, capsys, suite, section, value, key):
    # a misspelt or stale key would otherwise drop its check without a word
    manifest = harness.load_manifest()
    manifest[section] = value
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert cli.main(["verify", suite, "--manifest", str(path)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"kneser-lab: error: manifest key {key!r} ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "case",
    [
        "missing manifest",
        "chi on a directory",
        "hom on a directory",
        "no chi section",
        "empty",
        "grid without s_values",
        "core without spec",
        "json to a directory",
        "k_values not a list",
        "spec not a string",
        "lower bound s not integers",
        "critical not a bool",
        "section not a container",
        "manifest not JSON",
        "probe range backwards",
        "probe range not integers",
        "probe range without upper end",
        "probe k range without upper end",
        "probe n at most ks",
        "probe k below 2",
        "probe s below 2",
        "probe square cap negative",
        "spec key with two values",
        "spec key twice",
        "spec stray value",
        "dimacs labels for some vertices",
    ],
)
def test_cli_bad_paths_and_manifests_exit_64(tmp_path, capsys, case):
    manifests = {
        "grid": {"shift_grid": {"k_values": [2]}},
        "empty": {},
        "cores": {"core_instances": [{"core": True}]},
        "scalar_k": {"shift_grid": {"k_values": 2, "s_values": [2], "n_cap": 10}},
        "int_spec": {"core_instances": [{"spec": 5, "core": True}]},
        "str_s": {"chi_instances": [], "chi_lower_bound_s": ["3"]},
        "str_critical": {
            "chi_instances": [{"spec": "stable:n=6,k=2,s=2", "chi": 4, "critical": "yes"}],
            "chi_lower_bound_s": [],
        },
        "scalar_section": {"core_instances": 5},
    }
    for name, manifest in manifests.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(manifest))
    argv = {
        "missing manifest": ["verify", "all", "--manifest", str(tmp_path / "missing.json")],
        "chi on a directory": ["chi", str(tmp_path)],
        "hom on a directory": ["hom", str(tmp_path), "stable:n=7,k=2,s=2"],
        "no chi section": ["verify", "chi", "--manifest", str(tmp_path / "grid.json")],
        "empty": ["verify", "chi", "--manifest", str(tmp_path / "empty.json")],
        "grid without s_values": ["verify", "shifts", "--manifest", str(tmp_path / "grid.json")],
        "core without spec": ["verify", "cores", "--manifest", str(tmp_path / "cores.json")],
        "json to a directory": ["verify", "counts", "--json", str(tmp_path)],
        "k_values not a list": ["verify", "shifts", "--manifest", str(tmp_path / "scalar_k.json")],
        "spec not a string": ["verify", "cores", "--manifest", str(tmp_path / "int_spec.json")],
        "lower bound s not integers": ["verify", "chi", "--manifest", str(tmp_path / "str_s.json")],
        "critical not a bool": ["verify", "chi", "--manifest", str(tmp_path / "str_critical.json")],
        "section not a container": ["verify", "cores", "--manifest", str(tmp_path / "scalar_section.json")],
        "manifest not JSON": ["verify", "chi", "--manifest", str(tmp_path / "notes.md")],
        "probe range backwards": ["probe", "--n", "12:9"],
        "probe range not integers": ["probe", "--n", "9:x"],
        "probe range without upper end": ["probe", "--n", "9:"],
        "probe k range without upper end": ["probe", "--n", "9", "--k", "2:", "--s", "3"],
        "probe n at most ks": ["probe", "--n", "3", "--k", "2", "--s", "3"],
        "probe k below 2": ["probe", "--n", "9", "--k", "0", "--s", "3"],
        "probe s below 2": ["probe", "--n", "9", "--k", "2", "--s", "0"],
        "probe square cap negative": ["probe", "--n", "9", "--square-cap", "-1"],
        "spec key with two values": ["construct", "stable:n=8,9,k=2,s=3"],
        "spec key twice": ["construct", "stable:n=8,n=9,k=2,s=3"],
        "spec stray value": ["construct", "stable:8,k=2,s=3"],
        "dimacs labels for some vertices": ["chi", str(tmp_path / "partial.dimacs")],
    }[case]
    (tmp_path / "notes.md").write_text("# not a manifest\n")
    (tmp_path / "partial.dimacs").write_text("c label 1 z0@3\nc label 2 z1@3\np edge 3 0\n")
    assert cli.main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("kneser-lab: error: ") and captured.err.count("\n") == 1
    # the line names the flag or the path the input came from
    named = {
        "missing manifest": "missing.json",
        "manifest not JSON": str(tmp_path / "notes.md"),
        "probe range backwards": "--n '12:9'",
        "probe range not integers": "--n '9:x'",
        "probe range without upper end": "--n '9:'",
        "probe k range without upper end": "--k '2:'",
        "probe n at most ks": "--n/--k/--s",
        "probe k below 2": "--n/--k/--s",
        "probe s below 2": "--n/--k/--s",
        "probe square cap negative": "--square-cap",
        "spec key with two values": "key 'n' takes a single value",
        "spec key twice": "duplicate key 'n'",
        "spec stray value": "stray value '8'",
        "dimacs labels for some vertices": "cover every vertex",
    }
    assert named.get(case, "") in captured.err


def test_cli_probe(capsys):
    assert cli.main(["probe", "--n", "9", "--k", "2", "--s", "3"]) == 0
    printed = capsys.readouterr().out
    assert "CONJECTURE" in printed


def _readme_cli_examples():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("kneser-lab ")]
    assert lines, "README.md has no kneser-lab lines in its CLI block"
    return [shlex.split(line, comments=True)[1:] for line in lines]


@pytest.mark.parametrize("argv", _readme_cli_examples(), ids=" ".join)
def test_readme_cli_examples_run(argv, tmp_path, monkeypatch, capsys):
    # every documented command must keep working, run where it may write files
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
