"""Named, reproducible verification suites.

Each suite maps one family of claims onto concrete desk-scale instances,
producing VerificationReport rows. Instance lists are configuration data
(data/suites.json), not code, so grids can be rescaled without rebuilding.
A row passes only on exact equality of expected and computed values, and a
solver that exhausts its budget can never produce a pass.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from importlib import resources
from pathlib import Path

from . import coloring, dihedral, homsolver
from .budget import BudgetExhausted
from .claims import CLAIMS
from .cliques import independence_number
from .dihedral import mod1
from .families import (
    cayley_dihedral,
    circular_graph,
    cycle_power,
    parse_family_spec,
    prop_iso_map,
    stable_kneser,
)
from .graphs import (
    Graph,
    cartesian_product,
    connected_components,
    disjoint_union,
    induced_subgraph,
)
from .isomorphism import are_isomorphic, verify_isomorphism
from .labels import KSubset


@dataclass
class VerificationReport:
    claim_id: str
    params: dict
    expected: object
    computed: object
    provenance: str
    status: str  # "pass" | "fail" | "exhausted"
    evidence: dict = field(default_factory=dict)
    seconds: float = 0.0
    conjecture: bool = False

    def to_json(self) -> dict:
        return {**asdict(self), "seconds": round(self.seconds, 3)}


def _row(claim_id, params, expected, check) -> VerificationReport:
    """Time check() and grade the (computed, evidence) pair it returns.

    This is the only place a suite turns solver results into a status: a
    raised BudgetExhausted or a returned "exhausted" status becomes an
    exhausted row with computed None, otherwise the row passes only when
    computed == expected.
    """
    info = CLAIMS[claim_id]
    t0 = time.monotonic()
    try:
        computed, evidence = check()
    except BudgetExhausted as stop:
        computed, evidence = "exhausted", {"nodes": stop.nodes}
    if computed == "exhausted":
        computed, status = None, "exhausted"
    else:
        status = "pass" if computed == expected else "fail"
    return VerificationReport(
        claim_id=claim_id,
        params=dict(params),
        expected=expected,
        computed=computed,
        provenance=info["provenance"],
        status=status,
        evidence=evidence,
        seconds=time.monotonic() - t0,
        conjecture=info["provenance"] == "conjecture",
    )


def load_manifest(path: str | None = None) -> dict:
    if path is not None:
        try:
            return json.loads(Path(path).read_text())
        except ValueError as err:  # not JSON, or not text
            raise ValueError(f"manifest {path}: {err}") from None
    return json.loads(
        resources.files("kneser_lab").joinpath("data/suites.json").read_text()
    )


_SECTIONS = ("shift_grid", "counting_grid", "iso_grid", "chi_instances", "chi_lower_bound_s",
    "core_instances", "hom_positive", "hom_negative_two_stable", "hom_negative_pair_family")


def _manifest(manifest, *sections) -> dict:
    """`manifest`, or the bundled one when None, holding `sections` and no key but _SECTIONS."""
    if manifest is None:
        manifest = load_manifest()
    for key in sections:
        if not isinstance(manifest, dict) or key not in manifest:
            raise ValueError(f"manifest has no {key!r} section")
        if not isinstance(manifest[key], (dict, list)):
            raise ValueError(f"manifest section {key!r} must be an object or a list")
    _known_keys(manifest, *_SECTIONS)
    return manifest


def _known_keys(entry, *keys):
    """Reject a key outside `keys`, so a misspelt or stale key cannot drop a check in silence."""
    for key in entry if isinstance(entry, dict) else ():
        if key not in keys:
            raise ValueError(f"manifest key {key!r} is not one of {', '.join(keys)}")


_KINDS = {int: "an integer", bool: "true or false", str: "a string", list: "a list of integers"}


def _field(entry, key, kind=int):
    """entry[key] for a manifest entry, which must hold it as `kind`: int, bool,
    str, or list (of ints). A bool does not count as an int."""
    if not isinstance(entry, dict) or key not in entry:
        raise ValueError(f"manifest entry {json.dumps(entry)} has no {key!r}")
    value = entry[key]
    if type(value) is not kind or (kind is list and any(type(x) is not int for x in value)):
        raise ValueError(f"manifest field {key!r} must be {_KINDS[kind]}, got {json.dumps(value)}")
    return value


def _sort_reports(reports):
    reports.sort(key=lambda r: (r.claim_id, json.dumps(r.params, sort_keys=True)))
    return reports


# shifts


def _refutes(e, v: KSubset, s: int) -> bool:
    """Is v an s-stable vertex meeting its image under e, so e is no shift?"""
    return v.is_stable(s) and not set(v.elements).isdisjoint(dihedral.act_on_vertex(e, v).elements)


def run_shift_grid(budget=None, manifest=None, include_square_search=False) -> list[VerificationReport]:
    """Brute-force shifts vs the closed-form prediction, plus reflexion audits:
    every reflexion must be refuted by its witness vertex. No search runs, so
    the budget and square-search options are unused."""
    cfg = _manifest(manifest, "shift_grid")["shift_grid"]
    _known_keys(cfg, "k_values", "s_values", "n_cap")
    reports = []
    for k in sorted(_field(cfg, "k_values", list)):
        for s in sorted(_field(cfg, "s_values", list)):
            for n in range(s * k + 1, min((k + 2) * s, _field(cfg, "n_cap")) + 1):
                g = stable_kneser(n, k, s)
                params = {"n": n, "k": k, "s": s}
                reflexions = dihedral.all_elements(n)[n:]

                def shifts():
                    return [str(e) for e in dihedral.enumerate_shifts(g)], {"order": g.order}

                def audit():
                    witnesses = {e: dihedral.non_shift_witness(e, n, k, s) for e in reflexions}
                    bad = [str(e) for e, v in witnesses.items() if not _refutes(e, v, s)]
                    example = f"{reflexions[0]}: {witnesses[reflexions[0]]}"
                    return bad, {"example": example, "reflexions": n}

                predicted = [str(e) for e in dihedral.predicted_shifts(n, k, s)]
                reports.append(_row("shift-grid", params, predicted, shifts))
                reports.append(_row("shift-reflexion-witness", params, [], audit))
    return _sort_reports(reports)


# counting and the explicit isomorphism


def run_count_grid(budget=None, manifest=None, include_square_search=False) -> list[VerificationReport]:
    cfg = _manifest(manifest, "counting_grid")["counting_grid"]
    _known_keys(cfg, "k_values", "s_values")
    reports = []
    for k in sorted(_field(cfg, "k_values", list)):
        for s in sorted(_field(cfg, "s_values", list)):
            n = k * s + 1
            g = stable_kneser(n, k, s)
            params = {"k": k, "s": s}
            want = sorted([s] * (k - 1) + [s + 1])

            def gaps():
                return [str(v) for v in g.labels if sorted(v.gaps()) != want], {"order": g.order}

            reports.append(_row("count-vertices", params, n, lambda: (g.order, {})))
            reports.append(_row("gap-structure", params, [], gaps))
    return _sort_reports(reports)


def run_prop_iso(budget=None, manifest=None, include_square_search=False) -> list[VerificationReport]:
    cfg = _manifest(manifest, "iso_grid")["iso_grid"]
    _known_keys(cfg, "k_values", "s_values")
    reports = []
    for k in sorted(_field(cfg, "k_values", list)):
        for s in sorted(_field(cfg, "s_values", list)):
            params = {"k": k, "s": s}
            source = circular_graph(k * s + 1, k)
            target = stable_kneser(k * s + 1, k, s)
            mapping = prop_iso_map(k, s)

            def check_map():
                return verify_isomorphism(source, target, mapping), {"map": list(mapping)}

            def search():
                found = are_isomorphic(source, target, budget)
                return found is not None, {"map": list(found) if found else None}

            reports.append(_row("iso-map", params, True, check_map))
            reports.append(_row("iso-search", params, True, search))
    return _sort_reports(reports)


# chromatic numbers


def stable_pair_sets(s: int) -> tuple[list[KSubset], list[KSubset]]:
    """The distance-(s or s+2) block S and the clique block T of the
    s-stable pair graph on n = 2s+2 points; together they partition it."""
    n = 2 * s + 2
    block_s = [
        KSubset(tuple(sorted((i, mod1(i + s, n)))), n) for i in range(1, s + 3)
    ] + [KSubset(tuple(sorted((i, mod1(i + s + 2, n)))), n) for i in range(1, s + 1)]
    block_t = [
        KSubset(tuple(sorted((i, mod1(i + s + 1, n)))), n) for i in range(1, s + 2)
    ]
    return block_s, block_t


def run_chi_suite(budget=None, manifest=None, include_square_search=False) -> list[VerificationReport]:
    man = _manifest(manifest, "chi_instances", "chi_lower_bound_s")
    lower_bound_s = _field(man, "chi_lower_bound_s", list)
    reports = []
    for inst in man["chi_instances"]:
        spec = parse_family_spec(_field(inst, "spec", str))
        critical = _field(inst, "critical", bool) if "critical" in inst else None
        _known_keys(inst, "spec", "critical")
        formula = coloring.closed_form_chi(spec)
        if formula.conjectural:
            raise ValueError(f"suite instance {spec.text} has no proven closed form")
        params = {"spec": spec.text}
        g = spec.build()

        def exact():
            result = coloring.chromatic_number(g, budget)
            cert = homsolver.certificate(
                "coloring", data=result.coloring, source=g, verified=True, nodes=result.nodes
            )
            return result.chi, {
                "formula": formula.value,
                "formula_rule": formula.rule,
                "coloring": cert,
                "clique_bound": len(result.clique),
            }

        def criticality():
            audit = coloring.is_chi_critical(g, budget)
            evidence = {"per_vertex": list(audit.per_vertex)}
            if audit.witness is not None:
                evidence["witness_vertex"] = audit.witness
                if g.labels:
                    evidence["witness_label"] = str(g.labels[audit.witness])
            return audit.critical, evidence

        reports.append(_row("chi-exact", params, formula.value, exact))
        if critical is not None:
            claim = "chi-critical" if critical else "chi-not-critical"
            reports.append(_row(claim, params, critical, criticality))
    for s in lower_bound_s:
        n = 2 * s + 2
        g = stable_kneser(n, 2, s)
        block_s, block_t = stable_pair_sets(s)
        index = g.label_index()
        block = [index[v] for v in block_s]
        sub = induced_subgraph(g, block + [index[block_t[0]], index[block_t[1]]])

        def lower_bound():
            chi = coloring.chromatic_number(sub, budget).chi
            alpha = independence_number(induced_subgraph(g, block), budget).size
            return chi, {"order": sub.order, "alpha_block_s": alpha}

        reports.append(_row("chi-lower-bound", {"n": n, "k": 2, "s": s}, s + 2, lower_bound))
    return _sort_reports(reports)


# cores and refuting searches


def _search_row(claim_id, params, expected, budget, *graphs, **extra) -> VerificationReport:
    """Grade `is_core(g)` for graphs (g,), or `find_homomorphism(g, h)` for (g, h), on its
    status, with fixed evidence `extra`; a map the search finds is kept as a certificate."""

    def check():
        search = homsolver.is_core if len(graphs) == 1 else homsolver.find_homomorphism
        outcome = search(*graphs, budget)
        evidence = {"nodes": outcome.nodes, **extra}
        if outcome.witness is not None:
            evidence["witness"] = homsolver.certificate(
                "homomorphism", data=outcome.witness.mapping, source=graphs[0],
                target=graphs[-1], verified=True, nodes=outcome.nodes,
            )
            evidence["image_size"] = len(outcome.witness.image())
        return outcome.status, evidence

    return _row(claim_id, params, expected, check)


def _square_row(claim_id, params, g, budget) -> VerificationReport:
    """The direct search for a map from the cartesian square of g onto g, on
    the caller's budget (the default limits when it is None)."""
    square = cartesian_product(g, g)
    return _search_row(claim_id, params, "none", budget, square, g, square_order=square.order)


def run_core_suite(budget=None, manifest=None, include_square_search=False) -> list[VerificationReport]:
    man = _manifest(manifest, "core_instances")
    reports = []
    for inst in man["core_instances"]:
        spec = parse_family_spec(_field(inst, "spec", str))
        g = spec.build()
        expected = "core" if _field(inst, "core", bool) else "not-core"
        _known_keys(inst, "spec", "core")
        params = {"spec": spec.text}
        reports.append(_search_row("core-status", params, expected, budget, g, order=g.order))
    return _sort_reports(reports)


# hom-idempotence


def transported_square_hom(k: int, s: int) -> tuple[Graph, Graph, tuple[int, ...]]:
    """The square of the stable Kneser graph with n = ks+1, the graph itself,
    and the self-homomorphism obtained by moving residue addition through the
    explicit circulant isomorphism. The caller grades the map."""
    n = k * s + 1
    g = stable_kneser(n, k, s)
    phi = prop_iso_map(k, s)
    psi = [0] * n
    for u, t in enumerate(phi):
        psi[t] = u
    square = cartesian_product(g, g)
    mapping = tuple(phi[(psi[a] + psi[b]) % n] for a in range(n) for b in range(n))
    return square, g, mapping


def _negative_reports(g, s, params, budget, include_square_search):
    """Shared tail of the hom-idempotence negative cases: shift Cayley graph
    shape, chromatic gap, and the exhaustive non-existence search."""
    n = g.labels[0].ambient
    shifts = dihedral.enumerate_shifts(g)
    cay = cayley_dihedral(n, shifts)

    def shape():
        piece = cycle_power(n, s - 1)
        found = are_isomorphic(cay, disjoint_union(piece, piece), budget)
        return found is not None, {
            "shifts": [str(e) for e in shifts],
            "components": [len(c) for c in connected_components(cay)],
        }

    def chi_gap():
        chi_g = coloring.chromatic_number(g, budget).chi
        chi_cay = coloring.chromatic_number(cay, budget).chi
        return chi_cay < chi_g, {"chi_graph": chi_g, "chi_cayley": chi_cay}

    reports = [
        _row("homidem-negative-shape", params, True, shape),
        _row("homidem-negative-chi", params, True, chi_gap),
        _search_row("homidem-negative-search", params, "none", budget, g, cay),
    ]
    if include_square_search:
        reports.append(_square_row("homidem-square-search", params, g, budget))
    return reports


def run_hom_idempotence_suite(
    budget=None, manifest=None, include_square_search: bool = False
) -> list[VerificationReport]:
    man = _manifest(manifest, "hom_positive", "hom_negative_two_stable", "hom_negative_pair_family")
    reports = []
    for inst in man["hom_positive"]:
        k, s = _field(inst, "k"), _field(inst, "s")
        _known_keys(inst, "k", "s")

        def positive():
            square, g, mapping = transported_square_hom(k, s)
            ok = homsolver.verify_homomorphism(square, g, mapping)
            return ok, {"square_order": square.order, "map_size": len(mapping)}

        reports.append(_row("homidem-positive", {"k": k, "s": s, "n": k * s + 1}, True, positive))
    for inst in man["hom_negative_two_stable"]:
        n, k = _field(inst, "n"), _field(inst, "k")
        _known_keys(inst, "n", "k")
        if n < 2 * k + 2:
            raise ValueError(f"two-stable negative case needs n >= 2k+2, got n={n}, k={k}")
        g = stable_kneser(n, k, 2)
        params = {"n": n, "k": k, "s": 2}
        reports.extend(_negative_reports(g, 2, params, budget, include_square_search))
    for inst in man["hom_negative_pair_family"]:
        s = _field(inst, "s")
        _known_keys(inst, "s")
        if s < 3:
            raise ValueError("the pair-family negative case needs s >= 3")
        n = 2 * s + 2
        g = stable_kneser(n, 2, s)
        params = {"n": n, "k": 2, "s": s}
        reports.append(_search_row("core-status", params, "core", budget, g))
        reports.extend(_negative_reports(g, s, params, budget, include_square_search))
    return _sort_reports(reports)


# conjecture probes


def probe_conjectures(
    n_values, k_values, s_values, budget=None, square_order_cap: int = 150
) -> list[VerificationReport]:
    """Probe the conjectured chromatic numbers and non-hom-idempotence.

    Rows are flagged as conjectures and never gate acceptance; budget
    exhaustion is an expected outcome here. square_order_cap bounds the
    order of a square searched directly; raising it lets the square searches
    run on bigger instances (the search on the 324-vertex square of n = 9,
    k = 2, s = 3 finishes with "none" after 754 nodes in about 0.02 s), at
    the cost of longer probes. Every search runs on `budget`.
    """
    reports = []
    for k in sorted(k_values):
        for s in sorted(s_values):
            for n in sorted(n_values):
                if k < 2 or s < 2 or n <= s * k:
                    continue
                params = {"n": n, "k": k, "s": s}
                g = stable_kneser(n, k, s)
                reports.append(
                    _row(
                        "conjecture-chi",
                        params,
                        n - (k - 1) * s,
                        lambda: (coloring.chromatic_number(g, budget).chi, {"order": g.order}),
                    )
                )
                if s >= 3 and n > k * s + 1 and g.order**2 <= square_order_cap:
                    reports.append(_square_row("conjecture-homidem", params, g, budget))
    return _sort_reports(reports)


# suite registry; every runner takes (budget=None, manifest=None,
# include_square_search=False), and those a suite has no use for are ignored


SUITES = {
    "shifts": run_shift_grid,
    "counts": run_count_grid,
    "iso": run_prop_iso,
    "chi": run_chi_suite,
    "cores": run_core_suite,
    "homidem": run_hom_idempotence_suite,
}


def run_suite(
    name: str, budget=None, manifest=None, include_square_search: bool = False
) -> list[VerificationReport]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](budget, manifest, include_square_search)


def run_all(budget=None, manifest=None, include_square_search: bool = False) -> list[VerificationReport]:
    options = (budget, manifest, include_square_search)
    return _sort_reports([r for name in sorted(SUITES) for r in run_suite(name, *options)])


def exit_code_for(reports) -> int:
    if any(r.status == "fail" for r in reports):
        return 2
    if any(r.status == "exhausted" for r in reports):
        return 3
    return 0


def reports_to_json(reports) -> dict:
    used = sorted({r.claim_id for r in reports})
    return {
        "claims": {cid: CLAIMS[cid] for cid in used},
        "reports": [r.to_json() for r in reports],
    }


def format_report_line(r: VerificationReport) -> str:
    tag = "CONJECTURE " if r.conjecture else ""
    params = ",".join(f"{k}={v}" for k, v in sorted(r.params.items()))
    return (
        f"{r.status.upper():9s} {tag}{r.claim_id} [{params}] "
        f"expected={r.expected!r} computed={r.computed!r}"
    )
