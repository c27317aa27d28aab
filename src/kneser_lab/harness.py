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
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from . import coloring, dihedral, homsolver
from .budget import BudgetExhausted, SearchBudget, resolve_budget
from .claims import CLAIMS
from .cliques import independence_number
from .families import (
    cayley_dihedral,
    circulant,
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
    cycle_graph,
    disjoint_union,
    induced_subgraph,
)
from .isomorphism import are_isomorphic, verify_isomorphism
from .labels import KSubset
from .modn import mod1


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
        return {
            "claim_id": self.claim_id,
            "params": self.params,
            "expected": self.expected,
            "computed": self.computed,
            "provenance": self.provenance,
            "status": self.status,
            "evidence": self.evidence,
            "seconds": round(self.seconds, 3),
            "conjecture": self.conjecture,
        }


def _row(claim_id, params, expected, check) -> VerificationReport:
    """Time check() and grade the (computed, evidence) pair it returns.

    This is the only place a suite turns solver results into a status: a
    raised BudgetExhausted or a returned "exhausted" status becomes an
    exhausted row, otherwise the row passes only when computed == expected.
    """
    info = CLAIMS[claim_id]
    t0 = time.monotonic()
    try:
        computed, evidence = check()
        exhausted = computed == "exhausted"
    except BudgetExhausted as stop:
        computed, evidence, exhausted = None, {"nodes": stop.nodes}, True
    if exhausted:
        status = "exhausted"
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
        return json.loads(Path(path).read_text())
    return json.loads(
        resources.files("kneser_lab").joinpath("data/suites.json").read_text()
    )


def _sort_reports(reports):
    reports.sort(key=lambda r: (r.claim_id, json.dumps(r.params, sort_keys=True)))
    return reports


# shifts


def run_shift_grid(
    k_values=None, s_values=None, n_cap=None, manifest=None
) -> list[VerificationReport]:
    """Brute-force shifts vs the closed-form prediction, plus reflexion audits."""
    cfg = (manifest or load_manifest())["shift_grid"]
    k_values = sorted(k_values or cfg["k_values"])
    s_values = sorted(s_values or cfg["s_values"])
    n_cap = n_cap or cfg["n_cap"]
    reports = []
    for k in k_values:
        for s in s_values:
            for n in range(s * k + 1, min((k + 2) * s, n_cap) + 1):
                g = stable_kneser(n, k, s)
                params = {"n": n, "k": k, "s": s}

                def shifts():
                    return list(dihedral.enumerate_shifts(g).texts()), {"order": g.order}

                def reflexions():
                    bad = []
                    example = ""
                    for e in dihedral.all_elements(n):
                        if e.is_rotation:
                            continue
                        moved, _ = dihedral.is_shift(e, g)
                        if moved:
                            bad.append(str(e))
                            continue
                        witness = dihedral.non_shift_witness(e, n, k, s)
                        if not example:
                            example = f"{e}: {witness}"
                    return bad, {"example": example, "reflexions": n}

                predicted = list(dihedral.predicted_shifts(n, k, s).texts())
                reports.append(_row("shift-grid", params, predicted, shifts))
                reports.append(_row("shift-reflexion-witness", params, [], reflexions))
    return _sort_reports(reports)


# counting and the explicit isomorphism


def run_count_grid(k_values=None, s_values=None, manifest=None) -> list[VerificationReport]:
    cfg = (manifest or load_manifest())["counting_grid"]
    k_values = sorted(k_values or cfg["k_values"])
    s_values = sorted(s_values or cfg["s_values"])
    reports = []
    for k in k_values:
        for s in s_values:
            n = k * s + 1
            g = stable_kneser(n, k, s)
            params = {"k": k, "s": s}
            want = sorted([s] * (k - 1) + [s + 1])

            def gaps():
                return [str(v) for v in g.labels if sorted(v.gaps()) != want], {"order": g.order}

            reports.append(_row("count-vertices", params, n, lambda: (g.order, {})))
            reports.append(_row("gap-structure", params, [], gaps))
    return _sort_reports(reports)


def run_prop_iso(k_values=None, s_values=None, manifest=None) -> list[VerificationReport]:
    cfg = (manifest or load_manifest())["iso_grid"]
    k_values = sorted(k_values or cfg["k_values"])
    s_values = sorted(s_values or cfg["s_values"])
    reports = []
    for k in k_values:
        for s in s_values:
            params = {"k": k, "s": s}
            source = circular_graph(k * s + 1, k)
            target = stable_kneser(k * s + 1, k, s)
            mapping = prop_iso_map(k, s)

            def check_map():
                return verify_isomorphism(source, target, mapping), {"map": list(mapping)}

            def search():
                found = are_isomorphic(source, target)
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


def stable_pair_circulant(s: int) -> Graph:
    """The circulant with connection set {1..s-1, s+1, n-s+1..n-1}, n = 2s+2."""
    n = 2 * s + 2
    conn = set(range(1, s)) | {s + 1} | set(range(n - s + 1, n))
    return circulant(n, conn)


def stable_pair_block_map(s: int) -> tuple[int, ...]:
    """Verified isomorphism from stable_pair_circulant(s) onto the subgraph
    of the s-stable pair graph induced by the block S."""
    n = 2 * s + 2
    g = stable_kneser(n, 2, s)
    block_s, _ = stable_pair_sets(s)
    index = g.label_index()
    sub = induced_subgraph(g, [index[v] for v in block_s])
    sub_index = sub.label_index()
    images = []
    for u in range(n):
        if u <= s + 1:
            lab = KSubset((u + 1, u + 1 + s), n)
        else:
            lab = KSubset((u - (s + 1), u + 1), n)
        images.append(sub_index[lab])
    mapping = tuple(images)
    if not verify_isomorphism(stable_pair_circulant(s), sub, mapping):
        raise RuntimeError("block-S circulant map failed the isomorphism checker")
    return mapping


def run_chi_suite(budget=None, manifest=None) -> list[VerificationReport]:
    man = manifest or load_manifest()
    reports = []
    for inst in man["chi_instances"]:
        spec = parse_family_spec(inst["spec"])
        formula = coloring.closed_form_chi(spec)
        if formula.conjectural:
            raise ValueError(f"suite instance {spec.text} has no proven closed form")
        if formula.value != inst["chi"]:
            raise ValueError(
                f"suite instance {spec.text} lists chi={inst['chi']}, "
                f"but the closed form gives {formula.value}"
            )
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

        reports.append(_row("chi-exact", params, inst["chi"], exact))
        if "critical" in inst:
            claim = "chi-critical" if inst["critical"] else "chi-not-critical"
            reports.append(_row(claim, params, inst["critical"], criticality))
    for s in man["chi_lower_bound_s"]:
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


def _core_row(g, params, expected, budget, **extra) -> VerificationReport:
    """The core test of g; `extra` holds fixed evidence for the row."""

    def check():
        outcome = homsolver.is_core(g, budget)
        evidence = {"nodes": outcome.nodes, **extra}
        if outcome.witness is not None:
            evidence["witness"] = homsolver.certificate(
                "homomorphism",
                data=outcome.witness.mapping,
                source=g,
                target=g,
                verified=outcome.witness.verified,
                nodes=outcome.nodes,
            )
            evidence["image_size"] = len(outcome.witness.image())
        return outcome.status, evidence

    return _row("core-status", params, expected, check)


def _none_row(claim_id, params, g, h, budget, **extra) -> VerificationReport:
    """A homomorphism search g -> h that the claim says finds nothing;
    `extra` holds fixed evidence for the row."""

    def check():
        outcome = homsolver.find_homomorphism(g, h, budget)
        return outcome.status, {"nodes": outcome.nodes, **extra}

    return _row(claim_id, params, "none", check)


def _square_row(claim_id, params, g, budget, nodes: int, seconds: float) -> VerificationReport:
    """The direct search for a map from the cartesian square of g onto g.

    These searches can run for minutes, so the run's budget (explicit or
    from KNESER_LAB_BUDGET) is capped at the given nodes and seconds.
    """
    limits = resolve_budget(budget)
    capped = SearchBudget(
        nodes if limits.node_limit is None else min(nodes, limits.node_limit),
        seconds if limits.time_limit is None else min(seconds, limits.time_limit),
    )
    square = cartesian_product(g, g)
    return _none_row(claim_id, params, square, g, capped, square_order=square.order)


def run_core_suite(budget=None, manifest=None) -> list[VerificationReport]:
    man = manifest or load_manifest()
    reports = []
    for inst in man["core_instances"]:
        spec = parse_family_spec(inst["spec"])
        g = spec.build()
        expected = "core" if inst["core"] else "not-core"
        reports.append(_core_row(g, {"spec": spec.text}, expected, budget, order=g.order))
    return _sort_reports(reports)


# hom-idempotence


def transported_square_hom(k: int, s: int) -> tuple[Graph, Graph, tuple[int, ...]]:
    """The square of the stable Kneser graph with n = ks+1, the graph itself,
    and the verified self-homomorphism obtained by moving residue addition
    through the explicit circulant isomorphism."""
    n = k * s + 1
    g = stable_kneser(n, k, s)
    circ = circular_graph(n, k)
    phi = prop_iso_map(k, s)
    psi = [0] * n
    for u, t in enumerate(phi):
        psi[t] = u
    base = homsolver.normal_cayley_self_hom(circ)
    square = cartesian_product(g, g)
    mapping = tuple(
        phi[base.mapping[psi[a] * n + psi[b]]]
        for a in range(n)
        for b in range(n)
    )
    if not homsolver.verify_homomorphism(square, g, mapping):
        raise RuntimeError("transported square homomorphism failed verification")
    return square, g, mapping


def _negative_reports(g, s, params, budget, include_square_search):
    """Shared tail of the hom-idempotence negative cases: shift Cayley graph
    shape, chromatic gap, and the exhaustive non-existence search."""
    n = g.labels[0].ambient
    shifts = dihedral.enumerate_shifts(g)
    cay = cayley_dihedral(n, shifts.members)

    def shape():
        piece = cycle_graph(n) if s == 2 else cycle_power(n, s - 1)
        found = are_isomorphic(cay, disjoint_union(piece, piece))
        return found is not None, {
            "shifts": list(shifts.texts()),
            "components": [len(c) for c in connected_components(cay)],
        }

    def chi_gap():
        chi_g = coloring.chromatic_number(g, budget).chi
        chi_cay = coloring.chromatic_number(cay, budget).chi
        return chi_cay < chi_g, {"chi_graph": chi_g, "chi_cayley": chi_cay}

    reports = [
        _row("homidem-negative-shape", params, True, shape),
        _row("homidem-negative-chi", params, True, chi_gap),
        _none_row("homidem-negative-search", params, g, cay, budget),
    ]
    if include_square_search:
        reports.append(_square_row("homidem-square-search", params, g, budget, 2_000_000, 30.0))
    return reports


def run_hom_idempotence_suite(
    budget=None, manifest=None, include_square_search: bool = False
) -> list[VerificationReport]:
    man = manifest or load_manifest()
    reports = []
    for inst in man["hom_positive"]:
        k, s = inst["k"], inst["s"]

        def positive():
            square, g, mapping = transported_square_hom(k, s)
            ok = homsolver.verify_homomorphism(square, g, mapping)
            return ok, {"square_order": square.order, "map_size": len(mapping)}

        reports.append(_row("homidem-positive", {"k": k, "s": s, "n": k * s + 1}, True, positive))
    for inst in man["hom_negative_two_stable"]:
        n, k = inst["n"], inst["k"]
        if n < 2 * k + 2:
            raise ValueError(f"two-stable negative case needs n >= 2k+2, got n={n}, k={k}")
        g = stable_kneser(n, k, 2)
        params = {"n": n, "k": k, "s": 2}
        reports.extend(_negative_reports(g, 2, params, budget, include_square_search))
    for inst in man["hom_negative_pair_family"]:
        s = inst["s"]
        if s < 3:
            raise ValueError("the pair-family negative case needs s >= 3")
        n = 2 * s + 2
        g = stable_kneser(n, 2, s)
        params = {"n": n, "k": 2, "s": s}
        reports.append(_core_row(g, params, "core", budget))
        reports.extend(_negative_reports(g, s, params, budget, include_square_search))
    return _sort_reports(reports)


# conjecture probes


def probe_conjectures(
    n_values, k_values, s_values, budget=None, square_order_cap: int = 150
) -> list[VerificationReport]:
    """Probe the conjectured chromatic numbers and non-hom-idempotence.

    Rows are flagged as conjectures and never gate acceptance; budget
    exhaustion is an expected outcome here. Raising square_order_cap lets
    the direct square searches run on bigger instances (the 18-vertex
    instance at n = 9, k = 2, s = 3 finishes with "none" in under a
    minute), at the cost of proportionally longer probes.
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
                    reports.append(
                        _square_row("conjecture-homidem", params, g, budget, 5_000_000, 60.0)
                    )
    return _sort_reports(reports)


# suite registry


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
    runner = SUITES[name]
    if name in ("shifts", "counts", "iso"):
        return runner(manifest=manifest)
    if name == "homidem":
        return runner(
            budget=budget, manifest=manifest, include_square_search=include_square_search
        )
    return runner(budget=budget, manifest=manifest)


def run_all(budget=None, manifest=None, include_square_search: bool = False) -> list[VerificationReport]:
    reports = []
    for name in sorted(SUITES):
        reports.extend(
            run_suite(
                name,
                budget=budget,
                manifest=manifest,
                include_square_search=include_square_search,
            )
        )
    return _sort_reports(reports)


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
