"""The benchmark's workloads: fixed instances with recorded answers.

A workload's setup builds every input graph and returns a list of cases.
Each case is one timed call into kneser_lab (`run`) and an untimed check
of its answer (`check`) against a value that does not come from the solver
under test: a recorded verdict, a closed form, or the independent checks
below. Every solver call gets an explicit node cap and no time limit, so
verdicts and node counts repeat exactly and only the timings vary.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable

# Node caps. NODE_CAP bounds every instance the workloads expect to decide;
# the largest of them needs about 85,000 nodes in one call. The frontier caps
# sit far below what their instances need to decide (13,483 nodes and about
# 2.23M nodes), so those two stay "exhausted" until a solver gets smarter.
NODE_CAP = 10_000_000
HOM_FRONTIER_CAP = 2_000
CHI_FRONTIER_CAP = 50_000


@dataclass
class Verdict:
    """The checked answer of one case.

    `units` counts the verdicts the case produces (one, or one per report
    row for a harness suite); `decided` and `failed` count among them.
    `answer` and `nodes` are deterministic and must repeat across passes,
    seeds and tracing.
    """

    units: int
    decided: int
    failed: int
    answer: str
    nodes: int | None = None
    errors: list[str] = field(default_factory=list)


@dataclass
class Case:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]
    units: int = 1

    def raised(self, exc: BaseException) -> Verdict:
        """An uncaught exception fails every verdict the case owed."""
        text = f"{type(exc).__name__}: {exc}"
        return Verdict(self.units, 0, self.units, f"raised {text}", None, [f"{self.name}: {text}"])


def _single(name: str, expected, got, nodes: int | None, problems: list[str]) -> Verdict:
    """Verdict of a one-answer case; `got` None means the cap was reached."""
    if got is None:
        return Verdict(1, 0, 0, "exhausted", nodes)
    if got != expected:
        problems = [f"expected {expected!r}, got {got!r}"] + problems
    return Verdict(1, 1, int(bool(problems)), str(got), nodes, [f"{name}: {p}" for p in problems])


# independent checks, sharing no code with the solvers


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def is_homomorphism(g, h, mapping) -> bool:
    if len(mapping) != g.order or any(not 0 <= m < h.order for m in mapping):
        return False
    return all(
        h.adj[mapping[u]] >> mapping[v] & 1 for u in range(g.order) for v in bits(g.adj[u])
    )


def is_proper_coloring(g, colors) -> bool:
    return len(colors) == g.order and all(
        colors[u] != colors[v] for u in range(g.order) for v in bits(g.adj[u])
    )


def is_clique(g, vertices) -> bool:
    vs = list(vertices)
    return len(set(vs)) == len(vs) and all(
        g.adj[u] >> v & 1 for i, u in enumerate(vs) for v in vs[i + 1 :]
    )


# case builders


def hom_case(lab, name, g, h, cap, expected="none") -> Case:
    """find_homomorphism(g, h) with a recorded verdict."""
    budget = lab.SearchBudget(cap, None)

    def check(outcome) -> Verdict:
        problems = []
        if outcome.status == "found" and not is_homomorphism(g, h, outcome.homomorphism.mapping):
            problems.append("found map is not a homomorphism")
        got = None if outcome.status == "exhausted" else outcome.status
        return _single(name, expected, got, outcome.nodes, problems)

    return Case(name, lambda: lab.homsolver.find_homomorphism(g, h, budget), check)


def certified_hom_case(lab, name, g, h) -> Case:
    """A satisfiable search whose map goes through the certificate path:
    certificate, JSON text, parse, check_certificate."""
    H = lab.homsolver
    budget = lab.SearchBudget(NODE_CAP, None)

    def run():
        outcome = H.find_homomorphism(g, h, budget)
        if not outcome.found:
            return outcome, None, False
        cert = H.certificate(
            "homomorphism", data=outcome.homomorphism.mapping, source=g, target=h,
            verified=True, nodes=outcome.nodes,
        )
        loaded = H.certificate_loads(H.certificate_dumps(cert))
        return outcome, loaded, H.check_certificate(loaded, g, h)

    def check(answer) -> Verdict:
        outcome, loaded, accepted = answer
        problems = []
        if outcome.found:
            if not accepted:
                problems.append("check_certificate rejected the round-tripped certificate")
            if tuple(loaded["map"]) != outcome.homomorphism.mapping:
                problems.append("JSON round trip changed the map")
            if not is_homomorphism(g, h, loaded["map"]):
                problems.append("certified map is not a homomorphism")
        got = None if outcome.status == "exhausted" else outcome.status
        return _single(name, "found", got, outcome.nodes, problems)

    return Case(name, run, check)


def core_case(lab, spec: str, expected: str) -> Case:
    g = lab.families.parse_family_spec(spec).build()
    budget = lab.SearchBudget(NODE_CAP, None)

    def check(outcome) -> Verdict:
        problems = []
        if outcome.witness is not None:
            mapping = outcome.witness.mapping
            if not is_homomorphism(g, g, mapping) or len(set(mapping)) == g.order:
                problems.append("not-core witness is no proper endomorphism")
        got = None if outcome.status == "exhausted" else outcome.status
        return _single(f"core {spec}", expected, got, outcome.nodes, problems)

    return Case(f"core {spec}", lambda: lab.homsolver.is_core(g, budget), check)


def _proven_chi(lab, spec) -> int:
    formula = lab.coloring.closed_form_chi(spec)
    if formula.conjectural:
        raise ValueError(f"{spec.text} has no proven chromatic number")
    return formula.value


def chi_case(lab, text: str, cap: int = NODE_CAP) -> Case:
    """chromatic_number against the proven closed form."""
    spec = lab.families.parse_family_spec(text)
    g = spec.build()
    chi = _proven_chi(lab, spec)
    budget = lab.SearchBudget(cap, None)
    exhausted = lab.BudgetExhausted

    def run():
        try:
            return lab.coloring.chromatic_number(g, budget)
        except exhausted as stop:
            return stop

    def check(result) -> Verdict:
        if isinstance(result, exhausted):
            return _single(f"chi {text}", chi, None, result.nodes, [])
        problems = []
        if not is_proper_coloring(g, result.coloring):
            problems.append("colouring is not proper")
        if len(set(result.coloring)) != result.chi:
            problems.append(f"colouring uses {len(set(result.coloring))} colours")
        if not is_clique(g, result.clique):
            problems.append("clique witness is not a clique")
        return _single(f"chi {text}", chi, result.chi, result.nodes, problems)

    return Case(f"chi {text}", run, check)


def critical_case(lab, text: str, critical: bool) -> Case:
    """is_chi_critical against the proven chi and a recorded verdict."""
    spec = lab.families.parse_family_spec(text)
    g = spec.build()
    chi = _proven_chi(lab, spec)
    budget = lab.SearchBudget(NODE_CAP, None)
    exhausted = lab.BudgetExhausted

    def run():
        try:
            return lab.coloring.is_chi_critical(g, budget)
        except exhausted as stop:
            return stop

    def check(report) -> Verdict:
        name = f"critical {text}"
        if isinstance(report, exhausted):
            return _single(name, critical, None, None, [])
        problems = []
        if report.chi != chi:
            problems.append(f"chi {report.chi}, proven {chi}")
        drops = [sub == chi - 1 for sub in report.per_vertex]
        if len(drops) != g.order or not all(sub in (chi - 1, chi) for sub in report.per_vertex):
            problems.append(f"per-vertex chi {report.per_vertex} inconsistent")
        elif report.critical != all(drops):
            problems.append("verdict disagrees with per-vertex chi")
        verdict = _single(name, critical, report.critical, None, problems)
        verdict.answer += f" {report.per_vertex}"
        return verdict

    return Case(f"critical {text}", run, check)


def omega_case(lab, n: int, k: int, s: int) -> Case:
    """clique_number of a stable Kneser graph against omega = n // k: at most
    n // k k-subsets of [n] are pairwise disjoint, and with q = n // k >= s
    the sets {i, i+q, ..., i+(k-1)q}, i = 1..q, are disjoint and s-stable."""
    g = lab.families.stable_kneser(n, k, s)
    budget = lab.SearchBudget(NODE_CAP, None)
    name = f"omega stable:n={n},k={k},s={s}"

    def check(result) -> Verdict:
        problems = []
        if not is_clique(g, result.vertices) or len(result.vertices) != result.size:
            problems.append("witness is not a clique of the reported size")
        return _single(name, n // k, result.size, result.nodes, problems)

    return Case(name, lambda: lab.cliques.clique_number(g, budget), check)


# workloads


def verify_all(lab, rng) -> list[Case]:
    """Every harness suite on the bundled manifest, no --square searches."""
    manifest = copy.deepcopy(lab.harness.load_manifest())
    for value in manifest.values():
        if isinstance(value, list):
            rng.shuffle(value)
    budget = lab.SearchBudget(NODE_CAP, None)
    cases = []
    for name, rows in SUITE_ROWS.items():

        def check(reports, name=name, rows=rows) -> Verdict:
            statuses = [r.status for r in reports]
            failed = statuses.count("fail") + abs(rows - len(reports))
            errors = [
                f"suite {name}: {r.claim_id} {r.params} {r.status}: expected "
                f"{r.expected!r}, computed {r.computed!r}"
                for r in reports
                if r.status == "fail"
            ]
            if len(reports) != rows:
                errors.append(f"suite {name}: {len(reports)} rows, expected {rows}")
            blob = json.dumps(
                [{k: v for k, v in r.to_json().items() if k != "seconds"} for r in reports],
                sort_keys=True,
            )
            answer = f"{statuses.count('pass')} pass {hashlib.sha256(blob.encode()).hexdigest()[:16]}"
            return Verdict(
                rows, len(reports) - statuses.count("exhausted"), min(failed, rows), answer,
                _evidence_nodes([r.evidence for r in reports]), errors,
            )

        cases.append(
            Case(
                f"suite {name}",
                lambda name=name: lab.harness.run_suite(name, budget=budget, manifest=manifest),
                check,
                units=rows,
            )
        )
    return cases


# Report rows per suite on the bundled manifest; every row must pass.
SUITE_ROWS = {"chi": 14, "cores": 4, "counts": 32, "homidem": 13, "iso": 18, "shifts": 80}


def _evidence_nodes(value) -> int:
    """Sum of every "nodes" count inside report evidence."""
    if isinstance(value, dict):
        return sum(v if k == "nodes" else _evidence_nodes(v) for k, v in value.items())
    if isinstance(value, list):
        return sum(_evidence_nodes(v) for v in value)
    return 0


def hom_refute(lab, rng) -> list[Case]:
    """Exhaustive refutations: the hom-idempotence squares, four core tests,
    and the probe's square search at a frontier cap."""
    F, G = lab.families, lab.graphs
    cases = []
    for n, k, s, cap in ((6, 2, 2, NODE_CAP), (7, 2, 2, NODE_CAP), (8, 2, 3, NODE_CAP),
                         (9, 2, 3, HOM_FRONTIER_CAP)):
        g = F.stable_kneser(n, k, s)
        square = G.cartesian_product(g, g)
        name = f"square stable:n={n},k={k},s={s} cap={cap}"
        cases.append(hom_case(lab, name, square, g, cap))
    for spec in ("stable:n=7,k=2,s=2", "stable:n=8,k=2,s=3", "kneser:n=6,k=2", "circular:n=13,k=4"):
        cases.append(core_case(lab, spec, "core"))
    return cases


def hom_find(lab, rng) -> list[Case]:
    """Satisfiable square searches on wide graphs, each map certified."""
    F, G = lab.families, lab.graphs
    targets = [
        (f"stable:n={k * s + 1},k={k},s={s}", F.stable_kneser(k * s + 1, k, s))
        for k, s in ((2, 5), (2, 6), (3, 5), (4, 5), (5, 4), (5, 5), (6, 4))
    ]
    targets += [(f"circular:n={n},k={k}", F.circular_graph(n, k)) for n, k in ((31, 10), (37, 12))]
    return [
        certified_hom_case(lab, f"square {text}", G.cartesian_product(g, g), g)
        for text, g in targets
    ]


def chi_exact(lab, rng) -> list[Case]:
    """Chromatic branch and bound on instances whose chi is proven."""
    cases = [
        chi_case(lab, text)
        for text in ("stable:n=11,k=2,s=2", "stable:n=10,k=2,s=2", "stable:n=9,k=3,s=2",
                     "kneser:n=9,k=2", "kneser:n=9,k=3", "kneser:n=10,k=4")
    ]
    # Schrijver: the 2-stable graphs are vertex-critical; KG(7,2) is not, as
    # it strictly contains SG(7,2) with the same chromatic number.
    cases += [
        critical_case(lab, text, critical)
        for text, critical in (("stable:n=10,k=2,s=2", True), ("stable:n=9,k=2,s=2", True),
                               ("kneser:n=7,k=2", False))
    ]
    cases.append(omega_case(lab, 30, 5, 5))
    cases.append(chi_case(lab, "stable:n=12,k=2,s=2", CHI_FRONTIER_CAP))
    return cases


WORKLOADS = {
    "verify-all": verify_all,
    "hom-refute": hom_refute,
    "hom-find": hom_find,
    "chi-exact": chi_exact,
}


def setup(lab, workload: str, rng) -> list[Case]:
    """Build every input of a workload and return its cases in seeded order."""
    cases = WORKLOADS[workload](lab, rng)
    rng.shuffle(cases)
    return cases
