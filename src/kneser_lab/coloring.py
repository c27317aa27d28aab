"""Exact chromatic number, vertex-criticality audits, and closed-form values.

The solver runs a saturation-ordered branch and bound between an exact
clique lower bound and a greedy upper bound. Cross-validation against the
homomorphism-to-complete-graph definition lives in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .budget import BudgetClock, SearchBudget, resolve_budget
from .cliques import _max_clique
from .families import FamilySpec
from .graphs import Graph, complete_graph, delete_vertex, iter_bits, verify_homomorphism


@dataclass(frozen=True)
class ColoringResult:
    chi: int
    coloring: tuple[int, ...]
    clique: tuple[int, ...]  # witness for the lower bound
    nodes: int


def _dsatur_greedy(g: Graph) -> tuple[int, tuple[int, ...]]:
    n = g.order
    colors = [-1] * n
    forbidden = [0] * n  # bitmask of colors seen on neighbors
    used = 0
    for _ in range(n):
        u = max(
            (v for v in range(n) if colors[v] < 0),
            key=lambda v: (forbidden[v].bit_count(), g.degree(v), -v),
        )
        c = 0
        while forbidden[u] >> c & 1:
            c += 1
        colors[u] = c
        used = max(used, c + 1)
        for w in iter_bits(g.adj[u]):
            forbidden[w] |= 1 << c
    return used, tuple(colors)


def _decide_colorable(g: Graph, k: int, clock: BudgetClock):
    """A proper k-coloring of g, or None after exhaustive search."""
    n = g.order
    if n == 0:
        return ()
    if k <= 0:
        return None
    colors = [-1] * n
    forbidden = [0] * n

    def dfs(assigned: int, used: int) -> bool:
        clock.tick()
        if assigned == n:
            return True
        u = max(
            (v for v in range(n) if colors[v] < 0),
            key=lambda v: (forbidden[v].bit_count(), g.degree(v), -v),
        )
        # new colors enter in index order, so cap at one fresh color
        for c in range(min(used + 1, k)):
            if forbidden[u] >> c & 1:
                continue
            colors[u] = c
            touched = []
            for w in iter_bits(g.adj[u]):
                touched.append((w, forbidden[w]))
                forbidden[w] |= 1 << c
            if dfs(assigned + 1, max(used, c + 1)):
                return True
            for w, old in touched:
                forbidden[w] = old
            colors[u] = -1
        return False

    return tuple(colors) if dfs(0, 0) else None


def chromatic_number(g: Graph, budget: SearchBudget | None = None) -> ColoringResult:
    """Exact chromatic number with a proper coloring and a clique witness."""
    return _chromatic(g, resolve_budget(budget).start())


def _chromatic(g: Graph, clock: BudgetClock) -> ColoringResult:
    """chromatic_number on the caller's clock; `nodes` is the clock's total."""
    if g.order == 0:
        return ColoringResult(0, (), (), clock.nodes)
    lower, clique = _max_clique(g, clock)
    upper, greedy = _dsatur_greedy(g)
    chi, coloring = upper, greedy
    for k in range(lower, upper):
        attempt = _decide_colorable(g, k, clock)
        if attempt is not None:
            chi, coloring = k, attempt
            break
    if not verify_homomorphism(g, complete_graph(chi), coloring):
        raise RuntimeError("solver produced an improper coloring")
    return ColoringResult(chi, coloring, clique, clock.nodes)


@dataclass(frozen=True)
class CriticalityReport:
    chi: int
    critical: bool
    witness: int | None  # a vertex whose deletion keeps chi, when not critical
    per_vertex: tuple[int, ...]  # chi of g - v for every v


def is_chi_critical(g: Graph, budget: SearchBudget | None = None) -> CriticalityReport:
    """Vertex-criticality: does deleting any single vertex lower the chromatic number?

    All g.order + 1 chromatic numbers run on one clock, so share one budget.
    """
    clock = resolve_budget(budget).start()
    base = _chromatic(g, clock).chi
    per_vertex = []
    witness = None
    for v in range(g.order):
        sub = _chromatic(delete_vertex(g, v), clock).chi
        if sub not in (base - 1, base):
            raise RuntimeError(f"chi({v} deleted) = {sub} breaks monotonicity from {base}")
        per_vertex.append(sub)
        if sub == base and witness is None:
            witness = v
    return CriticalityReport(base, witness is None, witness, tuple(per_vertex))


@dataclass(frozen=True)
class ChiFormula:
    value: int
    conjectural: bool
    rule: str


def closed_form_chi(spec: FamilySpec) -> ChiFormula:
    """Known closed-form chromatic numbers for the supported families.

    Values that are only conjectured (general stable Kneser graphs) are
    flagged; callers must never treat those as ground truth.
    """
    if spec.kind == "kneser":
        return ChiFormula(spec.n - 2 * spec.k + 2, False, "kneser")
    if spec.kind == "circular":
        return ChiFormula(-(-spec.n // spec.k), False, "circular")
    if spec.kind == "cyclepow":
        n, a = spec.n, spec.a
        if n < 2 * a:
            raise ValueError(f"cycle power formula needs n >= 2a, got n={n}, a={a}")
        q, r = divmod(n, a + 1)
        return ChiFormula(a + 1 + -(-r // q), False, "cycle-power")
    if spec.kind == "stable":
        n, k, s = spec.n, spec.k, spec.s
        if s == 2:
            return ChiFormula(n - 2 * k + 2, False, "stable-2")
        if n == k * s + 1:
            return ChiFormula(s + 1, False, "stable-circulant")
        if k == 2 and n == 2 * s + 2 and s >= 3:
            return ChiFormula(s + 2, False, "stable-pair-family")
        if n > k * s:
            return ChiFormula(n - (k - 1) * s, True, "stable-conjecture")
        raise ValueError(f"no closed form for stable n={n}, k={k}, s={s}")
    raise ValueError(f"no chromatic closed form for family kind {spec.kind!r}")
