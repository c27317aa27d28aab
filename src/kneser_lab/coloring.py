"""Exact chromatic number, vertex-criticality audits, and closed-form values.

The solver runs DSATUR branch and bound (Brelaz, CACM 1979) upward from an
exact clique lower bound: it decides k = omega, omega + 1, ... colours in
turn, with no greedy upper bound, so every node is on the caller's clock and
k = order always succeeds. Saturation is kept incremental: one bitset per
saturation level holds the uncoloured vertices that see that many colours,
and colouring a vertex raises only those of its neighbours that did not
already see its colour (undone on backtrack), so a node costs O(levels)
bitset operations instead of a scan of every uncoloured vertex. The search
runs on an explicit stack, so its depth is not bounded by Python's recursion
limit. Cross-validation against the homomorphism-to-complete-graph
definition and against the old max-scan search lives in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

from .budget import BudgetClock, SearchBudget
from .cliques import _max_clique
from .dihedral import orbit_leaders
from .families import FamilySpec
from .graphs import Graph, complete_graph, delete_vertex, row_bits, verify_homomorphism


@dataclass(frozen=True)
class ColoringResult:
    chi: int
    coloring: tuple[int, ...]
    clique: tuple[int, ...]  # witness for the lower bound
    nodes: int
    seconds: float = field(default=0.0, compare=False)  # a time, not part of the answer


def _dsatur(g: Graph, k: int, tick) -> tuple[int, ...] | None:
    """The first proper colouring with colours below k in DSATUR order, or None.

    Each node colours the uncoloured vertex of highest saturation (ties to
    higher degree, then lower index) with each colour in order, at most one
    of them fresh, and calls `tick` once. Vertices are ranked once by
    (degree descending, index ascending), so the branching vertex is the
    lowest bit of the highest non-empty saturation level.
    """
    n = g.order
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    rank = [0] * n
    for r, v in enumerate(order):
        rank[v] = r
    adj = []  # each row in rank order: one "1" per neighbour, one int() per row
    for v in order:
        digits = ["0"] * n
        for r in row_bits(g.adj[v], rank):
            digits[~r] = "1"
        adj.append(int("".join(digits), 2))
    level = [0] * (k + 1)  # level[s]: uncoloured vertices seeing s colours
    level[0] = (1 << n) - 1
    sees = [0] * k  # sees[c]: vertices that were uncoloured when a neighbour got c
    coloured = 0
    stack = []  # (vertex, its level, colour, used before, neighbours raised)
    depth = 0  # len(stack)
    used = 0
    while True:
        tick()
        if depth == n:
            colors = [0] * n
            for u, _, c, _, _ in stack:
                colors[order[u]] = c
            return tuple(colors)
        s = used
        while not level[s]:
            s -= 1
        bit = level[s] & -level[s]
        u = bit.bit_length() - 1
        level[s] ^= bit
        c = 0
        while True:  # the next colour for u, backtracking while none is left
            # new colours enter in index order, so cap at one fresh colour
            limit = used + 1 if used < k else k
            while c < limit and sees[c] & bit:
                c += 1
            if c < limit:
                break
            level[s] |= bit
            if not depth:
                return None
            u, s, c, used, raised = stack.pop()
            depth -= 1
            bit = 1 << u
            coloured ^= bit
            sees[c] ^= raised
            t = 1  # each raised vertex sits one level up; lower them bottom-up
            while raised:
                x = level[t] & raised
                if x:
                    level[t] ^= x
                    level[t - 1] |= x
                    raised ^= x
                t += 1
            c += 1
        raised = adj[u] & ~(sees[c] | coloured)
        stack.append((u, s, c, used, raised))
        depth += 1
        coloured |= bit
        sees[c] |= raised
        t = used  # saturation is at most `used`; raise top-down, once each
        while raised:
            x = level[t] & raised
            if x:
                level[t] ^= x
                level[t + 1] |= x
                raised ^= x
            t -= 1
        if c == used:
            used += 1


def chromatic_number(g: Graph, budget: SearchBudget | None = None) -> ColoringResult:
    """Exact chromatic number with a proper coloring and a clique witness."""
    return _chromatic(g, BudgetClock(budget), orbit_leaders(g))


def _colorable(g: Graph, k: int, tick) -> tuple[int, ...] | None:
    """A proper colouring of g with colours below k, or None after a completed
    search; every colouring the search returns is re-checked as a map into K_k."""
    coloring = _dsatur(g, k, tick)
    if coloring is not None and not verify_homomorphism(g, complete_graph(k), coloring):
        raise RuntimeError("solver produced an improper coloring")
    return coloring


def _chromatic(g: Graph, clock: BudgetClock, leader) -> ColoringResult:
    """chromatic_number on the caller's clock and the caller's orbit leaders
    of g, which the clique bound uses; `nodes` and `seconds` are the clock's."""
    lower, clique = _max_clique(g, clock, leader)
    for chi in count(lower):  # k = g.order always succeeds
        coloring = _colorable(g, chi, clock.tick)
        if coloring is not None:
            return ColoringResult(chi, coloring, clique, clock.nodes, clock.elapsed())


@dataclass(frozen=True)
class CriticalityReport:
    chi: int
    critical: bool
    witness: int | None  # a vertex whose deletion keeps chi, when not critical
    per_vertex: tuple[int, ...]  # chi of g - v for every v


def is_chi_critical(g: Graph, budget: SearchBudget | None = None) -> CriticalityReport:
    """Vertex-criticality: does deleting any single vertex lower the chromatic number?

    g - v is a subgraph of g, and a colouring of g - v extends to g with one
    fresh colour, so chi - 1 <= chi(g - v) <= chi: one (chi - 1)-colouring
    decision settles each deletion. g - v and g - sigma(v) are isomorphic for
    sigma in the group `label_orbits(g)` verifies, so only the least vertex
    of each orbit is decided and the others copy it. All searches share one
    clock and budget.
    """
    clock = BudgetClock(budget)
    leader = orbit_leaders(g)
    chi = _chromatic(g, clock, leader).chi
    per_vertex = [chi] * g.order
    for v, lead in enumerate(leader):
        if lead < v:
            per_vertex[v] = per_vertex[lead]
        elif _colorable(delete_vertex(g, v), chi - 1, clock.tick) is not None:
            per_vertex[v] = chi - 1
    witness = next((v for v, sub in enumerate(per_vertex) if sub == chi), None)
    return CriticalityReport(chi, witness is None, witness, tuple(per_vertex))


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
