"""Per-layer spans, recorded from outside kneser_lab.

The tracer replaces public functions of kneser_lab with timing wrappers
wherever the package binds them, so calls made inside the package (the
harness calling a solver, is_core calling find_homomorphism) are attributed
too. Spans nest: a layer's self time is the time of its spans minus the
time of the spans they contain. Counts are taken from the values the
wrapped calls return or raise, at the same boundaries.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

# module -> {function: self-time metric}
SPANS = {
    "families": dict.fromkeys(
        ("kneser", "stable_kneser", "circular_graph", "circulant", "cycle_power",
         "cayley_dihedral", "prop_iso_map"),
        "families.build_s",
    ),
    "graphs": {"cartesian_product": "graphs.product_s"},
    "homsolver": {
        "find_homomorphism": "homsolver.search_s",
        "is_core": "homsolver.core_s",
        **dict.fromkeys(
            ("verify_homomorphism", "certificate", "certificate_dumps", "certificate_loads",
             "check_certificate"),
            "homsolver.check_s",
        ),
    },
    "coloring": {"chromatic_number": "coloring.chi_s", "is_chi_critical": "coloring.critical_s"},
    "cliques": dict.fromkeys(("clique_number", "independence_number"), "cliques.omega_s"),
    "dihedral": dict.fromkeys(
        ("enumerate_shifts", "is_shift", "predicted_shifts", "non_shift_witness"),
        "dihedral.shifts_s",
    ),
    "isomorphism": {"are_isomorphic": "isomorphism.search_s",
                    "verify_isomorphism": "isomorphism.check_s"},
}
SUITES = ("shifts", "counts", "iso", "chi", "cores", "homidem")

COUNT_UNITS = ("count", "bytes")  # per-layer units that must repeat exactly
PER_LAYER = {
    "families.build_s": "s",
    "families.vertices": "count",
    "graphs.product_s": "s",
    "homsolver.search_s": "s",
    "homsolver.search_nodes": "count",
    "homsolver.ms_per_node": "ms/node",
    "homsolver.core_s": "s",
    "homsolver.core_nodes": "count",
    "homsolver.exhausted": "count",
    "homsolver.check_s": "s",
    "homsolver.cert_bytes": "bytes",
    "coloring.chi_s": "s",
    "coloring.chi_nodes": "count",
    "coloring.us_per_node": "us/node",
    "coloring.exhausted": "count",
    "coloring.bnb_nodes": "count",
    "coloring.critical_s": "s",
    "cliques.omega_s": "s",
    "cliques.omega_nodes": "count",
    "dihedral.shifts_s": "s",
    "dihedral.elements_tested": "count",
    "isomorphism.search_s": "s",
    "isomorphism.check_s": "s",
    **{f"harness.suite_s.{name}": "s" for name in SUITES},
    "harness.rows": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    """Wraps the traced functions of one import of kneser_lab until `close`."""

    def __init__(self, lab):
        self._lab = lab
        self._stack: list[list] = []  # [metric, time of child spans]
        self._restore: list = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._chi_calls: list = []  # (graph, nodes) of every chromatic_number call
        originals = {}
        for module, functions in SPANS.items():
            mod = getattr(lab, module)
            for name, metric in functions.items():
                fn = getattr(mod, name)
                originals[id(fn)] = self._wrap(fn, metric, getattr(self, f"_count_{name}", None))
        # rebind each function in every module that imported it by name
        for mod in lab.modules:
            for attr, value in list(vars(mod).items()):
                wrapped = originals.get(id(value))
                if wrapped is not None and wrapped.__wrapped__ is value:
                    setattr(mod, attr, wrapped)
                    self._restore.append((mod, attr, value))
        suites = lab.harness.SUITES
        for name in SUITES:
            self._restore.append((suites, name, suites[name]))
            suites[name] = self._wrap(suites[name], f"harness.suite_s.{name}", self._count_suite)

    def close(self) -> None:
        for target, key, original in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()

    def _wrap(self, fn, metric, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            frame = [metric, 0.0]
            self._stack.append(frame)
            result = raised = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                raised = exc
                raise
            finally:
                elapsed = perf_counter() - start
                self._stack.pop()
                if parent is not None:
                    parent[1] += elapsed
                self.self_s[metric] += elapsed - frame[1]
                if count is not None:
                    count(args, result, raised, parent)

        return traced

    # counters, named _count_<function>

    def _count_find_homomorphism(self, args, outcome, raised, parent):
        if outcome is not None:
            self.counts["homsolver.search_nodes"] += outcome.nodes
            self.counts["homsolver.exhausted"] += outcome.status == "exhausted"

    def _count_is_core(self, args, outcome, raised, parent):
        if outcome is not None:
            self.counts["homsolver.core_nodes"] += outcome.nodes

    def _count_certificate_dumps(self, args, text, raised, parent):
        if text is not None:
            self.counts["homsolver.cert_bytes"] += len(text)

    def _count_chromatic_number(self, args, result, raised, parent):
        if isinstance(raised, self._lab.BudgetExhausted):
            nodes = raised.nodes
            self.counts["coloring.exhausted"] += 1
        elif result is not None:
            nodes = result.nodes
        else:
            return
        self.counts["coloring.chi_nodes"] += nodes
        self._chi_calls.append((args[0], nodes))

    def _count_clique_number(self, args, result, raised, parent):
        if result is not None:
            self.counts["cliques.omega_nodes"] += result.nodes

    _count_independence_number = _count_clique_number

    def _count_is_shift(self, args, result, raised, parent):
        self.counts["dihedral.elements_tested"] += 1

    def _count_suite(self, args, rows, raised, parent):
        if rows is not None:
            self.counts["harness.rows"] += len(rows)

    def _count_graph(self, args, graph, raised, parent):
        """Vertices of graphs the families layer hands to other layers."""
        if graph is not None and (parent is None or parent[0] != "families.build_s"):
            self.counts["families.vertices"] += graph.order

    _count_kneser = _count_stable_kneser = _count_circular_graph = _count_graph
    _count_circulant = _count_cycle_power = _count_cayley_dihedral = _count_graph

    def metrics(self, clique_nodes, scale: float) -> dict[str, float]:
        """Per-layer values of everything traced so far, except trace.overhead_s.

        Self times are multiplied by `scale`, the iteration's factor to the
        reference CPU speed. `clique_nodes(graph)` gives the clique-bound
        nodes chromatic_number spends on a graph; the rest of its nodes are
        branch and bound.
        """
        values = {name: 0 for name in PER_LAYER if name != "trace.overhead_s"}
        values.update({name: t * scale for name, t in self.self_s.items()})
        values.update(self.counts)
        values["coloring.bnb_nodes"] = sum(n - clique_nodes(g) for g, n in self._chi_calls)
        if values["homsolver.search_nodes"]:
            values["homsolver.ms_per_node"] = (
                1e3 * values["homsolver.search_s"] / values["homsolver.search_nodes"]
            )
        if values["coloring.chi_nodes"]:
            values["coloring.us_per_node"] = (
                1e6 * values["coloring.chi_s"] / values["coloring.chi_nodes"]
            )
        return values
