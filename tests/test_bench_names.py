"""The names the benchmark's tracer reads from kneser_lab must exist.

perfbench/tracing.py wraps functions by module and name and times the
harness suites by name; a rename or deletion in the package would otherwise
only show when the benchmark runs. tracing.py imports only the stdlib, so it
is loaded by path.
"""

import importlib
import importlib.util
from pathlib import Path

import kneser_lab
from kneser_lab import budget, harness, homsolver
from kneser_lab.families import cycle_power
from kneser_lab.graphs import complete_graph

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_traced_functions_exist():
    for module, functions in tracing.SPANS.items():
        mod = importlib.import_module(f"kneser_lab.{module}")
        for name in functions:
            assert callable(getattr(mod, name, None)), f"kneser_lab.{module}.{name}"


def test_traced_suites_exist():
    assert set(tracing.SUITES) <= set(harness.SUITES)


def test_outcome_attributes_the_workloads_read():
    # perfbench/workloads.py reads these from find_homomorphism and is_core outcomes
    c6 = cycle_power(6, 1)
    for outcome in (homsolver.find_homomorphism(c6, complete_graph(2)), homsolver.is_core(c6)):
        assert isinstance(outcome.status, str) and isinstance(outcome.nodes, int)
        assert isinstance(outcome.found, bool)
        assert outcome.homomorphism.mapping == outcome.witness.mapping


def test_package_root_budget_types():
    assert kneser_lab.SearchBudget is budget.SearchBudget
    assert kneser_lab.BudgetExhausted is budget.BudgetExhausted
