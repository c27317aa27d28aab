import random

import pytest

from helpers import (
    brute_clique_number,
    brute_independence_number,
    cycle_graph,
    is_clique,
    is_independent_set,
    random_graph,
)
from kneser_lab import cliques
from kneser_lab.budget import BudgetExhausted, SearchBudget
from kneser_lab.cliques import clique_number, independence_number
from kneser_lab.coloring import chromatic_number
from kneser_lab.graphs import complete_graph


def test_alpha_complete():
    for n in (1, 3, 6):
        assert independence_number(complete_graph(n)).size == 1


def test_alpha_c5():
    assert independence_number(cycle_graph(5)).size == 2


def test_omega_k5():
    result = clique_number(complete_graph(5))
    assert result.size == 5 and result.vertices == (0, 1, 2, 3, 4)


def test_omega_c7():
    assert clique_number(cycle_graph(7)).size == 2


def test_exactness_against_enumeration():
    rng = random.Random(41)
    graphs = [random_graph(rng, rng.randint(0, 12), rng.choice([0.3, 0.5, 0.7])) for _ in range(25)]
    graphs.append(random_graph(rng, 16, 0.5))
    graphs.append(random_graph(rng, 16, 0.2))
    for g in graphs:
        alpha = independence_number(g)
        omega = clique_number(g)
        assert alpha.size == brute_independence_number(g)
        assert omega.size == brute_clique_number(g)
        assert len(alpha.vertices) == alpha.size and is_independent_set(g, alpha.vertices)
        assert len(omega.vertices) == omega.size and is_clique(g, omega.vertices)


def test_budget_exhaustion_is_distinct():
    rng = random.Random(43)
    g = random_graph(rng, 30, 0.5)
    with pytest.raises(BudgetExhausted):
        clique_number(g, SearchBudget(node_limit=3, time_limit=None))


def test_clique_witness_is_rechecked(monkeypatch):
    # a non-clique larger than chi would raise the lower bound of chi past
    # the true value, so no caller may see one
    monkeypatch.setattr(cliques, "_clique_search", lambda g, clock, leader: (4, (0, 1, 2, 3)))
    for solve in (clique_number, independence_number, chromatic_number):
        with pytest.raises(RuntimeError):
            solve(cycle_graph(6))
