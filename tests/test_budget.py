import pytest

from kneser_lab.budget import BudgetClock, BudgetExhausted, SearchBudget


@pytest.mark.parametrize(
    "node_limit, time_limit, nodes",
    [
        (None, 0, 2048),
        (5, 0, 6),
        (2047, 0, 2048),
        (2048, 0, 2048),
        (2049, 0, 2048),
        (0, None, 1),
        (3000, None, 3001),
        (5000, 0, 2048),
    ],
)
def test_budget_trips_at_pinned_counts(node_limit, time_limit, nodes):
    # the node limit trips one node past it; the wall clock is read only at
    # multiples of 2048 nodes
    clock = BudgetClock(SearchBudget(node_limit, time_limit))
    with pytest.raises(BudgetExhausted) as stop:
        for _ in range(10_000):
            clock.tick()
    assert stop.value.nodes == clock.nodes == nodes


def test_time_limit_is_read_every_2048_nodes():
    clock = BudgetClock(SearchBudget(None, 1.0))
    reads = []

    def elapsed():
        reads.append(clock.nodes)
        return 2.0 if clock.nodes > 5000 else 0.0

    clock.elapsed = elapsed
    with pytest.raises(BudgetExhausted) as stop:
        for _ in range(10_000):
            clock.tick()
    assert stop.value.nodes == 6144
    assert reads == [2048, 4096, 6144, 6144]


def test_unlimited_budget_never_trips():
    clock = BudgetClock(SearchBudget(None, None))
    for _ in range(5000):
        clock.tick()
    assert clock.nodes == 5000
