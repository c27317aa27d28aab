"""Node/time budgets shared by the exact solvers.

Each public solver call starts one BudgetClock from the caller's budget and
runs all its sub-searches on it; no budget (`None`) means the default limits.
Exhaustion is always reported as its own outcome (exception or "exhausted"
status), never conflated with a negative answer.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

DEFAULT_NODE_LIMIT = 100_000_000
DEFAULT_TIME_LIMIT = 300.0


class BudgetExhausted(Exception):
    """A solver hit its node or time limit before finishing."""

    def __init__(self, nodes: int, seconds: float):
        super().__init__(f"budget exhausted after {nodes} nodes / {seconds:.1f}s")
        self.nodes = nodes
        self.seconds = seconds


@dataclass(frozen=True)
class SearchBudget:
    node_limit: int | None = DEFAULT_NODE_LIMIT
    time_limit: float | None = DEFAULT_TIME_LIMIT

    def __post_init__(self):
        if self.node_limit is not None and self.node_limit < 0:
            raise ValueError(f"node limit must be >= 0, got {self.node_limit}")
        if self.time_limit is not None and not (
            math.isfinite(self.time_limit) and self.time_limit >= 0
        ):
            raise ValueError(f"time limit must be finite and >= 0, got {self.time_limit}")

    @classmethod
    def from_text(cls, text: str) -> "SearchBudget":
        """Parse "<nodes>,<seconds>" from --budget; either part may be empty
        to keep the default. An error names --budget."""
        nodes_s, _, secs_s = text.partition(",")
        try:
            nodes = int(nodes_s) if nodes_s.strip() else DEFAULT_NODE_LIMIT
            secs = float(secs_s) if secs_s.strip() else DEFAULT_TIME_LIMIT
            return cls(nodes, secs)
        except ValueError as err:
            raise ValueError(f"--budget {text!r}: {err}") from None


class BudgetClock:
    """Mutable accounting for one public solver call and all its sub-searches.

    The wall clock is read every 2048 nodes. `tick` makes one comparison per
    node, against `_next`, the next count at which a limit can trip.
    """

    def __init__(self, budget: SearchBudget | None):
        budget = budget or SearchBudget()
        self.node_limit = budget.node_limit
        self.time_limit = budget.time_limit
        self.nodes = 0
        self._next = 0  # the first tick sets it
        self._t0 = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self._t0

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes >= self._next:
            self._check()

    def _check(self) -> None:
        """Raise if a limit trips at `nodes`, else set `_next` to the node
        limit + 1 or, with a time limit, the next multiple of 2048 if that
        comes first."""
        if self.node_limit is not None and self.nodes > self.node_limit:
            raise BudgetExhausted(self.nodes, self.elapsed())
        if (
            self.time_limit is not None
            and self.nodes % 2048 == 0
            and self.elapsed() > self.time_limit
        ):
            raise BudgetExhausted(self.nodes, self.elapsed())
        nxt = math.inf if self.node_limit is None else self.node_limit + 1
        if self.time_limit is not None:
            nxt = min(nxt, (self.nodes // 2048 + 1) * 2048)
        self._next = nxt
