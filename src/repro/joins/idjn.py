"""Independent Join (IDJN) — Figure 3.

Extracts the two relations independently — each through its own document
retrieval strategy (Scan, Filtered Scan, or AQG) — and joins everything
extracted so far after every step, traversing the Cartesian product
D1 × D2 ripple-style (Figure 4).  The default is the paper's "square"
traversal (one document from each side per round); passing unequal
``rates`` gives the generalized "rectangle" version that consumes the two
databases at different speeds.

Executors are resumable: each ``run()`` call continues the same session
(retriever cursors, accumulated relations, time) under that call's
requirement and budgets.  Budgets are absolute totals for the session.
A run opens no span per round or document: it adds its processed
documents and held tuples to the metrics once per side, an AQG side's
queries and documents once per run, and
:meth:`IndependentJoin.work_counters` totals the session's work.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..core.preferences import QualityRequirement
from ..retrieval.base import DocumentRetriever
from .base import (
    UNLIMITED,
    BinaryJoin,
    Budgets,
    JoinExecution,
    JoinInputs,
    QualityEstimator,
)
from .costs import CostModel


class IndependentJoin(BinaryJoin):
    """IDJN executor over two pre-built retrievers (resumable)."""

    algorithm = "idjn"

    def __init__(
        self,
        inputs: JoinInputs,
        retriever1: DocumentRetriever,
        retriever2: DocumentRetriever,
        costs: Optional[CostModel] = None,
        estimator: Optional[QualityEstimator] = None,
        rates: Tuple[int, int] = (1, 1),
        resilience=None,
        observability=None,
    ) -> None:
        super().__init__(inputs, costs, estimator, resilience, observability)
        if retriever1.database is not inputs.database1:
            raise ValueError("retriever1 must read from database1")
        if retriever2.database is not inputs.database2:
            raise ValueError("retriever2 must read from database2")
        if rates[0] <= 0 or rates[1] <= 0:
            raise ValueError("rates must be positive")
        self._retrievers = {1: retriever1, 2: retriever2}
        self._rates = {1: rates[0], 2: rates[1]}

    def retriever(self, side: int) -> DocumentRetriever:
        """This side's document retriever (checkpointing)."""
        return self._retrievers[side]

    def run(
        self,
        requirement: QualityRequirement = UNLIMITED,
        budgets: Budgets = Budgets(),
    ) -> JoinExecution:
        caps = {side: budgets.caps(side) for side in (1, 2)}
        tally = self._tally()
        while not self._stopped(requirement) and (
            self._side_open(1, caps[1]) or self._side_open(2, caps[2])
        ):
            for side in (1, 2):
                for _ in range(self._rates[side]):
                    if not self._side_open(side, caps[side]):
                        break
                    self._step(side)
        return self._finish(requirement, tally)
