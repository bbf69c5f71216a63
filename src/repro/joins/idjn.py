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

from typing import Dict, Optional, Tuple

from ..core.preferences import QualityRequirement
from ..core.quality import TimeBreakdown
from ..retrieval.base import DocumentRetriever
from .base import (
    UNLIMITED,
    Budgets,
    JoinAlgorithm,
    JoinExecution,
    JoinInputs,
    QualityEstimator,
)
from .costs import CostModel


class IndependentJoin(JoinAlgorithm):
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
        session = self.session
        state = session.state
        collector = session.collector
        time = session.time
        processed = session.processed
        filtered: Dict[int, int] = {1: 0, 2: 0}

        def side_open(side: int) -> bool:
            cap = budgets.max_documents(side)
            if cap is not None and processed[side] >= cap:
                return False
            retriever = self._retrievers[side]
            rcap = budgets.max_retrieved(side)
            if rcap is not None and retriever.counters.retrieved >= rcap:
                return False
            qcap = budgets.max_queries(side)
            if qcap is not None and retriever.counters.queries_issued >= qcap:
                return False
            return not retriever.exhausted

        tally = self._tally()
        while True:
            est_good, est_bad = self.estimator.estimate(state)
            if self._should_stop(requirement, est_good, est_bad):
                break
            if not side_open(1) and not side_open(2):
                break
            for side in (1, 2):
                for _ in range(self._rates[side]):
                    if not side_open(side):
                        break
                    self._step(side, state, collector, time, processed)
            self._report_progress(state, time)
            # Re-check quality between rounds happens at loop top.

        for side in (1, 2):
            if self._retrievers[side].filters_documents:
                filtered[side] = self._retrievers[side].counters.retrieved
        exhausted = (
            self._retrievers[1].exhausted and self._retrievers[2].exhausted
        )
        return self._finish(
            state=state,
            time=time,
            requirement=requirement,
            collector=collector,
            documents_retrieved={
                side: self._retrievers[side].counters.retrieved for side in (1, 2)
            },
            documents_processed=dict(processed),
            documents_filtered=dict(filtered),
            queries_issued={
                side: self._retrievers[side].counters.queries_issued
                for side in (1, 2)
            },
            exhausted=exhausted,
            tally=tally,
        )

    def _query_probes(self):
        return [retriever.probe for retriever in self._retrievers.values()]

    def work_counters(self) -> Dict[str, float]:
        counters = [retriever.counters for retriever in self._retrievers.values()]
        return self._work(
            accesses=sum(c.accesses for c in counters),
            retrieved=sum(c.retrieved for c in counters),
            rejected=sum(c.rejected for c in counters),
        )

    def _step(
        self,
        side: int,
        state,
        collector,
        time: TimeBreakdown,
        processed: Dict[int, int],
    ) -> None:
        """Retrieve and process one document on one side."""
        retriever = self._retrievers[side]
        counters = retriever.counters
        retrieved_before = counters.retrieved
        queries_before = counters.queries_issued
        doc = retriever.next_document()
        retrieved = counters.retrieved - retrieved_before
        costs = self.costs.side(side)
        costs.charge(
            time,
            retrieved=retrieved,
            queries=counters.queries_issued - queries_before,
            filtered=retrieved if retriever.filters_documents else 0,
        )
        if doc is None:
            return
        tuples = self.inputs.extractor(side).extract(doc)
        costs.charge(time, processed=1)
        processed[side] += 1
        collector.record(side, tuples)
        if side == 1:
            state.add_left(tuples)
        else:
            state.add_right(tuples)
