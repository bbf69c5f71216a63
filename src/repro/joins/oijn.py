"""Outer/Inner Join (OIJN) — Figure 5.

The IE analogue of nested-loops join: one relation is designated *outer*
and extracted via an explicit retrieval strategy; every join-attribute
value appearing in a new outer tuple becomes a keyword query against the
inner relation's database, retrieving exactly the documents likely to
contain the value's "counterpart" tuples.  Each probe sweeps a row of
D1 × D2 (Figure 6a), but the search interface's top-k limit bounds how
much of the inner database any single query can reach — the grey
unexplored region the paper highlights.

A run opens no span per round, document or keyword query: it adds its
processed documents and held tuples to the metrics once per side, and
its query probes' queries and documents once per probe, and
:meth:`OuterInnerJoin.work_counters` totals the session's work.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.preferences import QualityRequirement
from ..core.quality import TimeBreakdown
from ..core.types import ExtractedTuple
from ..retrieval.base import DocumentRetriever
from ..retrieval.queries import Query, QueryProbe
from ..robustness.context import AccessFailedError
from .base import (
    UNLIMITED,
    Budgets,
    JoinAlgorithm,
    JoinExecution,
    JoinInputs,
    QualityEstimator,
)
from .costs import CostModel


class OuterInnerJoin(JoinAlgorithm):
    """OIJN executor (resumable; resume granularity = one outer document).

    ``outer`` selects which side plays the outer role; ``outer_retriever``
    must read from that side's database.  The inner side is probed through
    the database's top-k search interface.
    """

    algorithm = "oijn"

    def __init__(
        self,
        inputs: JoinInputs,
        outer_retriever: DocumentRetriever,
        costs: Optional[CostModel] = None,
        estimator: Optional[QualityEstimator] = None,
        outer: int = 1,
        resilience=None,
        observability=None,
    ) -> None:
        super().__init__(inputs, costs, estimator, resilience, observability)
        if outer not in (1, 2):
            raise ValueError("outer must be 1 or 2")
        self.outer = outer
        self.inner = 2 if outer == 1 else 1
        if outer_retriever.database is not inputs.database(outer):
            raise ValueError("outer_retriever must read from the outer database")
        self._outer_retriever = outer_retriever
        self._probe = QueryProbe(
            inputs.database(self.inner), resilience=resilience
        )

    @property
    def outer_retriever(self) -> DocumentRetriever:
        """The outer side's retriever (checkpointing)."""
        return self._outer_retriever

    @property
    def probe(self) -> QueryProbe:
        """The inner side's query probe (checkpointing)."""
        return self._probe

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
        outer, inner = self.outer, self.inner
        outer_costs = self.costs.side(outer)
        inner_costs = self.costs.side(inner)
        outer_join_index = state.left_index if outer == 1 else state.right_index

        def outer_open() -> bool:
            cap = budgets.max_documents(outer)
            if cap is not None and processed[outer] >= cap:
                return False
            counters = self._outer_retriever.counters
            rcap = budgets.max_retrieved(outer)
            if rcap is not None and counters.retrieved >= rcap:
                return False
            qcap = budgets.max_queries(outer)
            if qcap is not None and counters.queries_issued >= qcap:
                return False
            return not self._outer_retriever.exhausted

        def stop_now() -> bool:
            est_good, est_bad = self.estimator.estimate(state)
            return self._should_stop(requirement, est_good, est_bad)

        tally = self._tally()
        stopped = False
        while not stopped:
            if stop_now():
                stopped = True
                break
            if not outer_open():
                break
            # -- one outer document ------------------------------------------
            counters = self._outer_retriever.counters
            retrieved_before = counters.retrieved
            queries_before = counters.queries_issued
            doc = self._outer_retriever.next_document()
            retrieved = counters.retrieved - retrieved_before
            outer_costs.charge(
                time,
                retrieved=retrieved,
                queries=counters.queries_issued - queries_before,
                filtered=(
                    retrieved if self._outer_retriever.filters_documents else 0
                ),
            )
            if doc is None:
                break
            outer_tuples = self.inputs.extractor(outer).extract(doc)
            outer_costs.charge(time, processed=1)
            processed[outer] += 1
            collector.record(outer, outer_tuples)
            self._add(state, outer, outer_tuples)
            self._report_progress(state, time)
            # -- probe the inner relation for each new join value -------------
            for query in self._queries_from(outer_tuples, outer_join_index):
                if stop_now():
                    stopped = True
                    break
                if not self._inner_budget_open(budgets, processed):
                    break
                try:
                    fresh = self._probe.issue(query)
                except AccessFailedError:
                    # Failed access ≠ empty probe: no tQ charge, the query
                    # stays un-issued so a later outer tuple with the same
                    # value can retry it, and the s(a) sample frequencies
                    # see nothing.
                    continue
                inner_costs.charge(time, queries=1, retrieved=len(fresh))
                inner_extractor = self.inputs.extractor(inner)
                for inner_doc in fresh:
                    cap = budgets.max_documents(inner)
                    if cap is not None and processed[inner] >= cap:
                        break
                    inner_tuples = inner_extractor.extract(inner_doc)
                    inner_costs.charge(time, processed=1)
                    processed[inner] += 1
                    collector.record(inner, inner_tuples)
                    self._add(state, inner, inner_tuples)
                self._report_progress(state, time)

        if self._outer_retriever.filters_documents:
            documents_filtered = {
                outer: self._outer_retriever.counters.retrieved,
                inner: 0,
            }
        else:
            documents_filtered = {1: 0, 2: 0}
        return self._finish(
            state=state,
            time=time,
            requirement=requirement,
            collector=collector,
            documents_retrieved={
                outer: self._outer_retriever.counters.retrieved,
                inner: self._probe.documents_retrieved,
            },
            documents_processed=dict(processed),
            documents_filtered=documents_filtered,
            queries_issued={
                outer: self._outer_retriever.counters.queries_issued,
                inner: self._probe.queries_issued,
            },
            exhausted=self._outer_retriever.exhausted,
            tally=tally,
        )

    def _query_probes(self):
        return [self._outer_retriever.probe, self._probe]

    def work_counters(self) -> Dict[str, float]:
        counters = self._outer_retriever.counters
        return self._work(
            accesses=counters.accesses + self._probe.accesses,
            retrieved=counters.retrieved + self._probe.documents_retrieved,
            rejected=counters.rejected,
        )

    # -- helpers --------------------------------------------------------------

    def _inner_budget_open(
        self, budgets: Budgets, processed: Dict[int, int]
    ) -> bool:
        qcap = budgets.max_queries(self.inner)
        if qcap is not None and self._probe.queries_issued >= qcap:
            return False
        dcap = budgets.max_documents(self.inner)
        if dcap is not None and processed[self.inner] >= dcap:
            return False
        return True

    def _queries_from(
        self, tuples: Sequence[ExtractedTuple], join_index: int
    ) -> List[Query]:
        """One keyword query per new join value among *tuples*."""
        queries: List[Query] = []
        seen: set = set()
        for tup in tuples:
            value = tup.value_of(join_index)
            if value in seen:
                continue
            seen.add(value)
            query = Query.of(value)
            if not self._probe.already_issued(query):
                queries.append(query)
        return queries

    def _add(self, state, side: int, tuples: Sequence[ExtractedTuple]) -> None:
        if side == 1:
            state.add_left(tuples)
        else:
            state.add_right(tuples)
