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

from typing import List, Optional, Sequence

from ..core.preferences import QualityRequirement
from ..core.types import ExtractedTuple
from ..retrieval.base import DocumentRetriever
from ..retrieval.queries import Query, QueryProbe
from ..robustness.context import AccessFailedError
from .base import (
    UNLIMITED,
    BinaryJoin,
    Budgets,
    JoinExecution,
    JoinInputs,
    QualityEstimator,
)
from .costs import CostModel


class OuterInnerJoin(BinaryJoin):
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
        self._retrievers = {outer: outer_retriever}
        self._probes = {
            self.inner: QueryProbe(
                inputs.database(self.inner), resilience=resilience
            )
        }

    @property
    def outer_retriever(self) -> DocumentRetriever:
        """The outer side's retriever (checkpointing)."""
        return self._retrievers[self.outer]

    @property
    def probe(self) -> QueryProbe:
        """The inner side's query probe (checkpointing)."""
        return self._probes[self.inner]

    def run(
        self,
        requirement: QualityRequirement = UNLIMITED,
        budgets: Budgets = Budgets(),
    ) -> JoinExecution:
        state = self.session.state
        outer, inner = self.outer, self.inner
        outer_caps = budgets.caps(outer)
        outer_join_index = state.join_indexes[outer - 1]
        probe = self._probes[inner]
        tally = self._tally()
        stopped = False
        while not stopped:
            if self._stopped(requirement) or not self._side_open(outer, outer_caps):
                break
            outer_tuples = self._step(outer)
            if outer_tuples is None:
                break
            # -- probe the inner relation for each new join value -------------
            for query in self._queries_from(outer_tuples, outer_join_index):
                stopped = self._stopped(requirement)
                if stopped or not self._probe_open(inner, budgets):
                    break
                try:
                    fresh = probe.issue(query)
                except AccessFailedError:
                    # Failed access ≠ empty probe: no tQ charge, the query
                    # stays un-issued so a later outer tuple with the same
                    # value can retry it, and the s(a) sample frequencies
                    # see nothing.
                    continue
                self._process_fetched(inner, fresh, budgets)
        return self._finish(requirement, tally)

    def _queries_from(
        self, tuples: Sequence[ExtractedTuple], join_index: int
    ) -> List[Query]:
        """One keyword query per new join value among *tuples*."""
        probe = self._probes[self.inner]
        queries: List[Query] = []
        seen: set = set()
        for tup in tuples:
            value = tup.value_of(join_index)
            if value in seen:
                continue
            seen.add(value)
            query = Query.of(value)
            if not probe.already_issued(query):
                queries.append(query)
        return queries
