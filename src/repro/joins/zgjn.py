"""Zig-Zag Join (ZGJN) — Figure 7.

Fully interleaved, query-driven extraction of both relations: starting
from seed queries for R1, documents retrieved from D1 yield R1 tuples whose
join values become queries against D2; the R2 tuples extracted there
queue queries back against D1, and the execution zig-zags between the two
databases (Figure 6b).  The reachable portion of D1 × D2 is exactly the
connected component of the zig-zag graph (Section V-E) that the seed
queries touch — capped further by the search interface's top-k limit.

A run opens no span per round, document or keyword query: it adds its
processed documents and held tuples to the metrics once per side, and
its query probes' queries and documents once per probe, and
:meth:`ZigZagJoin.work_counters` totals the session's work.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Sequence, Tuple

from ..core.preferences import QualityRequirement
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


class ZigZagJoin(BinaryJoin):
    """ZGJN executor (resumable; queues persist across run() calls).

    ``seed_queries`` initialize Q1 — the query queue of database D1 — as
    in the paper's example, which starts from a seed company query.
    """

    #: how often one query may fail with an access error before it is
    #: dropped instead of requeued
    MAX_QUERY_FAILURES = 2

    algorithm = "zgjn"

    def __init__(
        self,
        inputs: JoinInputs,
        seed_queries: Sequence[Query],
        costs: Optional[CostModel] = None,
        estimator: Optional[QualityEstimator] = None,
        resilience=None,
        observability=None,
    ) -> None:
        super().__init__(inputs, costs, estimator, resilience, observability)
        if not seed_queries:
            raise ValueError("ZGJN needs at least one seed query")
        self._seeds = list(seed_queries)
        self._probes = {
            side: QueryProbe(inputs.database(side), resilience=resilience)
            for side in (1, 2)
        }
        self._queues: Optional[Dict[int, Deque[Query]]] = None
        #: per-query access-failure counts (for bounded requeueing)
        self._query_failures: Dict[Tuple[int, Tuple[str, ...]], int] = {}

    def probe(self, side: int) -> QueryProbe:
        """This side's query probe (checkpointing)."""
        return self._probes[side]

    def queue(self, side: int) -> Deque[Query]:
        """This side's pending query queue (checkpointing)."""
        if self._queues is None:
            self._queues = {1: deque(self._seeds), 2: deque()}
        return self._queues[side]

    def restore_queues(self, queues: Dict[int, Sequence[Query]]) -> None:
        """Replace both pending queues (checkpoint restore)."""
        self._queues = {
            1: deque(queues.get(1, ())),
            2: deque(queues.get(2, ())),
        }

    def run(
        self,
        requirement: QualityRequirement = UNLIMITED,
        budgets: Budgets = Budgets(),
    ) -> JoinExecution:
        session = self.session
        queues = {side: self.queue(side) for side in (1, 2)}

        def sweepable(side: int) -> bool:
            return bool(queues[side]) and self._probe_open(side, budgets)

        tally = self._tally()
        stopped = False
        while not stopped and (sweepable(1) or sweepable(2)):
            for side in (1, 2):
                if not sweepable(side):
                    continue
                self._sweep(side, queues, budgets)
                self._report_progress(session.state, session.time)
                if self._stopped(requirement):
                    stopped = True
                    break
        return self._finish(requirement, tally)

    def _exhausted(self) -> bool:
        return not self.queue(1) and not self.queue(2)

    def _sweep(
        self, side: int, queues: Dict[int, Deque[Query]], budgets: Budgets
    ) -> None:
        """Issue one query on *side*; feed new values to the other queue."""
        other = 2 if side == 1 else 1
        query = queues[side].popleft()
        probe = self._probes[side]
        if probe.already_issued(query):
            return
        try:
            fresh = probe.issue(query)
        except AccessFailedError:
            # Failed access ≠ empty result: nothing is charged or recorded.
            # Requeue the query (at the back, bounded) so a recovering
            # service still gets asked; drop it after repeated failures.
            key = (side, query.tokens)
            self._query_failures[key] = self._query_failures.get(key, 0) + 1
            if self._query_failures[key] < self.MAX_QUERY_FAILURES:
                queues[side].append(query)
            return
        new_tuples = self._process_fetched(side, fresh, budgets)
        # Queue the counterpart queries generated by the new tuples.
        join_index = self._session.state.join_indexes[side - 1]
        other_probe = self._probes[other]
        queued: set = {q.tokens for q in queues[other]}
        for tup in new_tuples:
            value = tup.value_of(join_index)
            candidate = Query.of(value)
            if candidate.tokens in queued:
                continue
            if other_probe.already_issued(candidate):
                continue
            queued.add(candidate.tokens)
            queues[other].append(candidate)
