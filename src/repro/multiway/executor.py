"""N-way Independent Join executor.

Generalizes IDJN (Figure 3) to n relations: every side retrieves documents
through its own strategy, extracted tuples ripple into the shared
:class:`~repro.core.join_state.TreeJoinState`, and execution stops when the
estimated quality meets the (τg, τb) contract, per-side document caps
bind, or every side is exhausted.  The executors are
:class:`~repro.joins.base.JoinAlgorithm` subclasses, so the document
step, the side-open check, the stopping condition, the work accounting
and the run epilogue are the binary executors' own; like them, these
executors are resumable.

:class:`InterleavedNaryJoin` is the ZGJN-flavoured strategy (cf. Leapfrog
Triejoin): instead of advancing every side each round, it advances only
the side with the least accumulated simulated time, so all n relations
stay in lockstep on the time axis and no binary intermediate result is
ever materialized.

Per-document work is counted, not traced: an executor opens no span
per round (an interleaved round is one document), document, keyword
query or database access.
Processed documents and held tuples go to
``repro_documents_processed_total`` / ``repro_tuples_extracted_total``
once per side per run (the same meaning as in the binary executors and
the report's ``tuples_extracted``), an AQG side's queries and documents
to ``repro_queries_issued_total`` / ``repro_probe_documents_total`` once
per run, and :meth:`~repro.joins.base.JoinAlgorithm.work_counters`
totals every side's database accesses, retrieved, rejected and processed
documents and tuples for the request's wide event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..core.join_state import TreeJoinState
from ..core.preferences import QualityRequirement
from ..extraction.base import Extractor
from ..joins.base import UNLIMITED, JoinAlgorithm, JoinExecution, QualityEstimator
from ..joins.costs import SideCosts
from ..observability.context import ObservabilityContext
from ..retrieval.base import DocumentRetriever
from ..textdb.database import TextDatabase


@dataclass(frozen=True)
class MultiwaySide:
    """One side of an n-way join: database, extractor, retriever, costs."""

    database: TextDatabase
    extractor: Extractor
    retriever: DocumentRetriever
    costs: SideCosts = field(default_factory=SideCosts)
    #: absolute cap on documents processed for this side (None = unlimited)
    max_documents: Optional[int] = None

    def __post_init__(self) -> None:
        if self.retriever.database is not self.database:
            raise ValueError("retriever must read from this side's database")


class MultiwayIndependentJoin(JoinAlgorithm):
    """Ripple-style n-way IDJN (resumable)."""

    algorithm = "multiway"

    def __init__(
        self,
        sides: Sequence[MultiwaySide],
        join_attribute: Optional[str] = None,
        estimator: Optional[QualityEstimator] = None,
        state: Optional[TreeJoinState] = None,
        observability: Optional[ObservabilityContext] = None,
    ) -> None:
        """``state`` defaults to a star :class:`TreeJoinState` on
        ``join_attribute``; pass any tree state to run the same ripple
        executor over a chain or another join tree."""
        if len(sides) < 2:
            raise ValueError("a multiway join needs at least two sides")
        self.sides = list(sides)
        if state is None:
            state = TreeJoinState.star(
                [side.extractor.schema for side in sides],
                join_attribute=join_attribute,
            )
        elif state.arity != len(sides):
            raise ValueError("state arity must match the number of sides")
        self.state = state
        # The sides' retrievers share one fault-handling context (one per
        # bound environment); its report rides on the execution report.
        super().__init__(
            [side.extractor for side in self.sides],
            [side.costs for side in self.sides],
            estimator,
            resilience=self.sides[0].retriever.resilience,
            observability=observability,
        )
        self._retrievers = {
            number: side.retriever for number, side in enumerate(self.sides, 1)
        }
        self._caps = {
            number: (side.max_documents, None, None)
            for number, side in enumerate(self.sides, 1)
        }

    def _new_state(self) -> TreeJoinState:
        return self.state

    def _round_sides(self, open_sides: List[int]) -> List[int]:
        """Which open sides advance this round (override to re-schedule)."""
        return open_sides

    def run(self, requirement: QualityRequirement = UNLIMITED) -> JoinExecution:
        tally = self._tally()
        while not self._stopped(requirement):
            open_sides = [
                side for side, caps in self._caps.items()
                if self._side_open(side, caps)
            ]
            if not open_sides:
                break
            for side in self._round_sides(open_sides):
                self._step(side)
        return self._finish(requirement, tally)


class InterleavedNaryJoin(MultiwayIndependentJoin):
    """Fully-interleaved n-ary join: one side per round, time-balanced.

    Each round advances only the open side with the least accumulated
    simulated time (ties break on side order), so every relation's
    cursor moves in lockstep along the time axis — the scheduling
    analogue of Leapfrog Triejoin's iterator interleaving, under the
    same stop-as-soon-as-(τg, τb)-is-met contract as the ripple join.
    """

    algorithm = "interleaved"

    def _round_sides(self, open_sides: List[int]) -> List[int]:
        side_time = self._session.side_time
        return [min(open_sides, key=lambda side: (side_time[side], side))]
