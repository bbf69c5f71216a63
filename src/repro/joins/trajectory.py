"""Recorded runs: one per plan, answering every requirement that stops on it.

Within one statistics generation the run of a plan is deterministic: the
retrieval order is fixed, extraction is memoized, and the stopping
estimator comes from the generation's memoized refit.  A requirement
changes only *where* the run stops, and its budgets only where a cap cuts
it.  So every requirement's run is a prefix of one sequence of stopping
checks, and a :class:`Trajectory` keeps that sequence (DESIGN §6.4):

* **points** — :meth:`~repro.joins.base.JoinAlgorithm.record` makes the
  executor's next run keep one :class:`RunPoint` per stopping check and
  one at its end.  A point holds everything the run's report, work
  counters and gauges read; :meth:`Trajectory.answer` rebuilds them;
* **prefix rule** — a requirement stops at the first point where
  :meth:`~repro.core.preferences.QualityRequirement.stops` holds for the
  estimator's (good, bad): the executors' own check;
* **cap rule** — a point answers a request only when every count there
  lies strictly below the request's caps.  Counts only grow, so no cap
  check fired before that point and no probe was cut mid-list.  The
  recording run's own caps cut its trajectory the same way, and its end
  point answers a requirement that stops on no point only when the run
  ended by exhaustion below its caps;
* **extension** — a request that no point answers runs the executor
  afresh and records it.  It never resumes one: a resumed OIJN drops the
  pending probe queries of the outer document it stopped in, so it is
  not the fresh run to the larger target.  :func:`keep_recorded` replaces
  a plan's stored trajectory only with a longer one.

:func:`serve_or_record` is the one path that serves or records.

Points and trajectories are immutable once recorded, so readers share
them without a lock.
"""

from __future__ import annotations

import threading
from typing import (
    Any,
    Callable,
    Dict,
    MutableMapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.preferences import UNLIMITED, QualityRequirement
from ..core.quality import ExecutionReport, ResilienceReport, TimeBreakdown
from ..core.relation import JoinComposition, MultiJoinComposition
from ..observability.context import ObservabilityContext, ensure_observability
from ..robustness.context import ResilienceContext

#: a report's composition: a binary join's good x bad split, or an n-ary
#: join's good and bad totals
Composition = Union[JoinComposition, MultiJoinComposition]

#: one side's caps on (documents processed, documents retrieved, queries
#: issued); None means uncapped
Caps = Tuple[Optional[int], Optional[int], Optional[int]]

#: the counter of warm executes by what they did with a recorded run:
#: ``served`` from one, ``extended`` the plan's, or ran ``live`` beside it
OUTCOMES = "repro_execute_trajectory_total"


def publish_join_gauges(
    metrics: Any,
    composition: Composition,
    seconds: float,
    productive: Sequence[float],
) -> None:
    """Set the gauges a finished run leaves in *metrics*: its good/bad
    join tuples, simulated seconds and, per side from 1, the *productive*
    fraction of its processed documents."""
    metrics.gauge("repro_join_tuples", label="good").set(composition.n_good)
    metrics.gauge("repro_join_tuples", label="bad").set(composition.n_bad)
    metrics.gauge("repro_simulated_seconds", component="total").set(seconds)
    for side, fraction in enumerate(productive, start=1):
        metrics.gauge("repro_productive_fraction", side=side).set(fraction)


class RunPoint(NamedTuple):
    """An executor's counts at one stopping check, or at the end of a run.

    Per-side tuples run over sides 1 to n; ``access`` follows the
    executor's retrievers, then its query probes (the report's order).
    """

    #: the estimator's (good, bad) at the check; None at a run's end
    good: Optional[float]
    bad: Optional[float]
    #: documents processed per side
    processed: Tuple[int, ...]
    #: tuples held per relation: each relation's prefix at this point
    tuples: Tuple[int, ...]
    #: per side: share of processed documents that yielded a tuple
    productive: Tuple[float, ...]
    #: per access path: (side, documents retrieved, queries issued)
    access: Tuple[Tuple[int, int, int], ...]
    #: database calls and Filtered Scan rejections, summed over sides
    accesses: int
    rejected: int
    #: simulated (retrieval, extraction, filtering, querying) seconds
    time: Tuple[float, float, float, float]
    exhausted: bool
    #: the join state's own composition (an n-ary report's)
    composition: MultiJoinComposition

    def below(self, caps: Sequence[Caps]) -> bool:
        """Whether every count lies strictly below *caps* (one per side)."""
        processed = self.processed
        for side, retrieved, queries in self.access:
            max_documents, max_retrieved, max_queries = caps[side - 1]
            if max_documents is not None and processed[side - 1] >= max_documents:
                return False
            if max_retrieved is not None and retrieved >= max_retrieved:
                return False
            if max_queries is not None and queries >= max_queries:
                return False
        return True

    def work(self) -> Dict[str, float]:
        """The run's work counters at this point (for a wide event)."""
        return {
            "accesses": float(self.accesses),
            "documents_retrieved": float(sum(r for _, r, _ in self.access)),
            "documents_rejected": float(self.rejected),
            "documents_processed": float(sum(self.processed)),
            "tuples_extracted": float(sum(self.tuples)),
        }

    def report(
        self,
        composition: Composition,
        requirement: QualityRequirement,
        resilience: Optional[ResilienceReport],
    ) -> ExecutionReport:
        """The report of a run under *requirement* that ends here."""
        sides = range(1, len(self.processed) + 1)
        return ExecutionReport(
            composition=composition,
            time=TimeBreakdown(*self.time),
            documents_retrieved={side: r for side, r, _ in self.access},
            documents_processed=dict(zip(sides, self.processed)),
            queries_issued={side: q for side, _, q in self.access},
            tuples_extracted=dict(zip(sides, self.tuples)),
            satisfied=(
                None
                if requirement is UNLIMITED
                else requirement.satisfied_by(composition.n_good, composition.n_bad)
            ),
            exhausted=self.exhausted,
            resilience=resilience,
        )


class Trajectory:
    """One recorded run of a plan: the points a later request may stop on.

    ``points`` are the run's stopping checks below its caps, in order;
    ``end`` is its end point when the run ended by exhaustion below its
    caps, else None.  ``compose`` turns a point into its report's
    composition (a binary join composes its relations' prefixes).  It
    holds no executor and no join state.
    """

    def __init__(
        self,
        points: Tuple[RunPoint, ...],
        end: Optional[RunPoint],
        compose: Callable[[RunPoint], Composition],
    ) -> None:
        self.points = points
        self.end = end
        self._compose = compose

    def __len__(self) -> int:
        return len(self.points) + (self.end is not None)

    def stop_point(
        self, requirement: QualityRequirement, caps: Sequence[Caps]
    ) -> Optional[RunPoint]:
        """Where a fresh run under *requirement* and *caps* would end, or
        None when this trajectory cannot tell (run it live)."""
        for point in self.points:
            if requirement.stops(point.good, point.bad):
                return point if point.below(caps) else None
        end = self.end
        return end if end is not None and end.below(caps) else None

    def serve(
        self,
        requirement: QualityRequirement,
        caps: Sequence[Caps],
        resilience: Optional[ResilienceContext] = None,
        observability: Optional[ObservabilityContext] = None,
    ) -> Optional[Tuple[ExecutionReport, Dict[str, float]]]:
        """:meth:`answer` at :meth:`stop_point`, or None (run it live)."""
        point = self.stop_point(requirement, caps)
        if point is not None:
            return self.answer(point, requirement, resilience, observability)
        return None

    def answer(
        self,
        point: RunPoint,
        requirement: QualityRequirement,
        resilience: Optional[ResilienceContext] = None,
        observability: Optional[ObservabilityContext] = None,
    ) -> Tuple[ExecutionReport, Dict[str, float]]:
        """The report and work counters of a run under *requirement* that
        ends at *point* (see :meth:`stop_point`).

        *resilience* (a context, or None) reports on the answer as it
        would on the run.  *observability* gets the gauges that run would
        set and one ``served`` count; no work is counted, since this
        request did none.
        """
        observability = ensure_observability(observability)
        composition = self._compose(point)
        report = point.report(
            composition,
            requirement,
            resilience.report() if resilience is not None else None,
        )
        if observability.enabled:
            publish_join_gauges(
                observability.metrics,
                composition,
                report.time.total,
                point.productive,
            )
        observability.counter(OUTCOMES, outcome="served").inc()
        return report, point.work()


#: guards :func:`keep_recorded`'s compare-and-replace
_keep_lock = threading.Lock()


def keep_recorded(
    trajectories: MutableMapping[Any, Trajectory],
    plan: Any,
    trajectory: Trajectory,
    observability: ObservabilityContext,
) -> None:
    """Store a live run's *trajectory* for *plan* unless one at least as
    long is stored, and count which happened on *observability*."""
    with _keep_lock:
        stored = trajectories.get(plan)
        extended = stored is None or len(trajectory) > len(stored)
        if extended:
            trajectories[plan] = trajectory
    observability.counter(
        OUTCOMES, outcome="extended" if extended else "live"
    ).inc()


def serve_or_record(
    trajectories: MutableMapping[Any, Trajectory],
    plan: Any,
    requirement: QualityRequirement,
    caps: Sequence[Caps],
    bind: Callable[[], Any],
    run: Callable[[Any], Any],
    resilience: Optional[ResilienceContext],
    observability: ObservabilityContext,
) -> Tuple[ExecutionReport, Dict[str, float]]:
    """The report and work counters of a fresh run of *plan* under
    *requirement* and *caps*: served from the plan's stored trajectory
    when it stops there, else from the executor *bind* makes, recorded
    while *run* runs it (the caller's failure handling) and kept."""
    trajectory = trajectories.get(plan)
    if trajectory is not None:
        served = trajectory.serve(requirement, caps, resilience, observability)
        if served is not None:
            return served
    executor = bind()
    executor.record()
    execution = run(executor)
    keep_recorded(trajectories, plan, executor.trajectory(caps), observability)
    return execution.report, executor.work_counters()


__all__ = [
    "OUTCOMES",
    "Caps",
    "Composition",
    "RunPoint",
    "Trajectory",
    "keep_recorded",
    "publish_join_gauges",
    "serve_or_record",
]
