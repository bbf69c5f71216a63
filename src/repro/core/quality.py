"""Quality metrics and execution reports.

Wraps the raw good/bad counts of a join execution into the figures the
paper reports — precision, recall against the reachable ground truth, and
whether a :class:`~repro.core.preferences.QualityRequirement` was met —
plus the simulated execution-time breakdown used throughout Section V.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

from .preferences import QualityRequirement
from .relation import JoinComposition, MultiJoinComposition


@dataclass(frozen=True)
class QualityMetrics:
    """Precision/recall view of a join result."""

    n_good: int
    n_bad: int
    reachable_good: Optional[int] = None

    @property
    def n_total(self) -> int:
        return self.n_good + self.n_bad

    @property
    def precision(self) -> float:
        """Fraction of produced join tuples that are good (1.0 if empty)."""
        if self.n_total == 0:
            return 1.0
        return self.n_good / self.n_total

    @property
    def recall(self) -> Optional[float]:
        """Fraction of reachable good join tuples produced, if known."""
        if self.reachable_good is None:
            return None
        if self.reachable_good == 0:
            return 1.0
        return min(1.0, self.n_good / self.reachable_good)

    @classmethod
    def from_composition(
        cls,
        comp: Union[JoinComposition, MultiJoinComposition],
        reachable_good: Optional[int] = None,
    ) -> "QualityMetrics":
        return cls(
            n_good=comp.n_good, n_bad=comp.n_bad, reachable_good=reachable_good
        )


@dataclass
class TimeBreakdown:
    """Simulated execution-time components (Section V time formulas).

    All values are in simulated seconds, accumulated per relation:
    retrieval time (tR per document), extraction time (tE per document),
    filtering time (tF per classified document, FS only), and querying time
    (tQ per issued query, AQG/OIJN/ZGJN).
    """

    retrieval: float = 0.0
    extraction: float = 0.0
    filtering: float = 0.0
    querying: float = 0.0

    @property
    def total(self) -> float:
        return self.retrieval + self.extraction + self.filtering + self.querying

    def add(self, other: "TimeBreakdown") -> None:
        self.retrieval += other.retrieval
        self.extraction += other.extraction
        self.filtering += other.filtering
        self.querying += other.querying


@dataclass
class ResilienceReport:
    """Fault/retry/breaker accounting of one join execution.

    Produced by :mod:`repro.robustness` when an execution runs with a
    resilience context; ``None`` on an ExecutionReport means the execution
    ran without one (the raw, zero-overhead path).  All counts are totals
    across both sides and every access path.
    """

    #: injected/observed faults by exception kind, e.g. {"TransientAccessError": 3}
    faults: Dict[str, int] = field(default_factory=dict)
    #: retry attempts performed after a fault
    retries: int = 0
    #: simulated seconds spent waiting in retry backoff
    backoff_time: float = 0.0
    #: operations abandoned after exhausting their retry allowance
    failed_operations: int = 0
    #: scan documents skipped because their fetch failed permanently
    documents_lost: int = 0
    #: documents returned with a truncated payload by the fault injector
    documents_truncated: int = 0
    #: closed→open circuit-breaker transitions
    breaker_opens: int = 0
    #: access paths whose breaker was open when the execution finished
    open_paths: Tuple[str, ...] = ()

    @property
    def total_faults(self) -> int:
        return sum(self.faults.values())


@dataclass
class ExecutionReport:
    """Everything a finished join execution reports back.

    ``composition`` is the join state's own: a binary join's good x bad
    split (:class:`JoinComposition`), an n-ary join's good and bad totals
    (:class:`MultiJoinComposition`).  ``documents_retrieved``,
    ``documents_processed``, ``queries_issued`` and ``tuples_extracted``
    are per-relation counts keyed by side, 1 to n in the join's relation
    order; ``satisfied`` records whether the user's quality requirement
    was met (None when no requirement given).
    """

    composition: Union[JoinComposition, MultiJoinComposition]
    time: TimeBreakdown
    documents_retrieved: Dict[int, int] = field(default_factory=dict)
    documents_processed: Dict[int, int] = field(default_factory=dict)
    queries_issued: Dict[int, int] = field(default_factory=dict)
    tuples_extracted: Dict[int, int] = field(default_factory=dict)
    satisfied: Optional[bool] = None
    exhausted: bool = False
    #: fault/retry/breaker accounting (None when run without resilience)
    resilience: Optional[ResilienceReport] = None

    def metrics(self, reachable_good: Optional[int] = None) -> QualityMetrics:
        return QualityMetrics.from_composition(self.composition, reachable_good)

    def check(self, requirement: QualityRequirement) -> bool:
        """Evaluate the requirement against the *actual* composition."""
        return requirement.satisfied_by(
            self.composition.n_good, self.composition.n_bad
        )

    def summary(self) -> str:
        c = self.composition
        split = (
            f"(gb={c.n_good_bad}, bg={c.n_bad_good}, bb={c.n_bad_bad}) "
            if isinstance(c, JoinComposition)
            else ""
        )
        return (
            f"good={c.n_good} bad={c.n_bad} {split}"
            f"time={self.time.total:.1f}s docs={dict(self.documents_processed)} "
            f"queries={dict(self.queries_issued)}"
        )
