"""Simulated execution-time accounting.

The paper's time formulas (Section V) charge per-event constants: tR to
retrieve a document, tE to run an extractor over it, tF to classify it
(Filtered Scan), tQ to issue a keyword query.  Real deployments measure
these offline; the reproduction fixes them per database side, making every
reported execution time deterministic and hardware-independent — exactly
what Table II's relative-time comparisons need.

Defaults reflect the paper's cost structure: extraction dominates (it
involves expensive text processing), querying is noticeably cheaper, and
filtering is far cheaper than extracting.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.quality import TimeBreakdown


@dataclass(frozen=True)
class SideCosts:
    """Per-event costs for one (database, extractor) side, in seconds."""

    t_retrieve: float = 1.0
    t_extract: float = 4.0
    t_filter: float = 0.2
    t_query: float = 2.0

    def __post_init__(self) -> None:
        for name in ("t_retrieve", "t_extract", "t_filter", "t_query"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def charge(
        self,
        time: TimeBreakdown,
        retrieved: int = 0,
        processed: int = 0,
        filtered: int = 0,
        queries: int = 0,
    ) -> float:
        """Add a batch of events on this side to *time*; return its total.

        Works in place: executors charge every document, so no breakdown
        is allocated per event.
        """
        retrieval = retrieved * self.t_retrieve
        extraction = processed * self.t_extract
        filtering = filtered * self.t_filter
        querying = queries * self.t_query
        time.retrieval += retrieval
        time.extraction += extraction
        time.filtering += filtering
        time.querying += querying
        return retrieval + extraction + filtering + querying


@dataclass(frozen=True)
class CostModel:
    """Costs for both sides of a join execution."""

    side1: SideCosts = SideCosts()
    side2: SideCosts = SideCosts()

    def side(self, index: int) -> SideCosts:
        if index == 1:
            return self.side1
        if index == 2:
            return self.side2
        raise ValueError("side index must be 1 or 2")
