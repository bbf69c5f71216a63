"""Estimator-drift telemetry: predicted vs. observed join quality over refits.

The paper's Section VI loop refits the side statistics by MLE as an
execution progresses, and the models' predicted ``E[|Tgood⋈|]`` /
``E[|Tbad⋈|]`` should converge toward the counts actually observed.  The
repo had no way to *see* that convergence; :class:`DriftTracker` makes it a
first-class time series: every MLE refit records a :class:`DriftSnapshot`
pairing

* the observed join composition at refit time (telemetry may read the
  oracle labels — the estimators themselves never do),
* the chosen plan's predicted good/bad counts at its operating point, and
* the plan's whole predicted effort curve when the evaluation engine has
  built one, so a snapshot shows not just the point estimate but the shape
  the optimizer believed.

Snapshots are plain data, read from :attr:`DriftTracker.snapshots`, mirrored
into the trace as ``drift.snapshot`` instant events (so a kept service
request's wide event carries them among its spans), and summarized by the
last snapshot's errors in the wide event's ``drift`` field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class DriftSnapshot:
    """Predicted-vs-observed state at one MLE refit."""

    #: 1-based refit index within the run
    refit: int
    #: where the refit happened, e.g. ``pilot-round-2`` or ``milestone-40``
    label: str
    #: description of the plan whose prediction is snapshotted ("" if none)
    plan: str
    #: per-side documents processed when the refit ran
    documents_processed: Tuple[int, int]
    #: observed join composition (oracle labels; telemetry only)
    observed_good: float
    observed_bad: float
    #: model-predicted composition at the chosen operating point
    predicted_good: float
    predicted_bad: float
    predicted_time: float
    effort_fraction: float
    #: the plan's predicted effort curve, when the engine built one
    curve_fractions: Tuple[float, ...] = ()
    curve_good: Tuple[float, ...] = ()
    curve_bad: Tuple[float, ...] = ()

    @property
    def good_error(self) -> float:
        """Relative prediction error on good tuples (0.0 when both zero)."""
        if self.observed_good == 0 and self.predicted_good == 0:
            return 0.0
        return (self.predicted_good - self.observed_good) / max(
            self.observed_good, 1.0
        )

    @property
    def bad_error(self) -> float:
        """Relative prediction error on bad tuples (0.0 when both zero)."""
        if self.observed_bad == 0 and self.predicted_bad == 0:
            return 0.0
        return (self.predicted_bad - self.observed_bad) / max(
            self.observed_bad, 1.0
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "refit": self.refit,
            "label": self.label,
            "plan": self.plan,
            "documents_processed": list(self.documents_processed),
            "observed_good": self.observed_good,
            "observed_bad": self.observed_bad,
            "predicted_good": self.predicted_good,
            "predicted_bad": self.predicted_bad,
            "predicted_time": self.predicted_time,
            "effort_fraction": self.effort_fraction,
            "good_error": self.good_error,
            "bad_error": self.bad_error,
            "curve_fractions": list(self.curve_fractions),
            "curve_good": list(self.curve_good),
            "curve_bad": list(self.curve_bad),
        }


class NullDriftTracker:
    """Disabled tracker: records nothing."""

    enabled = False
    snapshots: Tuple[DriftSnapshot, ...] = ()

    def record(self, **kwargs: Any) -> None:
        return None


@dataclass
class DriftTracker:
    """Append-only series of drift snapshots for one logical execution."""

    snapshots: List[DriftSnapshot] = field(default_factory=list)
    enabled: bool = True

    def record(
        self,
        label: str,
        plan: str,
        documents_processed: Tuple[int, int],
        observed_good: float,
        observed_bad: float,
        predicted_good: float,
        predicted_bad: float,
        predicted_time: float = 0.0,
        effort_fraction: float = 0.0,
        curve: Optional[
            Tuple[Sequence[float], Sequence[float], Sequence[float]]
        ] = None,
    ) -> DriftSnapshot:
        fractions: Tuple[float, ...] = ()
        curve_good: Tuple[float, ...] = ()
        curve_bad: Tuple[float, ...] = ()
        if curve is not None:
            fractions, curve_good, curve_bad = (
                tuple(float(x) for x in curve[0]),
                tuple(float(x) for x in curve[1]),
                tuple(float(x) for x in curve[2]),
            )
        snapshot = DriftSnapshot(
            refit=len(self.snapshots) + 1,
            label=label,
            plan=plan,
            documents_processed=tuple(documents_processed),
            observed_good=float(observed_good),
            observed_bad=float(observed_bad),
            predicted_good=float(predicted_good),
            predicted_bad=float(predicted_bad),
            predicted_time=float(predicted_time),
            effort_fraction=float(effort_fraction),
            curve_fractions=fractions,
            curve_good=curve_good,
            curve_bad=curve_bad,
        )
        self.snapshots.append(snapshot)
        return snapshot

    def series(self) -> Dict[str, List[float]]:
        """Column-oriented view for plotting/inspection."""
        return {
            "refit": [s.refit for s in self.snapshots],
            "observed_good": [s.observed_good for s in self.snapshots],
            "observed_bad": [s.observed_bad for s in self.snapshots],
            "predicted_good": [s.predicted_good for s in self.snapshots],
            "predicted_bad": [s.predicted_bad for s in self.snapshots],
            "good_error": [s.good_error for s in self.snapshots],
            "bad_error": [s.bad_error for s in self.snapshots],
        }
