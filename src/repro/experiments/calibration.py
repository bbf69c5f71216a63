"""Estimation-calibration harness.

Measures how well the Section VI estimator recovers the database-specific
parameters as a function of pilot size — the evidence behind the
calibration table in ``docs/estimation.md`` and the basis for default
settings like the optimizer's feasibility margin.

For each pilot size the harness runs a scan pilot on the task, estimates
both sides, and scores the estimates against the ground-truth profiles
(which the estimator never saw).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..estimation import ObservationContext, estimate_side
from ..joins import Budgets, IndependentJoin
from ..retrieval import ScanRetriever
from .testbed import JoinTask


@dataclass(frozen=True)
class CalibrationRow:
    """Estimation errors for one (pilot size, side) pair.

    Errors are relative (estimate/truth − 1) except ``share_error``
    (absolute difference of the good-occurrence share).
    """

    pilot_documents: int
    relation: str
    n_good_values_error: float
    n_bad_values_error: float
    good_occurrences_error: float
    n_good_docs_error: float
    share_error: float

    @staticmethod
    def _relative(estimate: float, truth: float) -> float:
        if truth == 0:
            return 0.0 if estimate == 0 else float("inf")
        return estimate / truth - 1.0


def run_calibration(
    task: JoinTask,
    pilot_sizes: Sequence[int] = (60, 120, 240),
    theta: float = 0.4,
) -> List[CalibrationRow]:
    """Estimate both sides at several pilot sizes; score against truth."""
    rows: List[CalibrationRow] = []
    for pilot_documents in pilot_sizes:
        inputs = task.inputs(theta, theta)
        pilot = IndependentJoin(
            inputs,
            ScanRetriever(task.database1),
            ScanRetriever(task.database2),
            costs=task.costs,
        ).run(
            budgets=Budgets(
                max_documents1=pilot_documents,
                max_documents2=pilot_documents,
            )
        )
        for side, database, char, profile in (
            (1, task.database1, task.characterization1, task.profile1),
            (2, task.database2, task.characterization2, task.profile2),
        ):
            observations = pilot.observations.side(side)
            context = ObservationContext(
                database_size=len(database),
                coverage=observations.documents_processed / len(database),
                tp=char.tp_at(theta),
                fp=char.fp_at(theta),
                theta=theta,
            )
            estimate = estimate_side(
                observations, context, reference=char.confidences
            )
            parameters = estimate.parameters
            true_good_occ = profile.n_good_occurrences
            true_share = true_good_occ / max(
                true_good_occ + profile.n_bad_occurrences, 1
            )
            estimated_good_occ = (
                parameters.n_good_values * parameters.good_power_law().mean()
            )
            rows.append(
                CalibrationRow(
                    pilot_documents=pilot_documents,
                    relation=parameters.relation,
                    n_good_values_error=CalibrationRow._relative(
                        parameters.n_good_values, len(profile.good_values)
                    ),
                    n_bad_values_error=CalibrationRow._relative(
                        parameters.n_bad_values, len(profile.bad_values)
                    ),
                    good_occurrences_error=CalibrationRow._relative(
                        estimated_good_occ, true_good_occ
                    ),
                    n_good_docs_error=CalibrationRow._relative(
                        parameters.n_good_docs, profile.n_good_docs
                    ),
                    share_error=abs(
                        parameters.good_occurrence_share - true_share
                    ),
                )
            )
    return rows


def format_calibration(rows: Sequence[CalibrationRow], title: str) -> str:
    from .reporting import format_table

    body = format_table(
        ["pilot", "relation", "ΔNg", "ΔNb", "ΔOg", "ΔDg", "Δshare"],
        [
            (
                r.pilot_documents,
                r.relation,
                f"{r.n_good_values_error:+.0%}",
                f"{r.n_bad_values_error:+.0%}",
                f"{r.good_occurrences_error:+.0%}",
                f"{r.n_good_docs_error:+.0%}",
                f"{r.share_error:.2f}",
            )
            for r in rows
        ],
    )
    return f"{title}\n{body}"
