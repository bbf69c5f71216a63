"""Optimizer fidelity under estimated statistics (Section VI end-to-end).

The paper's optimizer works from parameters estimated on the fly, not from
ground truth.  This bench compares, across requirement levels, the plan
chosen with (a) the ground-truth ("perfect knowledge") catalog and (b) a
catalog estimated from a scan pilot — scoring both against the *actual*
per-plan trajectories.  The reproduction contract: estimation-informed
choices stay within a small factor of the truth-informed choices' actual
times, and both avoid the order-of-magnitude-slower plans.
"""

import pytest

from repro.core import QualityRequirement
from repro import estimation
from repro.estimation import ObservationContext, estimate_overlap, estimate_side
from repro.experiments import build_trajectories, format_table, time_to_meet
from repro.joins import Budgets, IndependentJoin
from repro.optimizer import JoinOptimizer, enumerate_plans
from repro.retrieval import ScanRetriever

REQUIREMENTS = ((10, 10**5), (60, 10**5), (250, 10**5))


@pytest.fixture(scope="module")
def plans(task):
    return enumerate_plans(task.extractor1.name, task.extractor2.name)


@pytest.fixture(scope="module")
def trajectories(task, plans):
    return build_trajectories(task, plans)


@pytest.fixture(scope="module")
def estimated_catalog(task):
    """Statistics estimated from a 120-document scan pilot (no labels)."""
    inputs = task.inputs(0.4, 0.4)
    pilot = IndependentJoin(
        inputs,
        ScanRetriever(task.database1),
        ScanRetriever(task.database2),
        costs=task.costs,
    ).run(budgets=Budgets(max_documents1=120, max_documents2=120))
    estimates = []
    for side, database, char in (
        (1, task.database1, task.characterization1),
        (2, task.database2, task.characterization2),
    ):
        observations = pilot.observations.side(side)
        context = ObservationContext(
            database_size=len(database),
            coverage=observations.documents_processed / len(database),
            tp=char.tp_at(0.4),
            fp=char.fp_at(0.4),
            theta=0.4,
        )
        estimates.append(
            estimate_side(observations, context, reference=char.confidences)
        )
    overlap = estimate_overlap(
        estimates[0],
        estimates[1],
        pilot.observations.side(1),
        pilot.observations.side(2),
    )
    return estimation.estimated_catalog(
        (estimates[0].parameters, estimates[1].parameters),
        overlap,
        databases=(task.database1, task.database2),
        characterizations=(task.characterization1, task.characterization2),
        classifiers=(
            task.offline_classifier_profile1,
            task.offline_classifier_profile2,
        ),
        queries=(task.offline_query_stats1, task.offline_query_stats2),
    )


def test_estimated_vs_truth_informed_choice(
    benchmark, task, plans, trajectories, estimated_catalog, report_sink
):
    def run():
        truth_optimizer = JoinOptimizer(
            task.catalog(), costs=task.costs, feasibility_margin=0.15
        )
        estimated_optimizer = JoinOptimizer(
            estimated_catalog, costs=task.costs, feasibility_margin=0.15
        )
        rows = []
        for tau_good, tau_bad in REQUIREMENTS:
            requirement = QualityRequirement(tau_good, tau_bad)
            actual_best = min(
                (
                    time
                    for time in (
                        time_to_meet(t, requirement)
                        for t in trajectories.values()
                    )
                    if time is not None
                ),
                default=None,
            )
            entries = {}
            for label, optimizer in (
                ("truth", truth_optimizer),
                ("estimated", estimated_optimizer),
            ):
                result = optimizer.optimize(plans, requirement)
                chosen = result.chosen
                actual_time = (
                    time_to_meet(trajectories[chosen.plan], requirement)
                    if chosen is not None
                    else None
                )
                entries[label] = (chosen, actual_time)
            rows.append((requirement, actual_best, entries))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = []
    for requirement, actual_best, entries in rows:
        for label, (chosen, actual_time) in entries.items():
            table.append(
                (
                    requirement.tau_good,
                    label,
                    chosen.plan.describe() if chosen else "(none)",
                    f"{actual_time:.0f}" if actual_time else "MISSED",
                    f"{actual_best:.0f}" if actual_best else "-",
                )
            )
    report_sink(
        "estimated_optimizer_fidelity",
        format_table(
            ["tau_g", "statistics", "chosen plan", "actual time", "best possible"],
            table,
        ),
    )
    for requirement, actual_best, entries in rows:
        truth_chosen, truth_time = entries["truth"]
        est_chosen, est_time = entries["estimated"]
        assert truth_chosen is not None and est_chosen is not None
        # Both choices actually meet the requirement...
        assert truth_time is not None
        assert est_time is not None
        # ...and the estimation-informed choice is within 4x of the
        # truth-informed one (the paper's own adaptive overhead regime).
        assert est_time <= truth_time * 4.0
        # Neither lands on an order-of-magnitude-slower plan.
        assert est_time <= actual_best * 10.0
