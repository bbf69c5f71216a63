"""Golden adaptive-driver runs: estimates, plans and reports, exactly.

Pins the Section VI driver end to end on three runs:

* ``cold-crossvalidated`` — the ``repro adaptive --scale 0.3 --tau-good 40
  --tau-bad 1000`` run, whose cross-validation doubles the pilot twice;
* ``milestones`` — ``cross_validate=False`` with re-optimization
  milestones at 25/50/75% of the good target over the θ=0.4 plans, so
  the run re-estimates from pilot + execution observations mid-flight;
* ``warm-restored`` — a warm start handed the cold run's final pilot
  snapshot, restored whole (no fresh pilot document).

Each run records its rounds, pilot size, plan, plan switches, the repr of
both sides' :class:`~repro.estimation.mle.EstimatedParameters`, the overlap
classes derived from them and the final report's composition, time and
documents.  Runs trace into an :class:`ObservabilityContext`, so each also
records its MLE refit spans and counter and every drift snapshot's
prediction: a milestone re-estimate that keeps the plan still shows in
the prediction it re-optimized to.  Everything is compared as text
against ``tests/adaptive_golden.json``.

The golden file is regenerated (only when a change is *meant* to alter
adaptive runs) with::

    PYTHONPATH=src python tests/test_adaptive_golden.py
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Dict

import pytest

from repro.core import QualityRequirement
from repro.estimation import estimate_overlap
from repro.observability import ObservabilityContext, SpanKind
from repro.optimizer import AdaptiveJoinExecutor, PilotWarmStart, enumerate_plans

GOLDEN = pathlib.Path(__file__).with_name("adaptive_golden.json")

COLD_REQUIREMENT = (40, 1000)
WARM_REQUIREMENT = (20, 10**6)
MILESTONE_REQUIREMENT = (120, 10**6)


def _driver(task, plans=None, **kwargs) -> AdaptiveJoinExecutor:
    """The driver ``repro adaptive`` builds, with *kwargs* overriding."""
    if plans is None:
        plans = enumerate_plans(task.extractor1.name, task.extractor2.name)
    environment = task.environment()
    environment.observability = ObservabilityContext()
    settings = dict(
        environment=environment,
        characterization1=task.characterization1,
        characterization2=task.characterization2,
        plans=plans,
        pilot_documents=100,
        classifier_profile1=task.offline_classifier_profile1,
        classifier_profile2=task.offline_classifier_profile2,
        query_stats1=task.offline_query_stats1,
        query_stats2=task.offline_query_stats2,
        feasibility_margin=0.3,
    )
    settings.update(kwargs)
    return AdaptiveJoinExecutor(**settings)


def run(driver: AdaptiveJoinExecutor, requirement):
    """Run *driver* on *requirement*: its golden facts (floats as reprs)
    and its result."""
    result = driver.run(QualityRequirement(*requirement))
    observability = driver.observability
    estimate1, estimate2 = result.estimates
    observations = result.pilot.observations
    overlap = estimate_overlap(
        estimate1, estimate2, observations.side(1), observations.side(2)
    )
    facts: Dict[str, object] = {
        "rounds": result.rounds,
        "pilot_size": result.pilot_size,
        "pilot_fresh_documents": result.pilot_fresh_documents,
        "plan": result.chosen.plan.describe() if result.chosen else None,
        "plan_switches": result.plan_switches,
        "parameters1": repr(estimate1.parameters),
        "parameters2": repr(estimate2.parameters),
        "overlap": repr(overlap),
        "refit_spans": sum(
            record["kind"] == SpanKind.MLE_REFIT
            for record in observability.tracer.records
        ),
        "refits_total": observability.metrics.value("repro_mle_refits_total"),
        "drift": [
            [
                snapshot.label,
                snapshot.plan,
                repr(snapshot.predicted_good),
                repr(snapshot.predicted_bad),
                repr(snapshot.predicted_time),
            ]
            for snapshot in observability.drift.snapshots
        ],
    }
    if result.report is not None:
        report = result.report
        facts["composition"] = repr(report.composition)
        facts["time"] = repr(report.time.total)
        facts["documents"] = {
            str(side): count
            for side, count in sorted(report.documents_processed.items())
        }
    return facts, result


def adaptive_runs(small_task, task) -> Dict[str, Dict[str, object]]:
    """Every golden run, keyed by name."""
    runs: Dict[str, Dict[str, object]] = {}
    runs["cold-crossvalidated"], cold = run(
        _driver(small_task, snapshot_pilot=True), COLD_REQUIREMENT
    )
    warm = PilotWarmStart(
        snapshot=cold.pilot_snapshot,
        documents=cold.pilot_size,
        rounds=cold.rounds,
    )
    runs["warm-restored"], _ = run(
        _driver(small_task, warm_start=warm), WARM_REQUIREMENT
    )
    plans = enumerate_plans(
        task.extractor1.name,
        task.extractor2.name,
        thetas1=(0.4,),
        thetas2=(0.4,),
    )
    runs["milestones"], _ = run(
        _driver(
            task,
            plans=plans,
            pilot_documents=60,
            cross_validate=False,
            reoptimization_points=(0.25, 0.5, 0.75),
        ),
        MILESTONE_REQUIREMENT,
    )
    return runs


@pytest.fixture(scope="module")
def small_task():
    from repro.experiments import TestbedConfig, build_testbed

    return build_testbed(TestbedConfig(scale=0.3)).task()


def test_adaptive_runs_match_the_golden_file(small_task, hq_ex_task):
    expected = json.loads(GOLDEN.read_text())
    actual = adaptive_runs(small_task, hq_ex_task)
    assert sorted(actual) == sorted(expected)
    for name, facts in expected.items():
        assert actual[name] == facts, name
    # The cases exercise what they are named for.
    assert actual["cold-crossvalidated"]["rounds"] > 1
    assert actual["warm-restored"]["pilot_fresh_documents"] == 0


def main() -> None:
    from repro.experiments import TestbedConfig, build_testbed

    small = build_testbed(TestbedConfig(scale=0.3)).task()
    task = build_testbed(TestbedConfig(scale=0.6)).task()
    runs = adaptive_runs(small, task)
    GOLDEN.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(runs)} runs to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
