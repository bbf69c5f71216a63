"""Golden fault-path runs: retries, backoff, breaker and losses, exactly.

Pins what the resilience layer does when database accesses fail, on
three executions whose databases inject deterministic faults:

* ``binary:faults`` -- a binary HQ⋈EX execute (the adaptive driver the
  service runs) under ``transient=0.1,timeout=0.05,rate_limit=0.02``;
* ``binary:break-search`` -- the same execute while the search interface
  goes hard down after its first query, so a breaker opens and the
  driver degrades to a plan that does not search;
* ``star3:faults`` -- a planned star3 execute under the same fault rates;
* ``context:breaker-cycle`` -- 400 fetches through one context over a
  database that fails more often than not, so its breaker opens,
  half-opens, closes and opens again;
* ``context:budget-and-deadline`` -- 400 fetches at lower fault rates
  under a retry budget and a per-operation backoff deadline.

Each run records its reply (plan, composition, simulated time, documents
and queries), its :class:`~repro.core.quality.ResilienceReport` (faults,
retries, backoff time, failed operations, lost and truncated documents,
breaker opens, open paths), the breaker transitions its trace recorded
and the resilience counters of its metrics.  Everything is compared as
text against ``tests/fault_path_golden.json``.

The golden file is regenerated (only when a change is *meant* to alter
fault handling) with::

    PYTHONPATH=src python tests/test_fault_path_golden.py
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Dict

import pytest

from repro.core import QualityRequirement
from repro.observability import ObservabilityContext, SpanKind
from repro.optimizer import AdaptiveJoinExecutor, enumerate_plans
from repro.planner.binder import bind_multiway_plan
from repro.planner.planner import MultiwayPlanner
from repro.robustness import FaultProfile, harden
from repro.robustness.context import (
    AccessFailedError,
    AccessPathUnavailable,
    ResilienceContext,
)
from repro.robustness.faults import FaultInjectingDatabase
from repro.robustness.retry import RetryPolicy

GOLDEN = pathlib.Path(__file__).with_name("fault_path_golden.json")

#: the fault rates of every ``:faults`` run
RATES = "transient=0.1,timeout=0.05,rate_limit=0.02"
BINARY_REQUIREMENT = (40, 1000)
STAR3_REQUIREMENT = (40, 250)
#: metric families the resilience layer writes
RESILIENCE_METRICS = (
    "repro_faults_total",
    "repro_retries_total",
    "repro_backoff_seconds_total",
    "repro_breaker_transitions_total",
    "repro_swallowed_events_total",
)


def resilience_facts(context: ResilienceContext, observability) -> Dict[str, object]:
    """The context's report, breaker transitions and resilience metrics."""
    report = context.report()
    return {
        "faults": dict(sorted(report.faults.items())),
        "retries": report.retries,
        "backoff_time": repr(report.backoff_time),
        "failed_operations": report.failed_operations,
        "documents_lost": report.documents_lost,
        "documents_truncated": report.documents_truncated,
        "breaker_opens": report.breaker_opens,
        "open_paths": list(report.open_paths),
        "transitions": [
            [record["attrs"]["path"], record["attrs"]["state"]]
            for record in observability.tracer.records
            if record["kind"] == SpanKind.BREAKER_TRANSITION
        ],
        "metrics": [
            [name, dict(labels), repr(instrument.value)]
            for name, _, labels, instrument in observability.metrics.families()
            if name in RESILIENCE_METRICS
        ],
    }


def report_facts(report) -> Dict[str, object]:
    return {
        "composition": repr(report.composition),
        "time": repr(report.time.total),
        "documents": {
            str(side): count
            for side, count in sorted(report.documents_processed.items())
        },
        "queries": {
            str(side): count
            for side, count in sorted(report.queries_issued.items())
        },
    }


def binary_run(task, spec: str) -> Dict[str, object]:
    """One binary execute, the way the service drives it, under *spec*."""
    environment = task.environment()
    environment.observability = ObservabilityContext()
    environment = harden(environment, profile=FaultProfile.parse(spec))
    driver = AdaptiveJoinExecutor(
        environment=environment,
        characterization1=task.characterization1,
        characterization2=task.characterization2,
        plans=enumerate_plans(task.extractor1.name, task.extractor2.name),
        pilot_documents=60,
        classifier_profile1=task.offline_classifier_profile1,
        classifier_profile2=task.offline_classifier_profile2,
        query_stats1=task.offline_query_stats1,
        query_stats2=task.offline_query_stats2,
        feasibility_margin=0.3,
    )
    result = driver.run(QualityRequirement(*BINARY_REQUIREMENT))
    facts: Dict[str, object] = {
        "plan": result.chosen.plan.describe() if result.chosen else None,
        "rounds": result.rounds,
        "degraded_paths": list(result.degraded_paths),
        "wasted_time": repr(result.wasted_time),
    }
    if result.report is not None:
        facts.update(report_facts(result.report))
    facts.update(
        resilience_facts(environment.resilience, environment.observability)
    )
    return facts


def star3_run(scenario, spec: str) -> Dict[str, object]:
    """One planned star3 execute whose databases inject *spec*'s faults."""
    environment = scenario.environment()
    environment.observability = ObservabilityContext()
    environment = harden(environment, profile=FaultProfile.parse(spec))
    requirement = QualityRequirement(*STAR3_REQUIREMENT)
    planner = MultiwayPlanner(scenario.graph, scenario.catalog())
    chosen = planner.optimize(requirement).chosen
    executor = bind_multiway_plan(
        environment, scenario.graph, chosen, model=planner.model
    )
    execution = executor.run(requirement)
    facts: Dict[str, object] = {"plan": chosen.plan.describe()}
    facts.update(report_facts(execution.report))
    facts.update(
        resilience_facts(environment.resilience, environment.observability)
    )
    return facts


def context_run(
    task, profile: FaultProfile, policy: RetryPolicy
) -> Dict[str, object]:
    """400 fetches through one context over a database failing at *profile*.

    ``outcomes`` spells each fetch: ``.`` answered, ``x`` failed after
    retries, ``o`` rejected by an open breaker.
    """
    observability = ObservabilityContext()
    context = ResilienceContext(policy=policy)
    context.observability = observability
    database = FaultInjectingDatabase(task.database1, profile)
    context.attach_injector(database)
    outcomes = []
    for doc_id in task.database1.scan_order()[:400]:
        try:
            context.call("nyt95:fetch", lambda: database.get(doc_id))
        except AccessPathUnavailable:
            outcomes.append("o")
        except AccessFailedError:
            outcomes.append("x")
        else:
            outcomes.append(".")
    facts: Dict[str, object] = {"outcomes": "".join(outcomes)}
    facts.update(resilience_facts(context, observability))
    return facts


def fault_runs(task, scenario) -> Dict[str, Dict[str, object]]:
    """Every golden run, keyed by name."""
    return {
        "binary:faults": binary_run(task, RATES),
        "binary:break-search": binary_run(task, "break_search_after=1"),
        "star3:faults": star3_run(scenario, RATES),
        "context:breaker-cycle": context_run(
            task, FaultProfile(transient=0.5, timeout=0.1, seed=7), RetryPolicy()
        ),
        "context:budget-and-deadline": context_run(
            task,
            FaultProfile(transient=0.3, timeout=0.1, seed=7),
            RetryPolicy(retry_budget=60, deadline=12.0, seed=3),
        ),
    }


@pytest.fixture(scope="module")
def small_task():
    from repro.experiments import TestbedConfig, build_testbed

    return build_testbed(TestbedConfig(scale=0.3)).task()


@pytest.fixture(scope="module")
def star3():
    from repro.experiments import build_multiway_testbed

    return build_multiway_testbed().scenario("star3")


def test_fault_runs_match_the_golden_file(small_task, star3):
    expected = json.loads(GOLDEN.read_text())
    actual = json.loads(json.dumps(fault_runs(small_task, star3)))
    assert sorted(actual) == sorted(expected)
    for name, facts in expected.items():
        assert actual[name] == facts, name
    # The cases exercise what they are named for.
    for name in ("binary:faults", "star3:faults"):
        assert actual[name]["retries"] > 0
        assert actual[name]["backoff_time"] != "0.0"
    broken = actual["binary:break-search"]
    assert broken["breaker_opens"] > 0 and broken["transitions"]
    cycle = actual["context:breaker-cycle"]
    assert ["nyt95:fetch", "closed"] in cycle["transitions"]
    assert {".", "x", "o"} <= set(cycle["outcomes"])


def main() -> None:
    from repro.experiments import TestbedConfig, build_multiway_testbed, build_testbed

    task = build_testbed(TestbedConfig(scale=0.3)).task()
    scenario = build_multiway_testbed().scenario("star3")
    runs = fault_runs(task, scenario)
    GOLDEN.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(runs)} runs to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
