"""Golden executor runs: reports, metrics, work and checkpoints, exactly.

Pins every join executor on the same inputs, run three ways each:

* ``unlimited`` -- one ``run()`` under :data:`~repro.joins.base.UNLIMITED`,
  to exhaustion;
* ``budgets`` -- one ``run()`` capped by per-side budgets (documents,
  retrieved documents, queries; per-side document caps for n-ary sides);
* ``resumed`` -- two ``run()`` calls on one executor, a small good target
  and then a larger one, so the second run continues the first's session.

The executors are IDJN at rates (1,1) over FS/AQG and at rates (2,1) over
SC/FS, OIJN with outer side 1 (FS) and with outer side 2 (AQG), ZGJN from
the task's seed queries, and the ripple and interleaved n-ary executors
over the star3 and chain3 scenarios (one FS side each).

After each ``run()`` a case records the report (good and bad tuples, the
good x bad split of a binary join, the four time components, documents
retrieved and processed, queries, tuples, ``satisfied``, ``exhausted``),
the metric deltas the run published, ``work_counters()``, how many
points the executor recorded in the run (``record()``) and a digest of
their (good, bad, time), and for a binary executor a digest of
``checkpoint_execution``.  Everything is compared as text against
``tests/executor_golden.json``.

The golden file is regenerated (only when a change is *meant* to alter
what the executors do) with::

    PYTHONPATH=src python tests/test_executor_golden.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
from typing import Callable, Dict, List

import pytest

from repro.core import QualityRequirement
from repro.core.plan import RetrievalKind
from repro.joins import (
    UNLIMITED,
    Budgets,
    IndependentJoin,
    OuterInnerJoin,
    ZigZagJoin,
)
from repro.multiway import InterleavedNaryJoin, MultiwayIndependentJoin, MultiwaySide
from repro.core import TreeEdge, TreeJoinState
from repro.observability import ObservabilityContext
from repro.robustness.checkpoint import checkpoint_execution

GOLDEN = pathlib.Path(__file__).with_name("executor_golden.json")

SC = RetrievalKind.SCAN
FS = RetrievalKind.FILTERED_SCAN
AQG = RetrievalKind.AQG

#: the two requirements of a resumed case, in run order
RESUMED = (
    QualityRequirement(tau_good=15, tau_bad=10**9),
    QualityRequirement(tau_good=60, tau_bad=10**9),
)
BINARY_BUDGETS = {
    "idjn-1x1": Budgets(max_retrieved1=70, max_queries2=4),
    "idjn-2x1": Budgets(max_documents1=90, max_retrieved2=50),
    "oijn-outer1": Budgets(max_documents1=40, max_queries2=25, max_documents2=60),
    "oijn-outer2": Budgets(max_queries2=3, max_documents1=50),
    "zgjn": Budgets(max_queries1=12, max_queries2=10, max_documents2=45),
}
NARY_BUDGETS = (60, 120, 90)
#: no caps on any side: a recorded run's every point
UNCAPPED = ((None, None, None),) * 3


def _digest(value: object) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _metric_values(observability: ObservabilityContext) -> Dict[tuple, float]:
    return {
        (name, kind, labels): instrument.value
        for name, kind, labels, instrument in observability.metrics.families()
        if kind in ("counter", "gauge")
    }


def _metric_deltas(before: Dict[tuple, float], after: Dict[tuple, float]):
    """Counter increments and gauge values the run left, dump order."""
    deltas = []
    for key, value in after.items():
        name, kind, labels = key
        if kind == "counter":
            value -= before.get(key, 0.0)
            if not value:
                continue
        elif before.get(key) == value:
            continue
        deltas.append([name, dict(labels), repr(value)])
    return deltas


def _report_facts(report, binary: bool) -> Dict[str, object]:
    composition = report.composition
    facts: Dict[str, object] = {
        "good": composition.n_good,
        "bad": composition.n_bad,
    }
    if binary:
        facts["split"] = [
            composition.n_good_bad,
            composition.n_bad_good,
            composition.n_bad_bad,
        ]
    time = report.time
    facts.update(
        time=[
            repr(time.retrieval),
            repr(time.extraction),
            repr(time.filtering),
            repr(time.querying),
        ],
        retrieved=_sides(report.documents_retrieved),
        processed=_sides(report.documents_processed),
        queries=_sides(report.queries_issued),
        tuples=_sides(report.tuples_extracted),
        satisfied=report.satisfied,
        exhausted=report.exhausted,
        resilience=report.resilience is not None,
    )
    return facts


def _sides(counts: Dict[int, int]) -> Dict[str, int]:
    return {str(side): count for side, count in sorted(counts.items())}


def _run_case(
    build: Callable[[ObservabilityContext], object],
    runs: List[Dict[str, object]],
    binary: bool,
) -> List[Dict[str, object]]:
    """Build an executor and record each of *runs* (``run()`` kwargs)."""
    observability = ObservabilityContext()
    executor = build(observability)
    executor.record()
    recorded = 0
    facts = []
    for kwargs in runs:
        before = _metric_values(observability)
        execution = executor.run(**kwargs)
        fact = _report_facts(execution.report, binary)
        fact["metrics"] = _metric_deltas(before, _metric_values(observability))
        fact["work"] = {
            name: repr(value)
            for name, value in sorted(executor.work_counters().items())
        }
        points = executor.trajectory(UNCAPPED).points[recorded:]
        recorded += len(points)
        fact["recorded"] = [
            len(points),
            _digest([[p.good, p.bad, [repr(t) for t in p.time]] for p in points]),
        ]
        if binary:
            fact["checkpoint"] = _digest(checkpoint_execution(executor))
        facts.append(fact)
    return facts


def _modes(budgets) -> Dict[str, List[Dict[str, object]]]:
    return {
        "unlimited": [{"requirement": UNLIMITED}],
        "budgets": [{"requirement": UNLIMITED, **budgets}],
        "resumed": [{"requirement": requirement} for requirement in RESUMED],
    }


def binary_builders(task) -> Dict[str, Callable[[ObservabilityContext], object]]:
    """Every binary case's executor factory, keyed by case name."""

    def environment(observability):
        bound = task.environment()
        bound.observability = observability
        return bound

    def common(bound):
        return dict(
            costs=bound.cost_model(),
            observability=bound.observability,
        )

    def idjn(kinds, rates):
        def build(observability):
            bound = environment(observability)
            return IndependentJoin(
                task.inputs(),
                retriever1=bound.retriever(1, kinds[0]),
                retriever2=bound.retriever(2, kinds[1]),
                rates=rates,
                **common(bound),
            )

        return build

    def oijn(outer, kind):
        def build(observability):
            bound = environment(observability)
            return OuterInnerJoin(
                task.inputs(),
                outer_retriever=bound.retriever(outer, kind),
                outer=outer,
                **common(bound),
            )

        return build

    def zgjn(observability):
        bound = environment(observability)
        return ZigZagJoin(
            task.inputs(), seed_queries=bound.seed_queries, **common(bound)
        )

    return {
        "idjn-1x1": idjn((FS, AQG), (1, 1)),
        "idjn-2x1": idjn((SC, FS), (2, 1)),
        "oijn-outer1": oijn(1, FS),
        "oijn-outer2": oijn(2, AQG),
        "zgjn": zgjn,
    }


def nary_builder(scenario, executor_type, caps):
    """An n-ary executor over *scenario*: FS on the first alias, SC on the
    rest, each side capped at *caps* (None = uncapped)."""

    def build(observability):
        bound = scenario.environment()
        bound.observability = observability
        names = scenario.graph.names
        sides = [
            MultiwaySide(
                database=bound.database(name),
                extractor=bound.extractor_at(name, 0.4),
                retriever=bound.retriever(name, FS if i == 0 else SC),
                costs=bound.side_costs(name),
                max_documents=caps[i],
            )
            for i, name in enumerate(names)
        ]
        index_of = {name: i for i, name in enumerate(names)}
        state = TreeJoinState(
            [side.extractor.schema for side in sides],
            [
                TreeEdge(
                    left=index_of[edge.left],
                    left_attribute=edge.left_attribute,
                    right=index_of[edge.right],
                    right_attribute=edge.right_attribute,
                )
                for edge in scenario.graph.edges
            ],
        )
        return executor_type(sides, state=state, observability=observability)

    return build


def executor_runs(task, scenarios) -> Dict[str, List[Dict[str, object]]]:
    """Every golden case, keyed by ``executor:mode``."""
    cases: Dict[str, List[Dict[str, object]]] = {}
    for name, build in binary_builders(task).items():
        for mode, runs in _modes({"budgets": BINARY_BUDGETS[name]}).items():
            cases[f"{name}:{mode}"] = _run_case(build, runs, binary=True)
    for scenario in scenarios:
        for label, executor_type in (
            ("ripple", MultiwayIndependentJoin),
            ("interleaved", InterleavedNaryJoin),
        ):
            for mode, runs in _modes({}).items():
                caps = NARY_BUDGETS if mode == "budgets" else (None,) * 3
                build = nary_builder(scenario, executor_type, caps)
                cases[f"{scenario.name}-{label}:{mode}"] = _run_case(
                    build, runs, binary=False
                )
    return cases


@pytest.fixture(scope="module")
def small_task():
    from repro.experiments import TestbedConfig, build_testbed

    return build_testbed(TestbedConfig(scale=0.3)).task()


@pytest.fixture(scope="module")
def scenarios():
    from repro.experiments import build_multiway_testbed

    testbed = build_multiway_testbed()
    return [testbed.scenario(name) for name in ("star3", "chain3")]


def test_executor_runs_match_the_golden_file(small_task, scenarios):
    expected = json.loads(GOLDEN.read_text())
    actual = json.loads(json.dumps(executor_runs(small_task, scenarios)))
    assert sorted(actual) == sorted(expected)
    for name, facts in expected.items():
        assert actual[name] == facts, name
    # The cases exercise what they are named for.
    for name, facts in actual.items():
        if name.endswith(":unlimited"):
            assert facts[0]["exhausted"], name
        if name.endswith(":resumed"):
            first, second = facts
            assert first["satisfied"] and second["good"] > first["good"], name
    assert actual["idjn-2x1:unlimited"][0]["time"][2] != "0.0"
    assert actual["star3-ripple:budgets"][0]["processed"] == {
        "1": 60, "2": 120, "3": 90
    }


def main() -> None:
    from repro.experiments import TestbedConfig, build_multiway_testbed, build_testbed

    task = build_testbed(TestbedConfig(scale=0.3)).task()
    testbed = build_multiway_testbed()
    scenarios = [testbed.scenario(name) for name in ("star3", "chain3")]
    runs = executor_runs(task, scenarios)
    GOLDEN.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(runs)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
