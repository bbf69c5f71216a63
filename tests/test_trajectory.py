"""Recorded runs answer executes exactly as live runs do (DESIGN §6.4).

Differential tests of :mod:`repro.joins.trajectory`:

* executor level: for each binary executor and both n-ary ones, one
  recorded run answers seeded (τg, τb, caps) draws with the report, work
  counters and gauges a fresh live run leaves, and declines whenever the
  caps reach its stop point;
* service level: binary executes over perfbench's ``EXECUTE_GRID`` plus
  60 seeded off-grid requirements, sent in ascending, descending and
  shuffled order, reply byte for byte what a fresh service replies live;
  so do two workers extending one plan at once, and star3 executes over
  ``MULTIWAY_GRID``; a service whose fault profile injects records
  nothing.
"""

from __future__ import annotations

import random
import shutil
import sys
import threading
from typing import Callable, Dict, List, Optional, Tuple

import pytest

from repro.core import QualityRequirement
from repro.core.plan import RetrievalKind
from repro.joins import (
    UNLIMITED,
    Budgets,
    IndependentJoin,
    OuterInnerJoin,
    Trajectory,
    ZigZagJoin,
    keep_recorded,
)
from repro.multiway import InterleavedNaryJoin, MultiwayIndependentJoin, MultiwaySide
from repro.observability import ObservabilityContext
from repro.optimizer.adaptive import PosteriorQuality, TuplePosterior
from repro.robustness import FaultProfile
from repro.service import JoinRequest, JoinService
from repro.service.service import response_json

SC = RetrievalKind.SCAN
FS = RetrievalKind.FILTERED_SCAN
AQG = RetrievalKind.AQG

#: perfbench's binary and star3 requirement grids
EXECUTE_GRID = tuple(
    (good, bad)
    for good in (10, 20, 40, 80, 150, 300, 600)
    for bad in (15, 60, 10**6)
)
MULTIWAY_GRID = tuple(
    (good, bad)
    for good in (10, 20, 30, 40, 50, 60)
    for bad in (60, 120, 250, 1000)
)


def _off_grid(count: int, seed: int = 38) -> Tuple[Tuple[int, int], ...]:
    """*count* seeded (τg, τb) requirements that are not on the grid."""
    rng = random.Random(seed)
    drawn: List[Tuple[int, int]] = []
    while len(drawn) < count:
        good = rng.randint(1, 650)
        bad = 10**6 if rng.random() < 0.3 else rng.randint(0, 500)
        if (good, bad) not in EXECUTE_GRID and (good, bad) not in drawn:
            drawn.append((good, bad))
    return tuple(drawn)


OFF_GRID = _off_grid(60)
REQUIREMENTS = EXECUTE_GRID + OFF_GRID
COLD_REQUEST = (20, 40)
OUTCOMES = "repro_execute_trajectory_total"


# -- executor level -----------------------------------------------------------

#: side caps of a binary run: (documents, retrieved, queries) per side
BinaryCaps = Tuple[Tuple[Optional[int], ...], Tuple[Optional[int], ...]]


def _budgets(caps: BinaryCaps) -> Budgets:
    (d1, r1, q1), (d2, r2, q2) = caps
    return Budgets(
        max_documents1=d1,
        max_retrieved1=r1,
        max_queries1=q1,
        max_documents2=d2,
        max_retrieved2=r2,
        max_queries2=q2,
    )


def _posterior(task) -> PosteriorQuality:
    """The service's kind of estimator: confidence posteriors, not labels."""
    return PosteriorQuality(
        TuplePosterior(task.characterization1.confidences, 0.6, theta=0.4),
        TuplePosterior(task.characterization2.confidences, 0.6, theta=0.4),
    )


def binary_builders(task) -> Dict[str, Callable[[ObservabilityContext], object]]:
    """Executor factories over *task*, keyed by case name."""

    def bound(observability):
        environment = task.environment()
        environment.observability = observability
        return environment

    def idjn(kinds, rates):
        def build(observability):
            environment = bound(observability)
            return IndependentJoin(
                task.inputs(),
                retriever1=environment.retriever(1, kinds[0]),
                retriever2=environment.retriever(2, kinds[1]),
                costs=environment.cost_model(),
                rates=rates,
                observability=observability,
            )

        return build

    def oijn(outer, kind, posterior=False):
        def build(observability):
            environment = bound(observability)
            return OuterInnerJoin(
                task.inputs(),
                outer_retriever=environment.retriever(outer, kind),
                costs=environment.cost_model(),
                estimator=_posterior(task) if posterior else None,
                outer=outer,
                observability=observability,
            )

        return build

    def zgjn(observability):
        environment = bound(observability)
        return ZigZagJoin(
            task.inputs(),
            seed_queries=environment.seed_queries,
            costs=environment.cost_model(),
            observability=observability,
        )

    return {
        "idjn-fs-aqg": idjn((FS, AQG), (1, 1)),
        "idjn-sc-fs-2x1": idjn((SC, FS), (2, 1)),
        "oijn-outer1-fs": oijn(1, FS),
        "oijn-outer2-aqg": oijn(2, AQG),
        "oijn-outer1-aqg-posterior": oijn(1, AQG, posterior=True),
        "zgjn": zgjn,
    }


#: the recording run's caps per case: IDJN would scan the whole corpus
RECORDING_CAPS: Dict[str, BinaryCaps] = {
    "idjn-fs-aqg": ((250, None, None), (250, None, None)),
    "idjn-sc-fs-2x1": ((300, None, None), (None, 400, None)),
}
UNCAPPED: BinaryCaps = ((None, None, None), (None, None, None))


def _draw_caps(rng: random.Random, point_counts, sides: int):
    """Per side: each cap None or a count in the upper half of the
    trajectory's range (a few past its end)."""
    caps = []
    for side in range(sides):
        caps.append(
            tuple(
                None
                if rng.random() < 0.5
                else rng.randint(max(1, high // 2), high + 3)
                for high in point_counts[side]
            )
        )
    return tuple(caps)


def _ranges(trajectory: Trajectory, sides: int):
    """Per side: the largest (processed, retrieved, queries) recorded."""
    last = trajectory.points[-1]
    per_side = [[last.processed[side], 0, 0] for side in range(sides)]
    for side, retrieved, queries in last.access:
        per_side[side - 1][1] = retrieved
        per_side[side - 1][2] = queries
    return per_side


def _gauges(observability: ObservabilityContext) -> List[Tuple]:
    return [
        (name, labels, instrument.value)
        for name, kind, labels, instrument in observability.metrics.families()
        if kind == "gauge"
    ]


def _draws(trajectory: Trajectory, rng: random.Random, count: int):
    """*count* seeded requirements spanning the trajectory's estimates."""
    top_good = max(point.good for point in trajectory.points)
    top_bad = max(point.bad for point in trajectory.points)
    return [
        QualityRequirement(
            tau_good=rng.randint(0, int(top_good * 1.1) + 1),
            tau_bad=rng.randint(0, int(top_bad * 1.1) + 1),
        )
        for _ in range(count)
    ]


@pytest.mark.parametrize(
    "case",
    [
        "idjn-fs-aqg",
        "idjn-sc-fs-2x1",
        "oijn-outer1-fs",
        "oijn-outer2-aqg",
        "oijn-outer1-aqg-posterior",
        "zgjn",
    ],
)
def test_binary_trajectory_answers_like_a_live_run(hq_ex_task, case):
    build = binary_builders(hq_ex_task)[case]
    recording_caps = RECORDING_CAPS.get(case, UNCAPPED)
    recorder = build(ObservabilityContext())
    recorder.record()
    recorder.run(UNLIMITED, _budgets(recording_caps))
    trajectory = recorder.trajectory(recording_caps)
    assert len(trajectory.points) > 10
    if case not in RECORDING_CAPS:
        # An uncapped run ends by exhaustion; its end point is kept.
        assert trajectory.end is not None and trajectory.end.exhausted
    rng = random.Random(case)
    ranges = _ranges(trajectory, 2)
    served = declined = 0
    for requirement in _draws(trajectory, rng, 32):
        caps = _draw_caps(rng, ranges, 2)
        point = trajectory.stop_point(requirement, caps)
        if point is None:
            uncapped = trajectory.stop_point(requirement, UNCAPPED)
            declined += uncapped is not None
            continue
        served += 1
        live_observability = ObservabilityContext()
        live = build(live_observability)
        execution = live.run(requirement, _budgets(caps))
        answered = ObservabilityContext()
        report, work = trajectory.answer(point, requirement, None, answered)
        assert report == execution.report
        assert work == live.work_counters()
        assert _gauges(answered) == _gauges(live_observability)
    assert served >= 5, served
    assert declined >= 1, declined


def test_caps_below_the_stop_point_run_live(hq_ex_task):
    build = binary_builders(hq_ex_task)["oijn-outer1-fs"]
    recorder = build(ObservabilityContext())
    recorder.record()
    recorder.run(UNLIMITED)
    trajectory = recorder.trajectory(UNCAPPED)
    requirement = QualityRequirement(tau_good=60, tau_bad=10**6)
    point = trajectory.stop_point(requirement, UNCAPPED)
    assert point is not None and point.processed[1] >= 2
    # One inner document fewer than the stop point processed.
    cap = point.processed[1] - 1
    caps = ((None, None, None), (cap, None, None))
    assert trajectory.stop_point(requirement, caps) is None
    live = build(ObservabilityContext()).run(requirement, _budgets(caps))
    assert live.report.documents_processed[2] <= cap
    assert live.report != trajectory.answer(point, requirement, None)[0]
    # A cap one above the stop point's count serves it, as run live.
    caps = ((None, None, None), (point.processed[1] + 1, None, None))
    assert trajectory.stop_point(requirement, caps) is point
    live = build(ObservabilityContext()).run(requirement, _budgets(caps))
    assert live.report == trajectory.answer(point, requirement, None)[0]


def test_recording_caps_cut_the_trajectory(hq_ex_task):
    build = binary_builders(hq_ex_task)["oijn-outer1-fs"]
    uncapped = build(ObservabilityContext())
    uncapped.record()
    uncapped.run(UNLIMITED)
    full = uncapped.trajectory(UNCAPPED)
    caps = ((None, None, None), (None, None, 40))
    capped = build(ObservabilityContext())
    capped.record()
    capped.run(UNLIMITED, _budgets(caps))
    cut = capped.trajectory(caps)
    assert cut.end is None and 0 < len(cut.points) < len(full.points)
    # The cut run agrees with the uncapped one up to its first capped point.
    assert cut.points == full.points[: len(cut.points)]
    assert all(point.access[1][2] < 40 for point in cut.points)


def test_a_resumed_executor_does_not_record(hq_ex_task):
    executor = binary_builders(hq_ex_task)["oijn-outer1-fs"](
        ObservabilityContext()
    )
    executor.run(QualityRequirement(tau_good=10, tau_bad=10**6))
    with pytest.raises(RuntimeError):
        executor.record()


@pytest.fixture(scope="module")
def star3():
    from repro.experiments import build_multiway_testbed

    return build_multiway_testbed().scenario("star3")


def _nary_builder(scenario, executor_type, caps):
    def build(observability):
        environment = scenario.environment()
        environment.observability = observability
        names = scenario.graph.names
        sides = [
            MultiwaySide(
                database=environment.database(name),
                extractor=environment.extractor_at(name, 0.4),
                retriever=environment.retriever(name, FS if i == 0 else SC),
                costs=environment.side_costs(name),
                max_documents=caps[i][0],
            )
            for i, name in enumerate(names)
        ]
        return executor_type(sides, observability=observability)

    return build


@pytest.mark.parametrize(
    "executor_type", [MultiwayIndependentJoin, InterleavedNaryJoin]
)
def test_nary_trajectory_answers_like_a_live_run(star3, executor_type):
    recording_caps = ((200, None, None),) * 3
    recorder = _nary_builder(star3, executor_type, recording_caps)(
        ObservabilityContext()
    )
    recorder.record()
    recorder.run(UNLIMITED)
    trajectory = recorder.trajectory(recording_caps)
    assert len(trajectory.points) > 10
    rng = random.Random(executor_type.__name__)
    top = trajectory.points[-1].processed
    served = 0
    for requirement in _draws(trajectory, rng, 16):
        caps = tuple(
            (None if rng.random() < 0.5 else rng.randint(1, top[side] + 3), None, None)
            for side in range(3)
        )
        point = trajectory.stop_point(requirement, caps)
        if point is None:
            continue
        served += 1
        live = _nary_builder(star3, executor_type, caps)(ObservabilityContext())
        execution = live.run(requirement)
        report, work = trajectory.answer(point, requirement, None)
        assert report == execution.report
        assert work == live.work_counters()
    assert served >= 4, served


def test_keep_recorded_keeps_the_longest_under_threads():
    def trajectory(length):
        return Trajectory((None,) * length, None, lambda point: None)

    lengths = list(range(1, 41))
    random.Random(5).shuffle(lengths)
    trajectories: Dict[str, Trajectory] = {}
    observability = ObservabilityContext()
    threads = [
        threading.Thread(
            target=keep_recorded,
            args=(trajectories, "plan", trajectory(length), observability),
        )
        for length in lengths
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    # A lost compare-and-replace would leave a shorter run stored.
    assert len(trajectories["plan"]) == 40
    metrics = observability.metrics
    assert (
        metrics.value(OUTCOMES, outcome="extended")
        + metrics.value(OUTCOMES, outcome="live")
        == 40
    )


# -- service level --------------------------------------------------------------


@pytest.fixture(scope="module")
def warm_store(hq_ex_task, tmp_path_factory):
    """A store whose cold execute ran both pilot rounds: every later
    execute restores a converged pilot and takes the shared path."""
    root = tmp_path_factory.mktemp("trajectory") / "store"
    with JoinService(hq_ex_task, str(root), workers=1) as service:
        assert service.execute(JoinRequest(*COLD_REQUEST))["rounds"] == 2
    return root


def _copy(store, target) -> str:
    shutil.copytree(store, target)
    return str(target)


@pytest.fixture(scope="module")
def live_replies(hq_ex_task, warm_store, tmp_path_factory):
    """requirement -> the reply of a fresh service that ran it live."""
    root = tmp_path_factory.mktemp("live")
    replies = {}
    for index, requirement in enumerate(REQUIREMENTS):
        with JoinService(
            hq_ex_task, _copy(warm_store, root / str(index)), workers=1
        ) as service:
            reply = service.execute(JoinRequest(*requirement))
            assert service.metrics.value(OUTCOMES, outcome="served") == 0
        replies[requirement] = response_json(reply)
    return replies


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_served_replies_equal_fresh_live_replies(
    hq_ex_task, warm_store, live_replies, tmp_path, order
):
    requirements = sorted(REQUIREMENTS)
    if order == "descending":
        requirements.reverse()
    elif order == "shuffled":
        random.Random(11).shuffle(requirements)
    with JoinService(
        hq_ex_task, _copy(warm_store, tmp_path / "store"), workers=1
    ) as service:
        for requirement in requirements:
            reply = service.execute(JoinRequest(*requirement))
            assert response_json(reply) == live_replies[requirement], requirement
        metrics = service.metrics
        served = metrics.value(OUTCOMES, outcome="served")
        recorded = metrics.value(OUTCOMES, outcome="extended") + metrics.value(
            OUTCOMES, outcome="live"
        )
        (key,) = list(service.plan_cache._entries)
        trajectories = service.plan_cache.space_for(key).trajectories
    feasible = sum('"feasible":true' in live_replies[r] for r in requirements)
    assert served + recorded == feasible
    # Most feasible executes stop on a recorded run.
    assert served >= feasible // 3, (served, feasible)
    assert trajectories


def test_two_workers_extending_one_plan_match_live_replies(
    hq_ex_task, warm_store, live_replies, tmp_path
):
    replies = {r: live_replies[r] for r in REQUIREMENTS}
    plan = '"plan":"OIJN'
    one_plan = sorted(r for r, reply in replies.items() if plan in reply)
    assert len(one_plan) >= 10
    # Small and large targets interleaved, so both workers extend.
    order = [
        requirement
        for pair in zip(one_plan, reversed(one_plan))
        for requirement in pair
    ]
    with JoinService(
        hq_ex_task,
        _copy(warm_store, tmp_path / "store"),
        workers=2,
        queue_limit=2 * len(order),
    ) as service:
        futures = [service.submit(JoinRequest(*r)) for r in order]
        answers = [future.result(timeout=600) for future in futures]
        (key,) = list(service.plan_cache._entries)
        trajectories = service.plan_cache.space_for(key).trajectories
        assert service.metrics.value(OUTCOMES, outcome="extended") >= 2
        for requirement, answer in zip(order, answers):
            assert response_json(answer) == replies[requirement], requirement
        extended = service.metrics.value(OUTCOMES, outcome="extended")
        # Each plan kept its longest run: replayed serially, every request
        # is served or runs live no longer than what is stored.
        for requirement in order:
            answer = service.execute(JoinRequest(*requirement))
            assert response_json(answer) == replies[requirement], requirement
        assert service.metrics.value(OUTCOMES, outcome="extended") == extended
        assert all(trajectory.points for trajectory in trajectories.values())


def _star3_request(requirement, scenario):
    good, bad = requirement
    return JoinRequest(good, bad, graph=scenario.graph)


def test_star3_served_replies_equal_fresh_live_replies(
    hq_ex_task, star3, tmp_path
):
    live = {}
    for index, requirement in enumerate(MULTIWAY_GRID):
        with JoinService(
            hq_ex_task, str(tmp_path / f"live-{index}"), workers=1, multiway=star3
        ) as service:
            reply = service.execute(_star3_request(requirement, star3))
            assert service.metrics.value(OUTCOMES, outcome="served") == 0
        live[requirement] = response_json(reply)
    requirements = list(MULTIWAY_GRID)
    random.Random(3).shuffle(requirements)
    with JoinService(
        hq_ex_task, str(tmp_path / "served"), workers=1, multiway=star3
    ) as service:
        for requirement in requirements + requirements[::-1]:
            reply = service.execute(_star3_request(requirement, star3))
            assert response_json(reply) == live[requirement], requirement
        served = service.metrics.value(OUTCOMES, outcome="served")
    # Every repeat is served, and so are most first executes.
    assert served >= len(MULTIWAY_GRID) + len(MULTIWAY_GRID) // 2, served


def test_an_injecting_fault_profile_records_nothing(
    hq_ex_task, star3, warm_store, tmp_path
):
    with JoinService(
        hq_ex_task,
        _copy(warm_store, tmp_path / "store"),
        workers=1,
        multiway=star3,
        fault_profile=FaultProfile(transient=0.05, seed=3),
    ) as service:
        for requirement in ((40, 10**6), (40, 10**6), (20, 60)):
            service.execute(JoinRequest(*requirement))
        service.execute(_star3_request((40, 250), star3))
        spaces = [
            service.plan_cache.space_for(key)
            for key in list(service.plan_cache._entries)
        ]
        assert spaces
        assert all(not space.trajectories for space in spaces)
        for outcome in ("served", "extended", "live"):
            assert service.metrics.value(OUTCOMES, outcome=outcome) == 0
