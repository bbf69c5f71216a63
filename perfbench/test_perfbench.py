"""Fast tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import inspect
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import golden  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from hostscale import HostScale  # noqa: E402
from workloads import WORKLOADS, Request  # noqa: E402

#: requests sent per workload by the tiny end-to-end tests
TINY = 6


class FakeCpuClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# -- host-speed scaling ------------------------------------------------------


def test_scaling_arithmetic_against_a_fake_clock():
    clock = FakeCpuClock()
    costs = iter([0.002, 0.004, 0.003, 0.001, 0.005])

    def kernel():
        clock.now += next(costs)

    scale = HostScale(kernel=kernel, cpu_clock=clock, reference_s=0.001)
    before, after = scale.sample(), scale.sample()
    assert (before, after) == pytest.approx((0.002, 0.004))
    # local kernel time is the bracket's mean (3 ms) against 1 ms reference
    assert scale.factor(before, after) == pytest.approx(1 / 3)
    assert scale.scaled(0.120, before, after) == pytest.approx(0.040)
    assert scale.sample_median(3) == pytest.approx(0.003)
    assert scale.median_ms() == pytest.approx(3.0)
    with pytest.raises(ValueError):
        scale.factor(0.0, 0.0)


def test_tail_point_keeps_ten_samples_beyond_it():
    values = [float(v) for v in range(1, 101)]
    value, percentile, count = harness.tail_point(values)
    assert (value, percentile, count) == (90.0, 90.0, 100)
    assert sum(1 for v in values if v > value) == 10
    assert harness.tail_point([3.0, 1.0, 2.0])[0] == 3.0


# -- workloads ---------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_sequences_are_seeded_permutations_of_one_multiset(name):
    workload = WORKLOADS[name]
    first = workload.sequence(1, 10)
    assert first == workload.sequence(1, 10)
    other = workload.sequence(2, 10)
    assert first != other
    assert Counter(first) == Counter(other)
    assert {r.key for r in first} == {r.key for r in workload.grid_requests()}


def test_multiway_plans_each_requirement_before_executing_it():
    sequence = WORKLOADS["multiway_mix"].sequence(3, 10)
    planned = set()
    for request in sequence:
        requirement = (request.tau_good, request.tau_bad)
        if request.mode == "plan":
            assert requirement not in planned
            planned.add(requirement)
        else:
            assert requirement in planned
    assert planned == set(WORKLOADS["multiway_mix"].grid)


# -- golden answers ----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_golden_entries_cover_the_grid_and_pass_the_invariants(name):
    answers = golden.load(name)
    requests = WORKLOADS[name].grid_requests()
    assert sorted(answers) == sorted(r.key for r in requests)
    for request in requests:
        assert golden.invariant_errors(request, answers[request.key]) == []


def test_a_doctored_reply_fails_the_golden_check():
    answers = golden.load("execute_warm")
    request = next(
        r
        for r in WORKLOADS["execute_warm"].grid_requests()
        if answers[r.key]["plan"] is not None
    )
    reply = dict(answers[request.key])
    assert golden.check(answers, request, reply) == []
    doctored = dict(reply, good=reply["good"] + 1)
    assert golden.check(answers, request, doctored)
    # flipping the satisfied flag breaks the invariant even without golden
    flipped = dict(reply, satisfied=not reply["satisfied"])
    assert golden.invariant_errors(request, flipped)
    assert golden.check(answers, request, None) == ["no reply"]
    unknown = Request(request.tau_good + 1, request.tau_bad, "execute")
    assert golden.check(answers, unknown, dict(reply, tau_good=unknown.tau_good))


# -- end to end, at a tiny request count ---------------------------------------


def entry_point_snapshot():
    """Identity of every attribute the tracer may replace."""
    snapshot = {}
    targets = [(m, p) for _, m, p in layers.SPANNED + layers.COUNTED]
    targets += [
        (m, p) for m in layers.MODEL_MODULES for p in layers.public_entry_points(m)
    ]
    for module_name, path in targets:
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, attr = path.split(".")
            cls = getattr(module, class_name)
            snapshot[f"{module_name}:{path}"] = inspect.getattr_static(cls, attr)
        else:
            snapshot[f"{module_name}:{path}"] = getattr(module, path)
    for name, loaded in list(sys.modules.items()):
        if name.startswith("repro"):
            for attr, value in list(vars(loaded).items()):
                if callable(value):
                    snapshot[f"{name}:{attr}"] = value
    return snapshot


@pytest.fixture(scope="module")
def repro():
    return run.import_program()


@pytest.fixture
def scratch(tmp_path):
    return tmp_path / "store"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_each_workload_answers_correctly_at_a_tiny_count(name, repro, scratch):
    workload = WORKLOADS[name]
    rig = harness.Rig(workload, scratch, repro)
    scale = HostScale()
    try:
        for step in rig.steps():
            step()
        samples = harness.drive(rig, workload.sequence(7, 10)[:TINY], scale)
    finally:
        rig.close()
    answers = golden.load(name)
    assert run.judge(samples, answers) == TINY
    metrics = harness.end_to_end(samples, TINY, setup_s=1.0)
    assert metrics["correct_ratio"] == 1.0
    assert metrics["answered_ratio"] == 1.0
    assert metrics["latency_p50_ms"] > 0 and metrics["throughput_per_s"] > 0


def test_traced_run_restores_every_wrapped_attribute(repro, scratch, capsys):
    workload = WORKLOADS["execute_warm"]
    before = entry_point_snapshot()
    rig = harness.Rig(workload, scratch, repro)
    try:
        outcome = run.traced(
            rig,
            workload.sequence(1, 10)[:TINY],
            HostScale(),
            golden.load(workload.name),
        )
    finally:
        rig.close()
    after = entry_point_snapshot()
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []
    assert outcome["correct"]
    metrics = {k: v["value"] for k, v in outcome["metrics"].items()}
    assert set(metrics) == set(run.LAYER_UNITS)
    assert metrics["service.self_ms"] >= 0.0
    assert metrics["optimizer.ms"] > 0 and metrics["models.kernel_calls"] > 0
    assert "dominant layer:" in capsys.readouterr().out


def span(layer, start, end, parent=None):
    made = layers.Span(layer, start, parent, end)
    if parent is not None:
        parent.child_s += made.duration
    return made


def overfull_parent():
    parent = span("planner", 1.0, 1.5)
    return [span("optimizer", 1.0, 2.0, parent), parent]


def test_partition_splits_request_time_into_self_times():
    optimizer = span("optimizer", 1.0, 5.0)
    models = span("models", 2.0, 4.0, optimizer)
    store = span("store.read", 6.0, 7.0)
    split, uncovered = harness.partition([models, optimizer, store], 0.0, 10.0)
    assert split == {"optimizer": (2.0, 1), "models": (2.0, 1), "store.read": (1.0, 1)}
    assert uncovered == pytest.approx(5.0)


@pytest.mark.parametrize(
    "spans",
    [
        # two root spans at once: their time would be counted twice
        [span("store.read", 1.0, 5.0), span("extraction", 4.0, 6.0)],
        # a root span that started before the request
        [span("store.write", -1.0, 2.0)],
        # children that cover more than their parent
        overfull_parent(),
    ],
)
def test_partition_refuses_spans_that_do_not_partition_the_request(spans):
    with pytest.raises(harness.AccountingError):
        harness.partition(spans, 0.0, 10.0)


def test_untraced_run_installs_no_wrapper(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("an untraced run installed the layer tracer")

    monkeypatch.setattr(layers.LayerTracer, "install", refuse)
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)
    before = entry_point_snapshot()
    assert run.main(
        ["--workload", "execute_warm", "--seed", "4", "--seconds", "1", "--trace", "0"]
    ) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    outcome = json.loads(last)
    assert set(outcome) == {"correct", "attempted", "failed", "metrics"}
    assert outcome["correct"] and outcome["failed"] == 0
    assert set(outcome["metrics"]) == set(run.END_TO_END_UNITS)
    after = entry_point_snapshot()
    assert all(before[key] is after[key] for key in before)


def test_fails_without_a_program(tmp_path):
    """Given only the benchmark's own files, it exits non-zero, printing no result."""
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for path in HERE.glob("*.py"):
        (copy / path.name).write_bytes(path.read_bytes())
    (copy / "golden").mkdir()
    for path in (HERE / "golden").glob("*.json"):
        (copy / "golden" / path.name).write_bytes(path.read_bytes())
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "execute_warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
