"""Golden plan-mode replies: the service's plan answers, byte for byte.

Covers binary plan mode over a requirement grid on a store warmed by one
cold execute, star3 plan mode over a grid (fresh plans, then the same
requests on a service restarted over that store, answered
``warm_planned`` from the journal), and one degraded reply of each kind.
Every reply is compared as canonical ``response_json`` text against
``tests/plan_golden.json``.  A second restart answers the binary grid
from the same journal, each reply the golden one plus ``warm_planned``.

The golden file is regenerated (only when a change is *meant* to alter
plan answers) with::

    PYTHONPATH=src python tests/test_plan_golden.py
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile
from typing import Dict

import pytest

from repro.service import AdmissionController, JoinRequest, JoinService
from repro.service.admission import DEGRADE, AdmissionDecision
from repro.service.service import response_json

GOLDEN = pathlib.Path(__file__).with_name("plan_golden.json")

#: the same (τg, τb) grids perfbench's execute_warm and multiway_mix use
BINARY_GRID = tuple(
    (good, bad)
    for good in (10, 20, 40, 80, 150, 300, 600)
    for bad in (15, 60, 10**6)
)
MULTIWAY_GRID = tuple(
    (good, bad)
    for good in (10, 20, 30, 40, 50, 60)
    for bad in (60, 120, 250, 1000)
)
COLD_REQUEST = (40, 10**6)
DEGRADED_BINARY = (80, 60)
DEGRADED_MULTIWAY = (40, 250)


class _AlwaysDegrade(AdmissionController):
    """Answers every submitted request degraded, whatever the load."""

    def decide(self, mode, priority, depth, warm_available, plan_cached):
        return AdmissionDecision(DEGRADE, reason="backlog", depth=depth)


def plan_replies(task, scenario, root: str) -> Dict[str, str]:
    """Every golden reply, keyed by kind, phase and requirement."""
    replies: Dict[str, str] = {}

    def service():
        return JoinService(
            task,
            root,
            workers=1,
            admission=_AlwaysDegrade(8),
            multiway=scenario,
        )

    with service() as first:
        first.execute(JoinRequest(*COLD_REQUEST))
        for good, bad in BINARY_GRID:
            reply = first.execute(JoinRequest(good, bad, mode="plan"))
            replies[f"binary:plan:{good}:{bad}"] = response_json(reply)
        for good, bad in MULTIWAY_GRID:
            reply = first.execute(
                JoinRequest(good, bad, mode="plan", graph=scenario.graph)
            )
            replies[f"star3:plan:{good}:{bad}"] = response_json(reply)
        degraded = first.submit(JoinRequest(*DEGRADED_BINARY)).result()
        replies["binary:degraded:%d:%d" % DEGRADED_BINARY] = response_json(
            degraded
        )
        degraded = first.submit(
            JoinRequest(*DEGRADED_MULTIWAY, graph=scenario.graph)
        ).result()
        replies["star3:degraded:%d:%d" % DEGRADED_MULTIWAY] = response_json(
            degraded
        )
    with service() as restarted:
        for good, bad in MULTIWAY_GRID:
            reply = restarted.execute(
                JoinRequest(good, bad, mode="plan", graph=scenario.graph)
            )
            replies[f"star3:restarted:{good}:{bad}"] = response_json(reply)
    return replies


@pytest.fixture(scope="module")
def golden_run(hq_ex_task, tmp_path_factory):
    """(the golden replies, the store they left behind)."""
    from repro.experiments import build_multiway_testbed

    scenario = build_multiway_testbed().scenario("star3")
    root = str(tmp_path_factory.mktemp("plan-golden") / "store")
    return plan_replies(hq_ex_task, scenario, root), root


def test_plan_replies_match_the_golden_file(golden_run):
    expected = json.loads(GOLDEN.read_text())
    actual, _ = golden_run
    assert sorted(actual) == sorted(expected)
    for key, reply in expected.items():
        assert actual[key] == reply, key
    restarted = [
        json.loads(reply)
        for key, reply in actual.items()
        if key.startswith("star3:restarted:")
    ]
    assert len(restarted) == len(MULTIWAY_GRID)
    assert all(reply["warm_planned"] is True for reply in restarted)


def test_restarted_service_answers_binary_plans_from_the_journal(
    hq_ex_task, golden_run
):
    replies, root = golden_run
    with JoinService(hq_ex_task, root, workers=1) as restarted:
        for good, bad in BINARY_GRID:
            reply = restarted.execute(JoinRequest(good, bad, mode="plan"))
            first = json.loads(replies[f"binary:plan:{good}:{bad}"])
            assert reply == {**first, "warm_planned": True}, (good, bad)
        assert restarted.plan_cache.stats()["misses"] == 0


def main() -> None:
    from repro.experiments import (
        TestbedConfig,
        build_multiway_testbed,
        build_testbed,
    )

    task = build_testbed(TestbedConfig(scale=0.6)).task()
    scenario = build_multiway_testbed().scenario("star3")
    with tempfile.TemporaryDirectory() as root:
        replies = plan_replies(task, scenario, root)
    GOLDEN.write_text(json.dumps(replies, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(replies)} replies to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
