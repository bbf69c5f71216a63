"""The service's memory footprint: its import graph and its heap.

* the service, the testbed and the CLI never import ``scipy.stats``,
  ``scipy.optimize`` or ``scipy.signal`` (about 46 MB and 0.9 s);
* boot ends by freezing the heap it built, and the last live service's
  ``close`` unfreezes it;
* a plan space the cache retires, a dropped statistics catalog and a
  dropped planner catalog are freed by reference counting alone.
"""

import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

from repro.core.plan import RetrievalKind
from repro.core.preferences import QualityRequirement
from repro.experiments import build_multiway_testbed
from repro.models.kernels import composition_kernel, side_kernel
from repro.models.oijn_model import OIJNModel
from repro.models.parameters import JoinStatistics
from repro.optimizer.enumerator import enumerate_plans
from repro.optimizer.optimizer import JoinOptimizer
from repro.planner.planner import MultiwayPlanner
from repro.service import JoinRequest, JoinService
from repro.service.plancache import BinaryPlanSpace, PlanCache, PlanCacheKey

SRC = Path(__file__).resolve().parents[1] / "src"

#: scipy subpackages the program must not load
HEAVY = ("scipy.stats", "scipy.optimize", "scipy.signal")

GUARD = """
import json, sys, tempfile
import repro.cli
import repro.experiments.testbed as testbed
import repro.service.service as service

task = testbed.build_testbed(testbed.TestbedConfig(scale=0.3)).task()
with tempfile.TemporaryDirectory() as root:
    with service.JoinService(task, root, workers=1) as running:
        reply = running.execute(service.JoinRequest(tau_good=20, tau_bad=40))
print(json.dumps({
    "loaded": sorted(m for m in sys.modules if m.split(".")[:2] in %r),
    "pilot": reply["pilot_fresh_documents"],
}))
""" % ([name.split(".") for name in HEAVY],)


def test_service_never_imports_heavy_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", GUARD],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["pilot"] > 0  # the execute really ran cold
    assert report["loaded"] == []


def test_boot_freezes_and_close_unfreezes(hq_ex_task, tmp_path):
    service = JoinService(hq_ex_task, str(tmp_path / "store"), workers=1)
    try:
        assert gc.get_freeze_count() > 0
    finally:
        service.close()
    assert gc.get_freeze_count() == 0


def test_only_the_last_close_unfreezes(hq_ex_task, tmp_path):
    first = JoinService(hq_ex_task, str(tmp_path / "first"), workers=1)
    second = JoinService(hq_ex_task, str(tmp_path / "second"), workers=1)
    try:
        first.close()
        # the second service still runs on the frozen boot heap
        assert gc.get_freeze_count() > 0
        first.close()  # a repeated close releases nothing
        assert gc.get_freeze_count() > 0
    finally:
        first.close()
        second.close()
    assert gc.get_freeze_count() == 0


def _without_collector(body):
    enabled = gc.isenabled()
    gc.disable()
    try:
        body()
    finally:
        if enabled:
            gc.enable()


def test_dropped_catalog_dies_by_refcount(hq_ex_task):
    plans = enumerate_plans(hq_ex_task.extractor1.name, hq_ex_task.extractor2.name)
    requirement = QualityRequirement(tau_good=20, tau_bad=40)

    def body():
        catalog = hq_ex_task.catalog()
        JoinOptimizer(catalog, costs=hq_ex_task.costs).optimize(plans, requirement)
        sides = list(catalog._side_cache.values())
        # the optimizer attached kernels and retrieval models to the sides
        assert sides and all(vars(side).get("_kernel") for side in sides)
        assert all(vars(side).get("_retrieval_cache") for side in sides)
        refs = [weakref.ref(catalog)]
        refs += [weakref.ref(side) for side in sides]
        refs += [weakref.ref(side._kernel) for side in sides]
        del catalog, sides
        assert [ref() for ref in refs] == [None] * len(refs)

    _without_collector(body)


def test_self_join_kernel_dies_by_refcount(hq_ex_task):
    def body():
        side = hq_ex_task.catalog().at(0.4, 0.4).side1
        composition_kernel(side, side)
        kernel = weakref.ref(side_kernel(side))
        del side
        assert kernel() is None

    _without_collector(body)


def test_self_join_oijn_side_dies_by_refcount(hq_ex_task):
    def body():
        side = hq_ex_task.catalog().at(0.4, 0.4).side1
        statistics = JoinStatistics(side1=side, side2=side)
        vectors = []
        for per_value in (True, False):
            model = OIJNModel(
                statistics, RetrievalKind.SCAN, outer=1, per_value=per_value
            )
            model.predict(0.5 * model.max_effort)
            vectors.append(weakref.ref(model._vec()))
        # the side holds its OIJN vectors, which do not hold it back
        assert len(vars(side)["_oijn_vectors"]) == 2
        refs = [weakref.ref(side), *vectors]
        del side, statistics, model
        assert [ref() for ref in refs] == [None] * len(refs)

    _without_collector(body)


def test_dropped_planner_catalog_dies_by_refcount():
    scenario = build_multiway_testbed().scenario("star3")

    def body():
        catalog = scenario.catalog()
        planner = MultiwayPlanner(scenario.graph, catalog)
        assert planner.optimize(QualityRequirement(40, 250)).chosen is not None
        sides = list(catalog._sides.values())
        assert sides and all(vars(side).get("_retrieval_cache") for side in sides)
        refs = [weakref.ref(catalog), weakref.ref(planner)]
        refs += [weakref.ref(side) for side in sides]
        del catalog, planner, sides
        assert [ref() for ref in refs] == [None] * len(refs)

    _without_collector(body)


def test_retired_binary_space_dies_by_refcount(hq_ex_task):
    plans = enumerate_plans(hq_ex_task.extractor1.name, hq_ex_task.extractor2.name)
    catalog = hq_ex_task.catalog()
    cache = PlanCache()
    requirement = QualityRequirement(tau_good=20, tau_bad=40)
    built = []

    def factory():
        optimizer = JoinOptimizer(catalog, costs=hq_ex_task.costs)
        built.append(weakref.ref(optimizer))
        return BinaryPlanSpace(optimizer, plans)

    enabled = gc.isenabled()
    gc.disable()
    try:
        key = PlanCacheKey.of("sig", 1)
        space, result, _ = cache.optimize(key, requirement, factory)
        # the drift-telemetry curves are the engine's, which points back
        cache.curve_points(key, result.chosen.plan, factory)
        del space, result
        assert built[0]() is not None
        cache.optimize(PlanCacheKey.of("sig", 2), requirement, factory)
        assert len(built) == 2
        assert built[0]() is None
    finally:
        if enabled:
            gc.enable()
