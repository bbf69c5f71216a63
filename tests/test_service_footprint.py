"""The service's memory footprint: its import graph and its heap.

* the service, the testbed and the CLI never import ``scipy.stats``,
  ``scipy.optimize`` or ``scipy.signal`` (about 46 MB and 0.9 s);
* boot ends by freezing the heap it built and ``close`` unfreezes it;
* a plan space the cache retires is freed by reference counting alone.
"""

import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

from repro.core.preferences import QualityRequirement
from repro.optimizer.enumerator import enumerate_plans
from repro.optimizer.optimizer import JoinOptimizer
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
