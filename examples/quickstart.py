"""Quickstart: optimize and execute a quality-aware join in ~30 lines.

Builds the canonical testbed (synthetic corpora standing in for the
paper's NYT95/NYT96/WSJ collections, Snowball-style extractors for
HQ⟨Company, Location⟩ and EX⟨Company, CEO⟩), asks the optimizer for the
fastest plan that delivers at least 50 good join tuples with at most
1,000 bad ones, and runs the chosen plan.

Run:  python examples/quickstart.py
"""

import itertools

from repro.core import QualityRequirement
from repro.experiments import TestbedConfig, build_testbed
from repro.optimizer import JoinOptimizer, bind_plan, enumerate_plans

# 1. A ready-made world: databases, trained extractors, trained retrieval
#    strategies, and ground-truth statistics for evaluation.
testbed = build_testbed(TestbedConfig(scale=0.6))
task = testbed.task()  # HQ ⋈ EX, as in the paper
print(f"Task: {task.name}  (D1={task.database1.name} with "
      f"{len(task.database1)} docs, D2={task.database2.name} with "
      f"{len(task.database2)} docs)")

# 2. State the quality contract: >= 50 good join tuples, <= 1000 bad ones.
requirement = QualityRequirement(tau_good=50, tau_bad=1000)

# 3. Enumerate the plan space (join algorithm x retrieval strategies x
#    extractor knobs) and pick the fastest plan predicted to meet it.
plans = enumerate_plans(task.extractor1.name, task.extractor2.name)
optimizer = JoinOptimizer(
    task.catalog(), costs=task.costs, feasibility_margin=0.25
)
result = optimizer.optimize(plans, requirement)
chosen = result.chosen
pruned = sum(1 for e in result.evaluations if e.pruned)
print(f"\nCandidate plans: {len(plans)}; predicted-feasible: "
      f"{len(result.feasible)}; pruned without full evaluation: {pruned}")
print(f"Chosen plan:     {chosen.plan.describe()}")
print(f"Predicted:       {chosen.prediction.n_good:.0f} good / "
      f"{chosen.prediction.n_bad:.0f} bad in "
      f"{chosen.prediction.total_time:.0f}s (simulated)")

# 4. Bind the plan to live databases/extractors and execute it.
executor = bind_plan(
    task.environment(chosen.plan.extractor1.theta, chosen.plan.extractor2.theta),
    chosen.plan,
)
execution = executor.run(requirement=requirement)
report = execution.report
print(f"\nActual:          {report.summary()}")
print(f"Requirement met: {report.check(requirement)}")

# 5. Inspect some join results.  The join state keeps counts; it builds
#    result tuples (one part per relation) only when asked.
print("\nSample join tuples (Headquarters x Executives):")
for joined in itertools.islice(execution.state.iter_results(), 5):
    hq, ex = joined.parts
    label = "good" if joined.is_good else "BAD"
    print(f"  {hq.values} x {ex.values}  [{label}]")
