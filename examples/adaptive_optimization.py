"""End-to-end adaptive optimization: no ground-truth labels anywhere.

The paper's Section VI pipeline: run a short scan pilot, estimate the
database statistics by MLE from the observed sample frequencies and
extractor confidences, derive the join-overlap classes, evaluate every
candidate plan over the *estimated* statistics, cross-validate the choice,
then execute the chosen plan with an estimate-driven stopping condition.

Everything the estimator consumes is observable in a real deployment:
sample frequencies, extraction confidences, training-corpus profiles, and
target hit counts.  Ground truth appears only in the final scoring lines.

Run:  python examples/adaptive_optimization.py
"""

from repro.core import QualityRequirement
from repro.experiments import TestbedConfig, build_testbed
from repro.optimizer import AdaptiveJoinExecutor, enumerate_plans

testbed = build_testbed(TestbedConfig(scale=0.6))
task = testbed.task()

requirement = QualityRequirement(tau_good=80, tau_bad=2000)
print(f"Requirement: >= {requirement.tau_good} good join tuples, "
      f"<= {requirement.tau_bad} bad ones\n")

adaptive = AdaptiveJoinExecutor(
    environment=task.environment(),
    characterization1=task.characterization1,
    characterization2=task.characterization2,
    plans=enumerate_plans(task.extractor1.name, task.extractor2.name),
    pilot_documents=100,
    classifier_profile1=task.offline_classifier_profile1,
    classifier_profile2=task.offline_classifier_profile2,
    query_stats1=task.offline_query_stats1,
    query_stats2=task.offline_query_stats2,
    # The execution stops on *estimated* quality; posterior estimates run
    # ~10-20% optimistic on precision, so overprovision the good-tuple
    # target accordingly (see EXPERIMENTS.md, "estimation calibration").
    feasibility_margin=0.35,
)
result = adaptive.run(requirement)

estimate1, estimate2 = result.estimates
print("Estimated database statistics (vs ground truth):")
for estimate, profile in (
    (estimate1, task.profile1),
    (estimate2, task.profile2),
):
    parameters = estimate.parameters
    print(
        f"  {parameters.relation}: "
        f"|Ag|~{parameters.n_good_values:.0f} (true {len(profile.good_values)}), "
        f"|Ab|~{parameters.n_bad_values:.0f} (true {len(profile.bad_values)}), "
        f"|Dg|~{parameters.n_good_docs:.0f} (true {profile.n_good_docs})"
    )

print(f"\nPilot rounds (cross-validation): {result.rounds}")
print(f"Chosen plan: {result.chosen.plan.describe()}")

report = result.report
print(f"\nExecution:   {report.summary()}")
print(f"Requirement actually met: {report.check(requirement)}")
print(f"Total simulated time (pilot + execution): {result.total_time:.0f}s")
