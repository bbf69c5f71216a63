"""Beyond the paper: a three-way join HQ ⋈ EX ⋈ MG ("company dossiers").

The paper restricts itself to binary joins and leaves higher-order joins
as future work (Section III-C).  This example runs the library's n-way
extension on the seeded ``star3`` scenario: full company dossiers —
headquarters location, CEO, and merger partner — assembled from three
extracted relations hosted on three different corpora, with the quality
contract enforced by the same estimate-driven stopping machinery.

Run:  python examples/three_way_join.py
"""

from repro.core import QualityRequirement, RetrievalKind
from repro.experiments import build_multiway_testbed
from repro.multiway import MultiwayIndependentJoin, MultiwaySide
from repro.planner.model import GraphCompositionModel
from repro.planner.plan import RelationConfig
from repro.retrieval import ScanRetriever

THETA = 0.4

scenario = build_multiway_testbed().scenario("star3")
graph = scenario.graph
environment = scenario.environment()
print("Three-way star join on Company:")
for name in graph.names:
    _, db_name = scenario.bindings[name]
    print(
        f"  {name:<3} from {db_name:<6} "
        f"({len(environment.database(name))} documents)"
    )

# Analytical model: predict the composition before running anything.
model = GraphCompositionModel(graph, scenario.catalog())
configs = {
    name: RelationConfig(name=name, theta=THETA, retrieval=RetrievalKind.SCAN)
    for name in graph.names
}
full_efforts = model.balanced_efforts(configs, 1.0)
total, good = model.compose(configs, full_efforts)
time = model.side_time(configs, full_efforts)
print(f"\nModel prediction at full coverage: "
      f"{good:.0f} good / {total - good:.0f} bad dossiers, {time.total:.0f}s")

# Operating point for a modest contract, via the balanced-effort search.
requirement = QualityRequirement(tau_good=25, tau_bad=10**6)
fraction = model.balanced_effort_fraction(configs, requirement.tau_good * 1.3)
print(f"Balanced effort fraction for tau_g={requirement.tau_good}: "
      f"{fraction:.2f}")

# Execute.
sides = [
    MultiwaySide(
        environment.database(name),
        environment.extractor_at(name, THETA),
        ScanRetriever(environment.database(name)),
    )
    for name in graph.names
]
execution = MultiwayIndependentJoin(sides).run(requirement)
report = execution.report
comp = execution.state.composition
print(f"\nExecution: {comp.n_good} good / {comp.n_bad} bad dossiers in "
      f"{report.time.total:.0f}s "
      f"(docs processed: {dict(report.documents_processed)})")

print("\nSample dossiers (Company, Location, CEO, MergedWith):")
for shown, dossier in enumerate(execution.state.iter_results()):
    if shown >= 5:
        break
    # Company leads every schema; each part adds its other attribute.
    hq, ex, mg = dossier.parts
    values = (hq.values[0], hq.values[1], ex.values[1], mg.values[1])
    flag = "good" if dossier.is_good else "BAD"
    print(f"  {values}  [{flag}]")
