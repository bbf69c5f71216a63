"""Chain join across three relations with *different* join attributes.

Beyond both the paper (binary joins) and the star extension (one shared
attribute): an analyst asks "for every recent merger, where does the
acquirer's CEO live?" — a chain

    MG⟨Company, MergedWith⟩ ⋈ EX⟨Company, CEO⟩ on Company
                            ⋈ RES⟨CEO, City⟩   on CEO

The example builds a world where RES's CEO domain chains off EX's CEO
pool, extracts all three relations from separate corpora, and counts the
chain composition with the incremental :class:`~repro.multiway.TreeJoinState`
— including the composition from per-relation key factors by the
planner model's tree DP, the chain analogue of the paper's Equation 1.

Run:  python examples/chain_join.py
"""

from repro.core import RelationSchema
from repro.extraction import SnowballExtractor
from repro.multiway import TreeEdge, TreeJoinState
from repro.planner import JoinGraph, RelationNode, compose_factors
from repro.textdb import (
    CorpusConfig,
    HostedRelation,
    RelationSpec,
    World,
    WorldConfig,
    generate_corpus,
    pattern_tokens,
)

# -- a chainable world ---------------------------------------------------------

mg = RelationSpec(
    RelationSchema("MG", ("Company", "MergedWith")),
    secondary_prefix="target",
    n_true_facts=90, n_false_facts=60, n_secondary=140,
)
ex = RelationSpec(
    RelationSchema("EX", ("Company", "CEO")),
    secondary_prefix="person",
    n_true_facts=90, n_false_facts=60, n_secondary=120,
)
res = RelationSpec(
    RelationSchema("RES", ("CEO", "City")),
    secondary_prefix="city",
    n_true_facts=90, n_false_facts=60, n_secondary=140,
    primary_pool="EX",  # RES's CEOs come from EX's CEO pool
)
world = World(WorldConfig(seed=17, n_companies=120, relations=(mg, ex, res)))

databases = []
extractors = []
for i, relation in enumerate(("MG", "EX", "RES")):
    database = generate_corpus(
        world,
        CorpusConfig(
            name=f"db-{relation.lower()}",
            seed=40 + i,
            hosted=(HostedRelation(relation, n_good_docs=160, n_bad_docs=60),),
            n_empty_docs=180,
            max_results=30,
        ),
    )
    databases.append(database)
    extractors.append(
        SnowballExtractor(
            world.schemas[relation],
            world.entity_dictionary(relation),
            pattern_tokens(relation),
            theta=0.4,
        )
    )

print("Chain: MG ⋈ EX on Company, EX ⋈ RES on CEO")
for relation, database in zip(("MG", "EX", "RES"), databases):
    print(f"  {relation:<4} from {database.name} ({len(database)} documents)")

# -- extract and join ------------------------------------------------------------

schemas = [world.schemas["MG"], world.schemas["EX"], world.schemas["RES"]]
state = TreeJoinState(
    schemas,
    [TreeEdge(0, "Company", 1, "Company"), TreeEdge(1, "CEO", 2, "CEO")],
)
for side, (database, extractor) in enumerate(zip(databases, extractors), 1):
    for document in database.documents:
        state.add(side, extractor.extract(document))

composition = state.composition
print(f"\nChain composition: {composition.n_good} good / "
      f"{composition.n_bad} bad results")
assert composition == state.verify_composition()  # counters are exact

# The planner model's tree DP over the exact per-relation key counts
# collapses to the same numbers — with *model* factors it becomes a
# prediction.
graph = JoinGraph.chain(
    [RelationNode(name=s.name, attributes=s.attributes) for s in schemas],
    [("Company", "Company"), ("CEO", "CEO")],
)
expected_total, expected_good = compose_factors(
    graph,
    frozenset(graph.names),
    lambda name, _: state.key_factors(graph.names.index(name) + 1),
)
print(f"DP on expected factors: {expected_good:.0f} good / "
      f"{expected_total - expected_good:.0f} bad (matches, as factors are exact)")

print("\nSample answers (Company, MergedWith, CEO, City):")
for i, result in enumerate(state.iter_results()):
    if i >= 5:
        break
    merger, executive, residence = result.parts
    values = merger.values + (executive.values[1], residence.values[1])
    flag = "good" if result.is_good else "BAD"
    print(f"  {values}  [{flag}]")
