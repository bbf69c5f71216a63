"""The canonical experiment testbed (Section VII setup).

Reconstructs the paper's setting at laptop scale:

* three extraction tasks — EX⟨Company, CEO⟩, HQ⟨Company, Location⟩, and
  MG⟨Company, MergedWith⟩ — over a shared company universe;
* a **training database** (the paper trains on NYT96) used to bootstrap
  Snowball patterns, train the FS classifier and AQG queries, and measure
  tp(θ)/fp(θ) knob curves and confidence references;
* separate **evaluation databases** standing in for the paper's NYT96 /
  NYT95 / WSJ subsets, hosting HQ, EX, and MG+EX respectively;
* the default join task HQ ⋈ EX, with HQ extracted from "nyt96" and EX
  from "nyt95", exactly as in the paper's discussion.

Everything derives from one seed.  ``build_testbed`` is memoized per
configuration so tests, benchmarks, and examples share a single build.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from ..core.types import RelationSchema
from ..extraction.characterization import KnobCharacterization, characterize
from ..extraction.snowball import SnowballExtractor
from ..extraction.training import learn_pattern_terms
from ..joins.base import JoinInputs
from ..joins.costs import CostModel
from ..optimizer.binder import ExecutionEnvironment
from ..optimizer.catalog import StatisticsCatalog
from ..retrieval.aqg import (
    LearnedQuery,
    learn_queries,
    measure_learned_queries,
    offline_query_stats,
)
from ..retrieval.classifier import ClassifierProfile, RuleClassifier
from ..retrieval.queries import Query, QueryStats
from ..textdb.corpus import CorpusConfig, HostedRelation, generate_corpus
from ..textdb.database import TextDatabase
from ..textdb.stats import DatabaseProfile, profile_database
from ..textdb.world import RelationSpec, World, WorldConfig

#: θ grid used for knob characterization throughout the experiments.
CHARACTERIZATION_THETAS: Tuple[float, ...] = (
    0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
)


@dataclass(frozen=True)
class TestbedConfig:
    """Scale and seeding of the canonical testbed.

    ``scale=1.0`` gives databases of roughly a thousand documents each —
    the paper's corpora shrunk ~50× to keep full experiment sweeps in
    seconds.  All counts grow linearly with ``scale``.
    """

    seed: int = 11
    scale: float = 1.0
    n_companies: int = 250
    max_results: int = 30
    n_seed_queries: int = 3
    aqg_queries: int = 15
    #: Popularity/salience skew.  Softer than pure Zipf(1.0) so that a
    #: handful of head entities cannot satisfy low quality targets through
    #: blind independent sampling alone.
    company_zipf: float = 0.8
    fact_zipf: float = 0.9

    def scaled(self, count: int) -> int:
        return max(1, int(round(count * self.scale)))


@dataclass
class JoinTask:
    """One bound join task: databases, extractors, trained artifacts."""

    name: str
    relation1: str
    relation2: str
    database1: TextDatabase
    database2: TextDatabase
    extractor1: SnowballExtractor
    extractor2: SnowballExtractor
    characterization1: KnobCharacterization
    characterization2: KnobCharacterization
    profile1: DatabaseProfile
    profile2: DatabaseProfile
    classifier1: RuleClassifier
    classifier2: RuleClassifier
    classifier_profile1: ClassifierProfile
    classifier_profile2: ClassifierProfile
    learned_queries1: List[LearnedQuery]
    learned_queries2: List[LearnedQuery]
    query_stats1: List[QueryStats]
    query_stats2: List[QueryStats]
    #: label-free parameters for the adaptive optimizer: classifier rates
    #: measured on the training corpus, query precision carried over from
    #: training with observable target hit counts
    offline_classifier_profile1: ClassifierProfile
    offline_classifier_profile2: ClassifierProfile
    offline_query_stats1: List[QueryStats]
    offline_query_stats2: List[QueryStats]
    seed_queries: List[Query]
    costs: CostModel = field(default_factory=CostModel)

    def inputs(self, theta1: float = 0.4, theta2: float = 0.4) -> JoinInputs:
        return JoinInputs(
            database1=self.database1,
            database2=self.database2,
            extractor1=self.extractor1.with_theta(theta1),
            extractor2=self.extractor2.with_theta(theta2),
        )

    def environment(
        self, theta1: float = 0.4, theta2: float = 0.4
    ) -> ExecutionEnvironment:
        """Live bindings of sides 1 and 2."""
        return ExecutionEnvironment(
            databases={1: self.database1, 2: self.database2},
            extractors={
                1: self.extractor1.with_theta(theta1),
                2: self.extractor2.with_theta(theta2),
            },
            classifiers={1: self.classifier1, 2: self.classifier2},
            learned_queries={1: self.learned_queries1, 2: self.learned_queries2},
            costs={1: self.costs.side1, 2: self.costs.side2},
            seed_queries=self.seed_queries,
        )

    def catalog(self) -> StatisticsCatalog:
        """Ground-truth ("perfect knowledge") statistics catalog."""
        return StatisticsCatalog.from_profiles(
            profile1=self.profile1,
            characterization1=self.characterization1,
            profile2=self.profile2,
            characterization2=self.characterization2,
            top_k1=self.database1.max_results,
            top_k2=self.database2.max_results,
            classifier1=self.classifier_profile1,
            classifier2=self.classifier_profile2,
            queries1=tuple(self.query_stats1),
            queries2=tuple(self.query_stats2),
        )


@dataclass
class Testbed:
    """The full experimental world: corpora, trained systems, tasks."""

    config: TestbedConfig
    world: World
    training: TextDatabase
    databases: Dict[str, TextDatabase]
    extractors: Dict[str, SnowballExtractor]
    characterizations: Dict[str, KnobCharacterization]

    def task(
        self,
        relation1: str = "HQ",
        relation2: str = "EX",
        database1: str = "nyt96",
        database2: str = "nyt95",
    ) -> JoinTask:
        """Bind a join task; the default is the paper's HQ ⋈ EX."""
        db1, db2 = self.databases[database1], self.databases[database2]
        e1, e2 = self.extractors[relation1], self.extractors[relation2]
        classifier1 = RuleClassifier.train(self.training, relation1)
        classifier2 = RuleClassifier.train(self.training, relation2)
        queries1 = learn_queries(
            self.training, relation1, max_queries=self.config.aqg_queries
        )
        queries2 = learn_queries(
            self.training, relation2, max_queries=self.config.aqg_queries
        )
        profile1 = profile_database(db1, relation1)
        profile2 = profile_database(db2, relation2)
        seeds = [
            Query.of(value)
            for value, _ in profile1.good_frequency.most_common(
                self.config.n_seed_queries
            )
        ]
        return JoinTask(
            name=f"{relation1}⋈{relation2}",
            relation1=relation1,
            relation2=relation2,
            database1=db1,
            database2=db2,
            extractor1=e1,
            extractor2=e2,
            characterization1=self.characterizations[relation1],
            characterization2=self.characterizations[relation2],
            profile1=profile1,
            profile2=profile2,
            classifier1=classifier1,
            classifier2=classifier2,
            classifier_profile1=classifier1.measure(db1),
            classifier_profile2=classifier2.measure(db2),
            learned_queries1=queries1,
            learned_queries2=queries2,
            query_stats1=measure_learned_queries(queries1, db1, relation1),
            query_stats2=measure_learned_queries(queries2, db2, relation2),
            offline_classifier_profile1=classifier1.measure(self.training),
            offline_classifier_profile2=classifier2.measure(self.training),
            offline_query_stats1=offline_query_stats(queries1, db1),
            offline_query_stats2=offline_query_stats(queries2, db2),
            seed_queries=seeds,
        )


def _world(config: TestbedConfig) -> World:
    def spec(name: str, attrs: Tuple[str, str], prefix: str) -> RelationSpec:
        return RelationSpec(
            schema=RelationSchema(name, attrs),
            secondary_prefix=prefix,
            n_true_facts=config.scaled(180),
            n_false_facts=config.scaled(120),
            n_secondary=config.scaled(260),
        )

    return World(
        WorldConfig(
            seed=config.seed,
            n_companies=config.n_companies,
            company_zipf_exponent=config.company_zipf,
            fact_zipf_exponent=config.fact_zipf,
            relations=(
                spec("HQ", ("Company", "Location"), "city"),
                spec("EX", ("Company", "CEO"), "person"),
                spec("MG", ("Company", "MergedWith"), "target"),
            ),
        )
    )


def _corpora(config: TestbedConfig, world: World) -> Dict[str, TextDatabase]:
    def hosted(relation: str, good: int, bad: int) -> HostedRelation:
        return HostedRelation(
            relation=relation,
            n_good_docs=config.scaled(good),
            n_bad_docs=config.scaled(bad),
            # Empty documents carry topical trigger terms often enough that
            # the FS classifier pays for some of them, as a real rule
            # classifier would.
            trigger_empty=0.15,
        )

    recipes = {
        "train": CorpusConfig(
            name="train",
            seed=config.seed + 101,
            hosted=(
                hosted("HQ", 260, 110),
                hosted("EX", 260, 110),
                hosted("MG", 220, 100),
            ),
            n_empty_docs=config.scaled(420),
            max_results=config.max_results,
        ),
        "nyt96": CorpusConfig(
            name="nyt96",
            seed=config.seed + 202,
            hosted=(hosted("HQ", 380, 150), hosted("MG", 180, 90)),
            n_empty_docs=config.scaled(500),
            max_results=config.max_results,
        ),
        "nyt95": CorpusConfig(
            name="nyt95",
            seed=config.seed + 303,
            hosted=(hosted("EX", 400, 160),),
            n_empty_docs=config.scaled(520),
            max_results=config.max_results,
        ),
        "wsj": CorpusConfig(
            name="wsj",
            seed=config.seed + 404,
            hosted=(hosted("EX", 300, 130), hosted("MG", 260, 120)),
            n_empty_docs=config.scaled(560),
            max_results=config.max_results,
        ),
    }
    return {name: generate_corpus(world, recipe) for name, recipe in recipes.items()}


def _build(config: TestbedConfig) -> Testbed:
    world = _world(config)
    corpora = _corpora(config, world)
    training = corpora["train"]
    extractors: Dict[str, SnowballExtractor] = {}
    characterizations: Dict[str, KnobCharacterization] = {}
    for relation in world.relation_names():
        schema = world.schemas[relation]
        dictionaries = world.entity_dictionary(relation)
        patterns = learn_pattern_terms(
            training,
            schema,
            dictionaries,
            seed_facts=world.true_facts(relation)[:40],
        )
        extractor = SnowballExtractor(
            schema=schema,
            entity_dictionaries=dictionaries,
            pattern_terms=patterns,
            theta=0.4,
            system_name=f"snowball-{relation.lower()}",
        )
        extractors[relation] = extractor
        characterizations[relation] = characterize(
            extractor, training, thetas=CHARACTERIZATION_THETAS
        )
    return Testbed(
        config=config,
        world=world,
        training=training,
        databases={k: v for k, v in corpora.items() if k != "train"},
        extractors=extractors,
        characterizations=characterizations,
    )


@lru_cache(maxsize=4)
def build_testbed(config: Optional[TestbedConfig] = None) -> Testbed:
    """Build (and memoize) the canonical testbed."""
    return _build(config or TestbedConfig())


# ---------------------------------------------------------------------------
# The multiway testbed (n-ary planner scenarios)
#
# A *separate* world and corpora: the canonical world materializes its
# relations sequentially from one RNG, so extending it in place would
# shift every golden number downstream.  The multiway world adds a
# fourth relation RES⟨CEO, City⟩ chaining off EX's CEO pool, and hosts
# the relations across corpora so that a 3-relation star and a
# 3-relation chain are each extractable from three distinct databases.

from ..core.plan import RetrievalKind  # noqa: E402  (keeps the canonical
from ..models.parameters import SideStatistics  # noqa: E402  imports above untouched)
from ..planner.catalog import PlannerCatalog, RelationEntry  # noqa: E402
from ..planner.graph import JoinGraph, RelationNode  # noqa: E402
from ..planner.profile import profile_keys  # noqa: E402

#: knob grid and access paths every multiway scenario node exposes
MULTIWAY_THETAS: Tuple[float, ...] = (0.4, 0.8)
MULTIWAY_ACCESS_PATHS: Tuple[RetrievalKind, ...] = (
    RetrievalKind.SCAN,
    RetrievalKind.FILTERED_SCAN,
)

#: scenario names accepted by :meth:`MultiwayTestbed.scenario` and the CLI
MULTIWAY_SCENARIOS: Tuple[str, ...] = ("star3", "chain3")


@dataclass(frozen=True)
class MultiwayConfig:
    """Scale and seeding of the multiway testbed."""

    seed: int = 23
    scale: float = 1.0
    n_companies: int = 180
    max_results: int = 30
    company_zipf: float = 0.8
    fact_zipf: float = 0.9

    def scaled(self, count: int) -> int:
        return max(1, int(round(count * self.scale)))


@dataclass
class MultiwayScenario:
    """One runnable n-ary join scenario: graph + per-alias bindings."""

    name: str
    graph: JoinGraph
    #: alias -> (relation, database name)
    bindings: Dict[str, Tuple[str, str]]
    testbed: "MultiwayTestbed"
    #: a (τg, τb) pair the scenario can meet end to end
    tau_good: int = 40
    tau_bad: int = 250

    def relation_of(self, alias: str) -> str:
        return self.bindings[alias][0]

    def database_of(self, alias: str) -> TextDatabase:
        return self.testbed.databases[self.bindings[alias][1]]

    def catalog(self) -> PlannerCatalog:
        """Ground-truth planner catalog for every alias."""
        entries: Dict[str, RelationEntry] = {}
        for alias in self.graph.names:
            relation, database_name = self.bindings[alias]
            database = self.testbed.databases[database_name]
            profile = profile_database(database, relation)
            characterization = self.testbed.characterizations[relation]
            classifier = self.testbed.classifier(relation)
            entries[alias] = RelationEntry(
                name=alias,
                relation=relation,
                attributes=self.testbed.world.schemas[relation].attributes,
                database_name=database_name,
                side_builder=(
                    lambda theta, p=profile, c=characterization,
                    k=database.max_results: SideStatistics.from_profile(
                        p, tp=c.tp_at(theta), fp=c.fp_at(theta), top_k=k
                    )
                ),
                key_builder=(
                    lambda indexes, d=database, r=relation: profile_keys(
                        d, r, indexes
                    )
                ),
                classifier=classifier.measure(database),
            )
        return PlannerCatalog(entries=entries)

    def environment(self) -> ExecutionEnvironment:
        """Live bindings for executing planned multiway plans."""
        return ExecutionEnvironment(
            databases={
                alias: self.testbed.databases[db]
                for alias, (_, db) in self.bindings.items()
            },
            extractors={
                alias: self.testbed.extractors[relation]
                for alias, (relation, _) in self.bindings.items()
            },
            classifiers={
                alias: self.testbed.classifier(relation)
                for alias, (relation, _) in self.bindings.items()
            },
        )


@dataclass
class MultiwayTestbed:
    """The multiway world: four relations hosted across four corpora."""

    config: MultiwayConfig
    world: World
    training: TextDatabase
    databases: Dict[str, TextDatabase]
    extractors: Dict[str, SnowballExtractor]
    characterizations: Dict[str, KnobCharacterization]
    _classifiers: Dict[str, RuleClassifier] = field(default_factory=dict)

    def classifier(self, relation: str) -> RuleClassifier:
        cached = self._classifiers.get(relation)
        if cached is None:
            cached = RuleClassifier.train(self.training, relation)
            self._classifiers[relation] = cached
        return cached

    def _node(self, alias: str, relation: str) -> RelationNode:
        return RelationNode(
            name=alias,
            attributes=self.world.schemas[relation].attributes,
            thetas=MULTIWAY_THETAS,
            access_paths=MULTIWAY_ACCESS_PATHS,
        )

    def scenario(self, name: str) -> MultiwayScenario:
        """Bind a named scenario (``star3`` or ``chain3``)."""
        if name == "star3":
            # HQ@nyt96 ⋈ EX@nyt95 ⋈ MG@wsj, all on Company.
            graph = JoinGraph.star(
                [
                    self._node("HQ", "HQ"),
                    self._node("EX", "EX"),
                    self._node("MG", "MG"),
                ],
                "Company",
            )
            bindings = {
                "HQ": ("HQ", "nyt96"),
                "EX": ("EX", "nyt95"),
                "MG": ("MG", "wsj"),
            }
            taus = (40, 120)
        elif name == "chain3":
            # MG@nyt96 ⋈ EX@nyt95 on Company, then ⋈ RES@wsj on CEO.
            graph = JoinGraph.chain(
                [
                    self._node("MG", "MG"),
                    self._node("EX", "EX"),
                    self._node("RES", "RES"),
                ],
                [("Company", "Company"), ("CEO", "CEO")],
            )
            bindings = {
                "MG": ("MG", "nyt96"),
                "EX": ("EX", "nyt95"),
                "RES": ("RES", "wsj"),
            }
            taus = (40, 250)
        else:
            raise ValueError(
                f"unknown multiway scenario {name!r}"
                f" (expected one of {', '.join(MULTIWAY_SCENARIOS)})"
            )
        return MultiwayScenario(
            name=name,
            graph=graph,
            bindings=bindings,
            testbed=self,
            tau_good=taus[0],
            tau_bad=taus[1],
        )


def _multiway_world(config: MultiwayConfig) -> World:
    def spec(
        name: str,
        attrs: Tuple[str, str],
        prefix: str,
        primary_pool: Optional[str] = None,
    ) -> RelationSpec:
        return RelationSpec(
            schema=RelationSchema(name, attrs),
            secondary_prefix=prefix,
            n_true_facts=config.scaled(140),
            n_false_facts=config.scaled(90),
            n_secondary=config.scaled(200),
            primary_pool=primary_pool,
        )

    return World(
        WorldConfig(
            seed=config.seed,
            n_companies=config.n_companies,
            company_zipf_exponent=config.company_zipf,
            fact_zipf_exponent=config.fact_zipf,
            relations=(
                spec("HQ", ("Company", "Location"), "city"),
                spec("EX", ("Company", "CEO"), "person"),
                spec("MG", ("Company", "MergedWith"), "target"),
                # RES's primary attribute is a *CEO*, drawn from EX's
                # secondary pool — the chain scenario's second hop.
                spec("RES", ("CEO", "City"), "home", primary_pool="EX"),
            ),
        )
    )


def _multiway_corpora(
    config: MultiwayConfig, world: World
) -> Dict[str, TextDatabase]:
    def hosted(relation: str, good: int, bad: int) -> HostedRelation:
        return HostedRelation(
            relation=relation,
            n_good_docs=config.scaled(good),
            n_bad_docs=config.scaled(bad),
            trigger_empty=0.15,
        )

    recipes = {
        "mtrain": CorpusConfig(
            name="mtrain",
            seed=config.seed + 101,
            hosted=(
                hosted("HQ", 140, 70),
                hosted("EX", 140, 70),
                hosted("MG", 140, 70),
                hosted("RES", 120, 60),
            ),
            n_empty_docs=config.scaled(260),
            max_results=config.max_results,
        ),
        "nyt96": CorpusConfig(
            name="nyt96",
            seed=config.seed + 202,
            hosted=(hosted("HQ", 300, 120), hosted("MG", 160, 80)),
            n_empty_docs=config.scaled(380),
            max_results=config.max_results,
        ),
        "nyt95": CorpusConfig(
            name="nyt95",
            seed=config.seed + 303,
            hosted=(hosted("EX", 320, 130),),
            n_empty_docs=config.scaled(400),
            max_results=config.max_results,
        ),
        "wsj": CorpusConfig(
            name="wsj",
            seed=config.seed + 404,
            hosted=(hosted("MG", 200, 90), hosted("RES", 220, 100)),
            n_empty_docs=config.scaled(420),
            max_results=config.max_results,
        ),
    }
    return {name: generate_corpus(world, recipe) for name, recipe in recipes.items()}


def _build_multiway(config: MultiwayConfig) -> MultiwayTestbed:
    world = _multiway_world(config)
    corpora = _multiway_corpora(config, world)
    training = corpora["mtrain"]
    extractors: Dict[str, SnowballExtractor] = {}
    characterizations: Dict[str, KnobCharacterization] = {}
    for relation in world.relation_names():
        schema = world.schemas[relation]
        dictionaries = world.entity_dictionary(relation)
        patterns = learn_pattern_terms(
            training,
            schema,
            dictionaries,
            seed_facts=world.true_facts(relation)[:40],
        )
        extractor = SnowballExtractor(
            schema=schema,
            entity_dictionaries=dictionaries,
            pattern_terms=patterns,
            theta=0.4,
            system_name=f"snowball-{relation.lower()}",
        )
        extractors[relation] = extractor
        characterizations[relation] = characterize(
            extractor, training, thetas=CHARACTERIZATION_THETAS
        )
    return MultiwayTestbed(
        config=config,
        world=world,
        training=training,
        databases={k: v for k, v in corpora.items() if k != "mtrain"},
        extractors=extractors,
        characterizations=characterizations,
    )


@lru_cache(maxsize=2)
def build_multiway_testbed(
    config: Optional[MultiwayConfig] = None,
) -> MultiwayTestbed:
    """Build (and memoize) the multiway testbed."""
    return _build_multiway(config or MultiwayConfig())
