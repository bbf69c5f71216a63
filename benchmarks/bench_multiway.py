"""Extension benchmark: three-way join HQ ⋈ EX ⋈ MG.

Higher-order joins are the paper's declared future work; this bench
exercises the library's n-way extension end-to-end on the seeded
``star3`` scenario — model prediction, execution — and reports the
model-vs-actual composition at three coverage levels, plus how error
compounds with join arity (a bad tuple anywhere poisons the whole
dossier, so n-way precision is below binary precision).
"""

import pytest

from repro.core import RetrievalKind
from repro.experiments import build_multiway_testbed, format_table
from repro.multiway import MultiwayIndependentJoin, MultiwaySide
from repro.planner.model import GraphCompositionModel
from repro.planner.plan import RelationConfig
from repro.retrieval import ScanRetriever

THETA = 0.4


@pytest.fixture(scope="module")
def three_way():
    scenario = build_multiway_testbed().scenario("star3")
    environment = scenario.environment()
    names = scenario.graph.names
    databases = [environment.database(name) for name in names]
    extractors = [environment.extractor_at(name, THETA) for name in names]
    model = GraphCompositionModel(scenario.graph, scenario.catalog())
    configs = {
        name: RelationConfig(name=name, theta=THETA, retrieval=RetrievalKind.SCAN)
        for name in names
    }
    return databases, extractors, model, configs


def test_three_way_accuracy(benchmark, three_way, report_sink):
    databases, extractors, model, configs = three_way

    def run():
        rows = []
        for percent in (25, 50, 100):
            efforts = [len(db) * percent // 100 for db in databases]
            by_name = dict(zip(model.graph.names, efforts))
            predicted_total, predicted_good = model.compose(configs, by_name)
            predicted_time = model.side_time(configs, by_name)
            sides = [
                MultiwaySide(db, ex, ScanRetriever(db), max_documents=n)
                for db, ex, n in zip(databases, extractors, efforts)
            ]
            actual = MultiwayIndependentJoin(sides).run()
            rows.append(
                (
                    percent,
                    round(predicted_good),
                    actual.state.composition.n_good,
                    round(predicted_total - predicted_good),
                    actual.state.composition.n_bad,
                    f"{predicted_time.total:.0f}",
                    f"{actual.report.time.total:.0f}",
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report_sink(
        "multiway_three_way_accuracy",
        format_table(
            ["%docs", "est good", "act good", "est bad", "act bad",
             "est time", "act time"],
            rows,
        ),
    )
    # Model tracks actual at full coverage; time model exact for scans.
    final = rows[-1]
    assert final[1] == pytest.approx(final[2], rel=0.5)
    assert float(final[5]) == pytest.approx(float(final[6]), rel=0.01)
    # Quality grows with coverage.
    assert [r[2] for r in rows] == sorted(r[2] for r in rows)


def test_arity_compounds_error(benchmark, three_way, report_sink):
    """Precision decreases with join arity — the paper's core hazard,
    amplified: every additional noisy relation multiplies in its errors."""
    databases, extractors, _, _ = three_way

    def run():
        rows = []
        for arity in (2, 3):
            sides = [
                MultiwaySide(db, ex, ScanRetriever(db))
                for db, ex in zip(databases[:arity], extractors[:arity])
            ]
            comp = MultiwayIndependentJoin(sides).run().state.composition
            precision = comp.n_good / max(comp.n_total, 1)
            rows.append((arity, comp.n_good, comp.n_bad, f"{precision:.3f}"))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report_sink(
        "multiway_arity_precision",
        format_table(["arity", "good", "bad", "precision"], rows),
    )
    precision2 = float(rows[0][3])
    precision3 = float(rows[1][3])
    assert precision3 < precision2
