"""Ablations of the design choices DESIGN.md calls out.

1. **Quality-aware vs time-only optimization** — prior work (UIMA, Xlog)
   optimizes execution time only.  A time-only chooser targets τ *total*
   tuples as fast as possible; the quality-aware optimizer targets τg good
   tuples under a τb bad-tuple bound.  The ablation shows the time-only
   choice delivers far worse output quality for comparable effort — the
   paper's core motivation.
2. **Feasibility margin** — the optimizer's overprovisioning guard against
   model overestimation near plan ceilings: with the margin off, choices at
   near-ceiling τg can miss their target in actual execution.
3. **Frequency-correlation in aggregate composition** — ρ=0 is the paper's
   independence assumption, ρ=1 its fully-correlated alternative; the
   calibrated default sits between.  Measured against per-value truth.
4. **Square vs rectangle IDJN traversal** — the paper's square heuristic
   balances both sides; a skewed rectangle wastes effort on one side.
"""

import pytest

from repro.core import JoinKind, QualityRequirement, RetrievalKind
from repro.experiments import build_trajectories, format_table, time_to_meet
from repro.joins import Budgets, IndependentJoin
from repro.models import IDJNModel
from repro.models.parameters import ValueOverlapModel
from repro.models.scheme import compose_aggregate, compose_per_value
from repro.experiments.figures import task_statistics
from repro.optimizer import JoinOptimizer, bind_plan, enumerate_plans
from repro.retrieval import ScanRetriever


@pytest.fixture(scope="module")
def plans(task):
    return enumerate_plans(task.extractor1.name, task.extractor2.name)


@pytest.fixture(scope="module")
def trajectories(task, plans):
    return build_trajectories(task, plans)


def _time_only_choice(optimizer, plans, tau_total):
    """Prior-work baseline: fastest plan to τ *total* tuples, quality-blind."""
    best = None
    for plan in plans:
        predictor, max_effort = optimizer._cached_predictor(plan)
        if predictor(max_effort).composition.total < tau_total:
            continue
        lo, hi = 0.0, 1.0
        for _ in range(12):
            mid = (lo + hi) / 2
            if predictor(mid * max_effort).composition.total >= tau_total:
                hi = mid
            else:
                lo = mid
        prediction = predictor(hi * max_effort)
        if best is None or prediction.total_time < best[1].total_time:
            best = (plan, prediction)
    return best


def test_quality_aware_vs_time_only(benchmark, task, plans, report_sink):
    # The contract has a real bad-tuple bound; a quality-blind chooser
    # neither sees nor respects it.  At this scale roughly half of all
    # join tuples are bad, so "150 total" (the blind target) delivers far
    # fewer than 150 good ones and blows the bad budget.
    requirement = QualityRequirement(tau_good=150, tau_bad=60)

    def run():
        optimizer = JoinOptimizer(
            task.catalog(), costs=task.costs, feasibility_margin=0.1
        )
        aware = optimizer.optimize(plans, requirement).chosen
        blind = _time_only_choice(optimizer, plans, tau_total=150)
        results = {}
        for label, plan, stop in (
            ("quality-aware", aware.plan, requirement),
            (
                "time-only",
                blind[0],
                # Stop once the quality-blind criterion (150 *total*
                # tuples, via the _TotalCount estimator) is met.
                QualityRequirement(tau_good=150, tau_bad=10**9),
            ),
        ):
            executor = bind_plan(
                task.environment(
                    plan.extractor1.theta, plan.extractor2.theta
                ),
                plan,
            )
            # Time-only baseline stops at 60 *total* tuples, as it planned.
            if label == "time-only":
                executor.estimator = _TotalCount(150)
            execution = executor.run(requirement=stop)
            results[label] = (plan, execution.report)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for label, (plan, report) in results.items():
        comp = report.composition
        precision = comp.n_good / max(comp.n_total, 1)
        rows.append(
            (label, plan.describe(), comp.n_good, comp.n_bad, f"{precision:.2f}",
             f"{report.time.total:.0f}")
        )
    report_sink(
        "ablation_quality_vs_time_only",
        format_table(
            ["optimizer", "chosen plan", "good", "bad", "precision", "time"],
            rows,
        ),
    )
    aware_comp = results["quality-aware"][1].composition
    blind_comp = results["time-only"][1].composition
    # The quality-aware choice honours the contract.
    assert aware_comp.n_good >= 150
    assert aware_comp.n_bad <= 60
    # The quality-blind baseline (150 *total* tuples) does not: it stops
    # short on good tuples, busts the bad bound, or both.
    assert blind_comp.n_good < 150 or blind_comp.n_bad > 60


class _TotalCount:
    """Stops an execution on total tuples — the quality-blind criterion."""

    def __init__(self, target):
        self.target = target

    def estimate(self, state):
        total = state.composition.n_total
        return (float(total), 0.0) if total >= self.target else (0.0, 0.0)


def test_feasibility_margin_near_ceiling(
    benchmark, task, plans, trajectories, report_sink
):
    """Near the extractable ceiling, the margin prevents overcommitment."""
    # Target just under the ceiling of the best AQG-limited plan; scan
    # plans reach far beyond it, so a correct optimizer always has an out.
    capped = [
        t for p, t in trajectories.items()
        if RetrievalKind.AQG in (p.retrieval1, p.retrieval2)
    ]
    ceiling = max(t.end.composition.n_good for t in capped)
    requirement = QualityRequirement(int(ceiling * 0.9), 10**9)

    def run():
        outcome = {}
        for label, margin in (("margin=0", 0.0), ("margin=0.15", 0.15)):
            optimizer = JoinOptimizer(
                task.catalog(), costs=task.costs, feasibility_margin=margin
            )
            chosen = optimizer.optimize(plans, requirement).chosen
            met = (
                None
                if chosen is None
                else time_to_meet(trajectories[chosen.plan], requirement)
            )
            outcome[label] = (chosen, met)
        return outcome

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        (
            label,
            "(none)" if chosen is None else chosen.plan.describe(),
            "yes" if met is not None else "NO",
        )
        for label, (chosen, met) in outcome.items()
    ]
    report_sink(
        "ablation_feasibility_margin",
        format_table(["optimizer", "chosen plan", "actually met?"], rows)
        + f"\n(requirement: tau_g={requirement.tau_good})",
    )
    # The margin variant never does worse than the margin-free one.
    margin_met = outcome["margin=0.15"][1] is not None
    plain_met = outcome["margin=0"][1] is not None
    assert margin_met or not plain_met


def test_composition_correlation(benchmark, task, report_sink):
    """Aggregate-composition accuracy across the correlation parameter."""
    statistics = task_statistics(task, 0.4, 0.4)
    model = IDJNModel(statistics, RetrievalKind.SCAN, RetrievalKind.SCAN)
    overlap = ValueOverlapModel.from_side_values(
        statistics.side1, statistics.side2
    )
    n1 = statistics.side1.n_documents // 2
    n2 = statistics.side2.n_documents // 2

    def run():
        factors1 = model.side_factors(1, n1)
        factors2 = model.side_factors(2, n2)
        truth = compose_per_value(factors1, factors2)
        return {
            rho: compose_aggregate(factors1, factors2, overlap, correlation=rho)
            for rho in (0.0, 0.6, 1.0)
        }, truth

    estimates, truth = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [("per-value truth", f"{truth.good:.0f}", f"{truth.bad:.0f}", "-")]
    for rho, est in estimates.items():
        error = abs(est.good - truth.good) / max(truth.good, 1)
        rows.append((f"aggregate ρ={rho}", f"{est.good:.0f}", f"{est.bad:.0f}",
                     f"{error:.2f}"))
    report_sink(
        "ablation_composition_correlation",
        format_table(["composition", "good", "bad", "rel err (good)"], rows),
    )
    err = {
        rho: abs(est.good - truth.good) for rho, est in estimates.items()
    }
    # The calibrated middle beats at least one of the two paper extremes.
    assert err[0.6] <= max(err[0.0], err[1.0])


def test_zgjn_model_corrections(benchmark, task, report_sink):
    """ZGJN model flags: paper-faithful (no corrections) vs corrected.

    With stall handling and the dedup/reachability corrections off, the
    model reproduces the paper's optimistic behaviour (it over-credits
    reach); with them on it is deliberately conservative.  Which lands
    closer to the truth is corpus-dependent — the robust, useful property
    (asserted here) is that the two variants *bracket* the actual
    saturation reach, giving users a lower and an upper estimate.
    """
    from repro.experiments.figures import task_statistics
    from repro.joins import Budgets
    from repro.joins.zgjn import ZigZagJoin
    from repro.models import ZGJNModel

    statistics = task_statistics(task, 0.4, 0.4)

    def run():
        corrected = ZGJNModel(statistics, costs=task.costs)
        paperish = ZGJNModel(
            statistics,
            costs=task.costs,
            include_stall=False,
            dedup_correction=False,
        )
        q = corrected.max_queries_from_r1()
        execution = ZigZagJoin(
            task.inputs(0.4, 0.4), task.seed_queries, costs=task.costs
        ).run(budgets=Budgets(max_queries1=q, max_queries2=q))
        return (
            corrected.predict(q),
            paperish.predict(q),
            execution.report.composition,
        )

    corrected, paperish, actual = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    rows = [
        ("corrected model", f"{corrected.n_good:.0f}", f"{corrected.n_bad:.0f}"),
        ("paper-faithful model", f"{paperish.n_good:.0f}", f"{paperish.n_bad:.0f}"),
        ("actual execution", actual.n_good, actual.n_bad),
    ]
    report_sink(
        "ablation_zgjn_corrections",
        format_table(["variant", "good", "bad"], rows),
    )
    # The paper-faithful variant credits at least as much reach...
    assert paperish.n_good >= corrected.n_good - 1e-9
    # ...and the two variants bracket the actual saturation reach
    # (with a small tolerance on each end).
    assert corrected.n_good <= actual.n_good * 1.15
    assert paperish.n_good >= actual.n_good * 0.85


def test_square_vs_rectangle_idjn(benchmark, task, report_sink):
    """The square traversal reaches a quality target at least as fast as a
    skewed rectangle (the paper's operating-point heuristic)."""
    requirement = QualityRequirement(tau_good=80, tau_bad=10**9)

    def run():
        outcome = {}
        for label, rates in (
            ("square 1:1", (1, 1)),
            ("rectangle 4:1", (4, 1)),
            ("rectangle 1:4", (1, 4)),
        ):
            inputs = task.inputs(0.4, 0.4)
            execution = IndependentJoin(
                inputs,
                ScanRetriever(task.database1),
                ScanRetriever(task.database2),
                costs=task.costs,
                rates=rates,
            ).run(requirement)
            outcome[label] = execution.report
        return outcome

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        (label, report.composition.n_good, f"{report.time.total:.0f}")
        for label, report in outcome.items()
    ]
    report_sink(
        "ablation_square_vs_rectangle",
        format_table(["traversal", "good tuples", "time"], rows),
    )
    # Balancing is robust: one skew may happen to fit a particular corpus
    # pair better, but the square traversal never loses to both.
    worst_skew = max(
        outcome["rectangle 4:1"].time.total,
        outcome["rectangle 1:4"].time.total,
    )
    assert outcome["square 1:1"].time.total <= worst_skew * 1.05
