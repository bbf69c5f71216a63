"""Differential validation: models vs Monte-Carlo vs real executors.

Three families of cross-checks, each with a *derived* tolerance rather
than a magic epsilon:

**Model vs simulation (exact CLT bands).**  The analytical IDJN model and
:func:`repro.models.simulate.simulate_idjn` share the same generative
channel: per value and side, extracted occurrences are
``Binomial(f, rate·coverage)`` and the join composition is the per-value
product sum.  The expectations coincide *exactly* (``tp ≤ 1`` and
``ρ ≤ 1`` keep the simulator's probability clamp from binding), so the
model's prediction must lie within ``z·sd/√n`` of the Monte-Carlo mean —
the central-limit band of the simulated mean itself.  Any excess is a real
divergence between the two implementations, not sampling noise.

**Model vs executor (Monte-Carlo coverage bands).**  One real execution
is one draw from the generative distribution (the testbed's corpus was
itself sampled from the profiled frequency model).  The simulated sample
of size ``n`` brackets an independent draw between its extremes with
probability ``1 − 2/(n+1)``; the actual scan execution samples documents
*without* replacement, so its per-value variance is hypergeometric —
smaller than the simulated binomial — and the bracket is conservative.
Scan/scan IDJN time is deterministic (documents × unit costs on both
sides), so predicted and measured time must agree to float precision.

**Implementation differentials (exact equality).**  Pairs of independent
implementations of the same math — vectorized vs scalar composition
kernels, the AQG prefix-sum reach vs its reference loop, the grid-matmul
MLE class fit vs its per-β loop — must agree to accumulation-order
rounding (≤ 1e-9 relative), since both paths consume identical float64
inputs.

OIJN/ZGJN executor comparisons reuse the repo's *documented* accuracy
envelopes (the paper reports the same systematic deviations for these
approximate models; the envelopes are pinned in ``tests/test_experiments``)
plus trend monotonicity, rather than pretending an exact band exists.

``run_validation`` drives all of the above over a seeded testbed grid with
a *collecting* :class:`~repro.validation.invariants.InvariantChecker`
installed, so every runtime invariant along the way is enforced too, and
emits a machine-readable ``validation_report.json``.
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.plan import RetrievalKind
from ..experiments.figures import (
    run_figure10,
    run_figure11,
    task_statistics,
)
from ..experiments.testbed import JoinTask, TestbedConfig, build_testbed
from ..joins.base import Budgets
from ..joins.idjn import IndependentJoin
from ..models.idjn_model import IDJNModel
from ..models.retrieval_models import AQGModel
from ..models.simulate import simulate_idjn
from ..retrieval.scan import ScanRetriever
from .invariants import InvariantChecker, install_checker

#: default CLT z for model-vs-simulation bands; two-sided miss probability
#: 2·Φ(−5) ≈ 5.7e-7 per check, negligible across a full grid
DEFAULT_Z = 5.0

#: absolute slack absorbing float accumulation, never statistical error
ABS_SLACK = 1e-6


@dataclass
class CheckResult:
    """One differential comparison: what, observed, allowed, verdict."""

    name: str
    ok: bool
    observed: float
    expected: float
    band: float
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "ok": self.ok,
            "observed": self.observed,
            "expected": self.expected,
            "band": self.band,
            "detail": self.detail,
        }


@dataclass
class ValidationReport:
    """Everything one validation run measured, JSON-ready."""

    config: Dict[str, Any] = field(default_factory=dict)
    checks: List[CheckResult] = field(default_factory=list)
    invariants: Dict[str, Any] = field(default_factory=dict)

    def add(self, result: CheckResult) -> CheckResult:
        self.checks.append(result)
        return result

    @property
    def failures(self) -> List[CheckResult]:
        return [c for c in self.checks if not c.ok]

    @property
    def passed(self) -> bool:
        return not self.failures and not self.invariants.get("violations")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "config": self.config,
            "passed": self.passed,
            "checks_total": len(self.checks),
            "checks_failed": len(self.failures),
            "checks": [c.to_dict() for c in self.checks],
            "invariants": self.invariants,
        }

    def write(self, path: str) -> str:
        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))
        return str(target)


def _band_check(
    report: ValidationReport,
    name: str,
    observed: float,
    expected: float,
    band: float,
    detail: str = "",
) -> CheckResult:
    ok = (
        math.isfinite(observed)
        and math.isfinite(expected)
        and abs(observed - expected) <= band + ABS_SLACK
    )
    return report.add(
        CheckResult(
            name=name,
            ok=ok,
            observed=float(observed),
            expected=float(expected),
            band=float(band),
            detail=detail,
        )
    )


def _coverages(
    model: IDJNModel, effort1: float, effort2: float
) -> Tuple[Tuple[float, float], Tuple[float, float]]:
    rho = []
    for side, effort in ((1, effort1), (2, effort2)):
        retrieval = model.models[side]
        rho.append(
            (
                retrieval.good_fraction_processed(effort),
                retrieval.bad_fraction_processed(effort),
            )
        )
    return rho[0], rho[1]


# ---------------------------------------------------------------------------
# model vs simulation
# ---------------------------------------------------------------------------


def check_model_vs_simulation(
    report: ValidationReport,
    task: JoinTask,
    theta: float = 0.4,
    kinds: Sequence[Tuple[RetrievalKind, RetrievalKind]] = (
        (RetrievalKind.SCAN, RetrievalKind.SCAN),
        (RetrievalKind.FILTERED_SCAN, RetrievalKind.FILTERED_SCAN),
        (RetrievalKind.SCAN, RetrievalKind.AQG),
    ),
    fractions: Sequence[float] = (0.25, 0.6, 1.0),
    n_samples: int = 4000,
    seed: int = 0,
    z: float = DEFAULT_Z,
) -> None:
    """IDJN analytical predictions vs Monte-Carlo means, exact CLT bands."""
    statistics = task_statistics(task, theta, theta)
    for kind1, kind2 in kinds:
        model = IDJNModel(statistics, kind1, kind2, costs=task.costs)
        for fraction in fractions:
            effort1 = model.max_effort(1) * fraction
            effort2 = model.max_effort(2) * fraction
            prediction = model.predict(effort1, effort2)
            rho1, rho2 = _coverages(model, effort1, effort2)
            outcomes = simulate_idjn(
                statistics.side1,
                statistics.side2,
                rho1,
                rho2,
                n_samples=n_samples,
                seed=seed,
            )
            label = f"{task.name}/idjn-{kind1.value}-{kind2.value}@{fraction:g}"
            for channel, model_value, samples in (
                ("good", prediction.n_good, outcomes.good),
                ("bad", prediction.n_bad, outcomes.bad),
            ):
                sd = float(samples.std(ddof=1)) if n_samples > 1 else 0.0
                band = z * sd / math.sqrt(n_samples)
                _band_check(
                    report,
                    f"model-vs-sim/{label}/{channel}",
                    observed=model_value,
                    expected=float(samples.mean()),
                    band=band,
                    detail=f"CLT band z={z:g}, n={n_samples}, sd={sd:.3f}",
                )


# ---------------------------------------------------------------------------
# model vs executor
# ---------------------------------------------------------------------------


def check_idjn_vs_executor(
    report: ValidationReport,
    task: JoinTask,
    theta: float = 0.4,
    percents: Sequence[int] = (30, 60, 100),
    n_samples: int = 4000,
    seed: int = 0,
) -> None:
    """Real scan/scan IDJN runs inside the simulated outcome bracket."""
    statistics = task_statistics(task, theta, theta)
    model = IDJNModel(
        statistics, RetrievalKind.SCAN, RetrievalKind.SCAN, costs=task.costs
    )
    inputs = task.inputs(theta, theta)
    for percent in percents:
        n1 = len(task.database1) * percent // 100
        n2 = len(task.database2) * percent // 100
        prediction = model.predict(n1, n2)
        rho1, rho2 = _coverages(model, n1, n2)
        outcomes = simulate_idjn(
            statistics.side1,
            statistics.side2,
            rho1,
            rho2,
            n_samples=n_samples,
            seed=seed,
        )
        execution = IndependentJoin(
            inputs,
            ScanRetriever(task.database1),
            ScanRetriever(task.database2),
            costs=task.costs,
        ).run(budgets=Budgets(max_documents1=n1, max_documents2=n2))
        composition = execution.report.composition
        label = f"{task.name}/idjn-scan@{percent}"
        for channel, actual, samples in (
            ("good", composition.n_good, outcomes.good),
            ("bad", composition.n_bad, outcomes.bad),
        ):
            lo = float(samples.min())
            hi = float(samples.max())
            center = (hi + lo) / 2.0
            half = (hi - lo) / 2.0
            _band_check(
                report,
                f"executor-vs-sim/{label}/{channel}",
                observed=float(actual),
                expected=center,
                band=half,
                detail=(
                    f"empirical bracket of {n_samples} draws "
                    f"[{lo:.0f}, {hi:.0f}]; miss prob 2/(n+1), actual "
                    "variance hypergeometric (conservative)"
                ),
            )
        # Scan/scan time is deterministic: budget × unit costs, both model
        # and executor; agreement is float-exact, not statistical.
        _band_check(
            report,
            f"executor-vs-model/{label}/time",
            observed=execution.report.time.total,
            expected=prediction.total_time,
            band=1e-9 * (1.0 + abs(prediction.total_time)),
            detail="deterministic time identity for scan/scan IDJN",
        )


def check_approximate_models_vs_executor(
    report: ValidationReport,
    task: JoinTask,
    theta: float = 0.4,
) -> None:
    """OIJN/ZGJN executor runs inside the documented accuracy envelopes.

    These models are approximations (issuance independence, aggregate
    rest-reach); the paper reports systematic deviations and the repo pins
    the same envelopes in its tier-1 tests: OIJN within 50% relative at
    full effort, ZGJN within a factor of 4 with a monotone trend.
    """
    oijn_rows = run_figure10(task, theta=theta, percents=(50, 100))
    final = oijn_rows[-1]
    _band_check(
        report,
        f"executor-vs-model/{task.name}/oijn-full/good",
        observed=float(final.actual_good),
        expected=final.estimated_good,
        band=0.5 * max(final.estimated_good, float(final.actual_good)),
        detail="documented OIJN envelope: 50% relative at full effort",
    )
    zgjn_rows = run_figure11(task, theta=theta, percents=(50, 100))
    for row in zgjn_rows:
        log_ratio = math.log(
            max(float(row.actual_good), 0.5)
            / max(row.estimated_good, 0.5)
        )
        _band_check(
            report,
            f"executor-vs-model/{task.name}/zgjn@{row.percent}/good-log-ratio",
            observed=log_ratio,
            expected=0.0,
            band=math.log(4.0),
            detail="documented ZGJN envelope: within a factor of 4",
        )
    report.add(
        CheckResult(
            name=f"executor-vs-model/{task.name}/zgjn/monotone-trend",
            ok=zgjn_rows[-1].actual_good >= zgjn_rows[0].actual_good,
            observed=float(zgjn_rows[-1].actual_good),
            expected=float(zgjn_rows[0].actual_good),
            band=0.0,
            detail="actual good tuples non-decreasing in query budget",
        )
    )


# ---------------------------------------------------------------------------
# implementation differentials
# ---------------------------------------------------------------------------


def check_kernel_differential(
    report: ValidationReport,
    task: JoinTask,
    theta: float = 0.4,
    fractions: Sequence[float] = (0.3, 0.7, 1.0),
) -> None:
    """Vectorized vs scalar IDJN composition — same math, two code paths."""
    statistics = task_statistics(task, theta, theta)
    fast = IDJNModel(
        statistics,
        RetrievalKind.SCAN,
        RetrievalKind.SCAN,
        costs=task.costs,
        vectorized=True,
    )
    slow = IDJNModel(
        statistics,
        RetrievalKind.SCAN,
        RetrievalKind.SCAN,
        costs=task.costs,
        vectorized=False,
    )
    for fraction in fractions:
        effort1 = fast.max_effort(1) * fraction
        effort2 = fast.max_effort(2) * fraction
        a = fast.predict(effort1, effort2)
        b = slow.predict(effort1, effort2)
        for channel, va, vb in (
            ("good", a.n_good, b.n_good),
            ("bad", a.n_bad, b.n_bad),
        ):
            _band_check(
                report,
                f"kernel-diff/{task.name}@{fraction:g}/{channel}",
                observed=va,
                expected=vb,
                band=1e-9 * (1.0 + abs(vb)),
                detail="vectorized vs scalar composition (same float64 math)",
            )


def check_aqg_reach_differential(
    report: ValidationReport,
    task: JoinTask,
    theta: float = 0.4,
    efforts: Optional[Sequence[float]] = None,
) -> None:
    """AQG prefix-sum reach vs the scalar reference walk, bit-for-bit."""
    statistics = task_statistics(task, theta, theta)
    for side_index in (1, 2):
        side = statistics.side(side_index)
        queries = statistics.queries(side_index)
        if not queries:
            continue
        fast = AQGModel(side, queries, vectorized=True)
        slow = AQGModel(side, queries, vectorized=False)
        grid = (
            efforts
            if efforts is not None
            else [0.0, 0.5, 1.0, len(queries) / 2, len(queries) - 0.25,
                  float(len(queries))]
        )
        for effort in grid:
            a = fast.class_mix(effort)
            b = slow.class_mix(effort)
            for channel, va, vb in (
                ("good", a.good, b.good),
                ("bad", a.bad, b.bad),
                ("empty", a.empty, b.empty),
            ):
                _band_check(
                    report,
                    f"aqg-reach-diff/{task.name}/side{side_index}"
                    f"@{effort:g}/{channel}",
                    observed=va,
                    expected=vb,
                    band=1e-9 * (1.0 + abs(vb)),
                    detail="prefix-sum vs reference loop (documented "
                    "bit-identical)",
                )


def check_pruning_differential(
    report: ValidationReport,
    task: JoinTask,
    requirements: Optional[Sequence[Tuple[float, float]]] = None,
) -> None:
    """Pruned optimizer vs the unpruned reference — identity, not a band.

    The pruning layer's contract is exactness: for every requirement the
    pruned sweep must choose the identical plan at the identical operating
    point, and every plan it discarded without a full evaluation must be
    provably irrelevant in the reference (infeasible, or strictly slower
    than the chosen plan).  Violations here mean an unsound bound or a
    broken dominance argument, never acceptable noise — every band is 0.
    """
    from ..core.preferences import QualityRequirement
    from ..optimizer import JoinOptimizer, enumerate_plans

    plans = enumerate_plans(task.extractor1.name, task.extractor2.name)
    if requirements is None:
        requirements = [
            (good, bad)
            for good in (2.0, 18.0, 42.0, 90.0)
            for bad in (100.0, 100000.0)
        ]
    pruned_opt = JoinOptimizer(task.catalog(), costs=task.costs, prune=True)
    reference_opt = JoinOptimizer(task.catalog(), costs=task.costs)
    irrelevance_violations = 0
    pruned_total = 0
    for tau_good, tau_bad in requirements:
        requirement = QualityRequirement(tau_good=tau_good, tau_bad=tau_bad)
        fast = pruned_opt.optimize(plans, requirement)
        slow = reference_opt.optimize(plans, requirement, prune=False)
        label = f"pruning-diff/{task.name}/tg{tau_good:g}-tb{tau_bad:g}"
        fast_time = (
            fast.chosen.predicted_time if fast.chosen is not None else -1.0
        )
        slow_time = (
            slow.chosen.predicted_time if slow.chosen is not None else -1.0
        )
        _band_check(
            report,
            f"{label}/chosen-time",
            observed=fast_time,
            expected=slow_time,
            band=0.0,
            detail="pruned and unpruned sweeps must choose identically",
        )
        if fast.chosen is not None and slow.chosen is not None:
            _band_check(
                report,
                f"{label}/chosen-fraction",
                observed=fast.chosen.effort_fraction,
                expected=slow.chosen.effort_fraction,
                band=0.0,
                detail="identical operating point, not merely the same plan",
            )
        chosen_time = (
            slow.chosen.predicted_time if slow.chosen is not None else None
        )
        for a, b in zip(fast.evaluations, slow.evaluations):
            if not a.pruned:
                continue
            pruned_total += 1
            irrelevant = (not b.feasible) or (
                chosen_time is not None and b.predicted_time > chosen_time
            )
            if not irrelevant:
                irrelevance_violations += 1
    report.add(
        CheckResult(
            name=f"pruning-diff/{task.name}/pruned-irrelevance",
            ok=irrelevance_violations == 0,
            observed=float(irrelevance_violations),
            expected=0.0,
            band=0.0,
            detail=(
                f"{pruned_total} pruned evaluations checked against the "
                "unpruned reference"
            ),
        )
    )


def check_mle_fit_differential(
    report: ValidationReport,
    seed: int = 0,
) -> None:
    """Grid-matmul class fit vs the per-β reference loop on synthetic data."""
    from ..estimation.mle import _fit_single_class, _fit_single_class_scalar

    rng = np.random.default_rng(seed)
    beta_grid = np.linspace(0.2, 2.6, 25)
    for case in range(4):
        s_values = np.arange(1, 9 + 3 * case, dtype=float)
        weights = rng.integers(0, 40, size=len(s_values)).astype(float)
        weights[0] = max(weights[0], 1.0)  # never an empty sample
        p_obs = float(rng.uniform(0.05, 0.9))
        k_max = int(s_values.max()) * 3
        beta_f, n_f, ll_f = _fit_single_class(
            s_values, weights, p_obs, k_max, beta_grid, vectorized=True
        )
        beta_s, n_s, ll_s = _fit_single_class_scalar(
            s_values, weights, p_obs, k_max, beta_grid
        )
        scale = 1e-9 * (1.0 + abs(ll_s))
        _band_check(
            report,
            f"mle-fit-diff/case{case}/loglik",
            observed=ll_f,
            expected=ll_s,
            band=scale,
            detail=f"p_obs={p_obs:.3f}, k_max={k_max}",
        )
        _band_check(
            report,
            f"mle-fit-diff/case{case}/n_values",
            observed=n_f,
            expected=n_s,
            band=1e-9 * (1.0 + abs(n_s)),
            detail="population estimate must match across code paths",
        )
        _band_check(
            report,
            f"mle-fit-diff/case{case}/beta",
            observed=beta_f,
            expected=beta_s,
            band=0.0,
            detail="argmax over an identical grid",
        )


# ---------------------------------------------------------------------------
# multiway planner differentials
# ---------------------------------------------------------------------------

#: per scenario, a τg between the weak and strong assignments' tier-A
#: ceilings so the bound-pruning path is exercised (τb is left loose)
_MULTIWAY_PRUNING_TAUS = {"star3": 20000, "chain3": 1000}


def _multiway_realized_factors(graph, environment, configs):
    """Per-relation realized (total, good) key factors at full scan.

    Every document of every bound database is extracted at the config's
    theta and occurrences are counted per join-key — the ground truth the
    executor's incremental composition must reproduce exactly.
    """
    from ..planner.model import subset_attributes

    full = frozenset(graph.names)
    realized = {}
    for alias in graph.names:
        attributes = subset_attributes(graph, alias, full)
        schema = graph.relation(alias).attributes
        indexes = tuple(schema.index(a) for a in attributes)
        extractor = environment.extractor_at(alias, configs[alias].theta)
        factors: Dict[Tuple, List[float]] = {}
        for document in environment.database(alias).documents:
            for extracted in extractor.extract(document):
                key = tuple(extracted.values[i] for i in indexes)
                slot = factors.setdefault(key, [0.0, 0.0])
                slot[0] += 1.0
                if extracted.is_good:
                    slot[1] += 1.0
        realized[alias] = {k: (v[0], v[1]) for k, v in factors.items()}
    return realized


def chain_expected_composition(
    factor_pairs: Sequence[Dict[Tuple, Tuple[float, float]]],
) -> Tuple[float, float]:
    """Expected (good, total) chains from per-layer expected pair factors.

    ``factor_pairs[i]`` maps (left key, right key) -> (E[total occurrences],
    E[good occurrences]) for layer i.  The layer-by-layer chain DP

        v_1[k']  = Σ_k c_1[(k, k')]
        v_i[k']  = Σ_{(k, k')} c_i[(k, k')] · v_{i-1}[k]
        total    = Σ_{k'} v_n[k']

    (with a parallel good-only DP) is an independent reference for the
    planner's tree message passing restricted to paths.
    """
    v: Dict = {}
    for (_, right), (total, good) in factor_pairs[0].items():
        slot = v.setdefault(right, [0.0, 0.0])
        slot[0] += total
        slot[1] += good
    for layer in range(1, len(factor_pairs)):
        nxt: Dict = {}
        for (left, right), (total, good) in factor_pairs[layer].items():
            upstream = v.get(left)
            if upstream is None:
                continue
            slot = nxt.setdefault(right, [0.0, 0.0])
            slot[0] += total * upstream[0]
            slot[1] += good * upstream[1]
        v = nxt
        if not v:
            break
    total = sum(slot[0] for slot in v.values())
    good = sum(slot[1] for slot in v.values())
    return good, total


def _check_multiway_chain_reference(report, scenario, model, configs, efforts):
    """Tree message passing vs the chain DP — same math, two code paths."""
    from ..planner.model import compose_factors, subset_attributes

    graph = model.graph
    order = [n for n in graph.names if len(graph.incident(n)) == 1][:1]
    while len(order) < graph.arity:
        order.append(
            next(m for m in graph.neighbours(order[-1]) if m not in order)
        )
    full = frozenset(graph.names)
    layers = []
    for i, name in enumerate(order):
        attributes = subset_attributes(graph, name, full)
        factors = model.key_factors(configs[name], attributes, efforts[name])
        left = (
            attributes.index(graph.edge_between(order[i - 1], name).attribute_of(name))
            if i > 0
            else None
        )
        right = (
            attributes.index(graph.edge_between(name, order[i + 1]).attribute_of(name))
            if i < len(order) - 1
            else None
        )
        layer: Dict[Tuple, List[float]] = {}
        for key, (total, good) in factors.items():
            pair = (
                key[left] if left is not None else "<start>",
                key[right] if right is not None else "<end>",
            )
            slot = layer.setdefault(pair, [0.0, 0.0])
            slot[0] += total
            slot[1] += good
        layers.append({k: (v[0], v[1]) for k, v in layer.items()})
    chain_good, chain_total = chain_expected_composition(layers)
    tree_total, tree_good = compose_factors(
        graph, full, lambda name, attributes: model.key_factors(
            configs[name], attributes, efforts[name]
        )
    )
    for channel, observed, expected in (
        ("good", tree_good, chain_good),
        ("total", tree_total, chain_total),
    ):
        _band_check(
            report,
            f"multiway-diff/{scenario.name}/chain-vs-tree/{channel}",
            observed=observed,
            expected=expected,
            band=1e-9 * (1.0 + abs(expected)),
            detail="tree message passing vs the chain DP (same float64 math)",
        )


def _check_multiway_enumeration(report, scenario, planner, configs, efforts):
    """Selinger DP vs brute-force tree enumeration — byte-identical plan."""
    from ..planner.enumerator import all_trees, best_tree, tree_cost

    model = planner.model

    def size_of(subset):
        return model.compose(configs, efforts, subset)[0]

    tree, cost = best_tree(planner.graph, size_of, model.t_join)
    reference = min(
        all_trees(planner.graph),
        key=lambda t: (tree_cost(t, size_of, model.t_join), t.describe()),
    )
    _band_check(
        report,
        f"multiway-diff/{scenario.name}/dp-vs-brute/cost",
        observed=cost,
        expected=tree_cost(reference, size_of, model.t_join),
        band=0.0,
        detail="identical association order, so costs are bit-equal",
    )
    report.add(
        CheckResult(
            name=f"multiway-diff/{scenario.name}/dp-vs-brute/shape",
            ok=tree.describe() == reference.describe(),
            observed=float(tree.describe() == reference.describe()),
            expected=1.0,
            band=0.0,
            detail=f"DP {tree.describe()} vs brute force {reference.describe()}",
        )
    )


def _check_multiway_pruning(report, scenario, planner):
    """Pruned vs unpruned planner sweeps — identity, like the binary case."""
    from ..core.preferences import QualityRequirement

    requirements = [
        (scenario.tau_good, scenario.tau_bad),
        (_MULTIWAY_PRUNING_TAUS[scenario.name], 10**9),
    ]
    irrelevance_violations = 0
    pruned_total = 0
    for tau_good, tau_bad in requirements:
        requirement = QualityRequirement(tau_good=tau_good, tau_bad=tau_bad)
        fast = planner.optimize(requirement, prune=True)
        slow = planner.optimize(requirement, prune=False)
        label = (
            f"multiway-diff/{scenario.name}/pruning"
            f"/tg{tau_good:g}-tb{tau_bad:g}"
        )
        fast_time = fast.chosen.total_time if fast.chosen is not None else -1.0
        slow_time = slow.chosen.total_time if slow.chosen is not None else -1.0
        _band_check(
            report,
            f"{label}/chosen-time",
            observed=fast_time,
            expected=slow_time,
            band=0.0,
            detail="pruned and unpruned planners must choose identically",
        )
        if fast.chosen is not None and slow.chosen is not None:
            _band_check(
                report,
                f"{label}/chosen-fraction",
                observed=fast.chosen.effort_fraction,
                expected=slow.chosen.effort_fraction,
                band=0.0,
                detail="identical operating point, not merely the same plan",
            )
        for pruned, reference in zip(fast.evaluations, slow.evaluations):
            if not pruned.pruned:
                continue
            pruned_total += 1
            if reference.feasible:
                irrelevance_violations += 1
    report.add(
        CheckResult(
            name=f"multiway-diff/{scenario.name}/pruned-irrelevance",
            ok=irrelevance_violations == 0,
            observed=float(irrelevance_violations),
            expected=0.0,
            band=0.0,
            detail=(
                f"{pruned_total} bound-pruned assignments checked against "
                "the unpruned reference"
            ),
        )
    )


def check_multiway_differential(
    report: ValidationReport,
    scenarios: Sequence[str] = ("star3", "chain3"),
    theta: float = 0.4,
    n_samples: int = 400,
    seed: int = 7,
    z: float = DEFAULT_Z,
) -> None:
    """The multiway planner's differential family, per seeded scenario.

    Five cross-checks: tree message passing vs the chain DP (exact), the
    Selinger DP vs brute-force tree enumeration (byte-identical), the
    pruned vs unpruned planner sweep (identity, tier-A soundness), the
    composition model vs its Monte-Carlo simulator (CLT bands), and the
    n-ary executor vs both the simulated outcome bracket and an exact
    recomposition of the *realized* per-side factors (integer identity).
    """
    from ..core.plan import RetrievalKind
    from ..core.preferences import QualityRequirement
    from ..experiments.testbed import build_multiway_testbed
    from ..planner import (
        MultiwayPlanner,
        bind_multiway_plan,
        compose_factors,
        simulate_composition,
    )
    from ..planner.plan import (
        ExecutionStrategy,
        MultiwayPlan,
        PlannedEvaluation,
        RelationConfig,
    )
    from ..planner.enumerator import naive_left_deep_tree

    testbed = build_multiway_testbed()
    for scenario_name in scenarios:
        scenario = testbed.scenario(scenario_name)
        graph = scenario.graph
        planner = MultiwayPlanner(graph, scenario.catalog())
        model = planner.model
        configs = {
            name: RelationConfig(
                name=name, theta=theta, retrieval=RetrievalKind.SCAN
            )
            for name in graph.names
        }
        full = model.balanced_efforts(configs, 1.0)
        if graph.is_chain():
            _check_multiway_chain_reference(
                report, scenario, model, configs, full
            )
        _check_multiway_enumeration(report, scenario, planner, configs, full)
        _check_multiway_pruning(report, scenario, planner)

        # Model vs simulation at a mid operating point: the simulator
        # samples the same Binomial thinning the expectations summarize,
        # so the model must sit inside the CLT band of the sample mean.
        mid = model.balanced_efforts(configs, 0.6)
        expected_total, expected_good = model.compose(configs, mid)
        summary = simulate_composition(
            model, configs, mid, samples=n_samples, seed=seed
        )
        for channel, model_value, mean, stderr in (
            ("good", expected_good, summary.mean_good, summary.stderr_good),
            ("total", expected_total, summary.mean_total, summary.stderr_total),
        ):
            _band_check(
                report,
                f"multiway-diff/{scenario.name}/model-vs-sim@0.6/{channel}",
                observed=model_value,
                expected=mean,
                band=z * stderr,
                detail=f"CLT band z={z:g}, n={n_samples}",
            )

        # One real run at full scan effort, uncapped: the executor's
        # joined counts must (a) land inside the simulated outcome
        # bracket and (b) exactly equal the tree DP recomposition of the
        # factors the extractors actually realized on the corpora.
        environment = scenario.environment()
        evaluation = PlannedEvaluation(
            plan=MultiwayPlan(
                strategy=ExecutionStrategy.PIPELINE,
                configs=tuple(configs[name] for name in graph.names),
                tree=naive_left_deep_tree(graph),
            ),
            feasible=True,
            effort_fraction=1.0,
            efforts=dict(full),
        )
        executor = bind_multiway_plan(environment, graph, evaluation)
        composition = executor.run(
            QualityRequirement(tau_good=10**9, tau_bad=10**12)
        ).report.composition
        at_full = simulate_composition(
            model, configs, full, samples=n_samples, seed=seed
        )
        lo, hi = at_full.min_good, at_full.max_good
        _band_check(
            report,
            f"multiway-diff/{scenario.name}/executor-vs-sim/good",
            observed=float(composition.n_good),
            expected=(hi + lo) / 2.0,
            band=(hi - lo) / 2.0,
            detail=(
                f"empirical bracket of {n_samples} draws [{lo:.0f}, {hi:.0f}]"
            ),
        )
        realized = _multiway_realized_factors(graph, environment, configs)
        realized_total, realized_good = compose_factors(
            graph,
            frozenset(graph.names),
            lambda name, attributes: realized[name],
        )
        for channel, observed, expected in (
            ("good", float(composition.n_good), realized_good),
            ("bad", float(composition.n_bad), realized_total - realized_good),
            ("total", float(composition.n_total), realized_total),
        ):
            _band_check(
                report,
                f"multiway-diff/{scenario.name}"
                f"/executor-vs-realized-dp/{channel}",
                observed=observed,
                expected=expected,
                band=0.0,
                detail=(
                    "incremental n-ary composition vs the tree DP over "
                    "realized per-side factors — integer identity"
                ),
            )


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------


def run_validation(
    scale: float = 0.6,
    seed: int = 11,
    theta: float = 0.4,
    n_samples: int = 4000,
    sim_seed: int = 0,
    z: float = DEFAULT_Z,
    tasks: Sequence[Tuple[str, str]] = (("HQ", "EX"),),
    out_path: Optional[str] = None,
    fuzz: bool = True,
    multiway: bool = True,
) -> ValidationReport:
    """Run every differential family over a seeded testbed grid.

    Installs a *collecting* invariant checker for the duration, so the
    report carries both differential failures and runtime invariant
    violations; restores the previous checker on exit.
    """
    report = ValidationReport(
        config={
            "scale": scale,
            "seed": seed,
            "theta": theta,
            "n_samples": n_samples,
            "sim_seed": sim_seed,
            "z": z,
            "tasks": [list(pair) for pair in tasks],
            "multiway": multiway,
        }
    )
    checker = InvariantChecker(enabled=True, raise_on_violation=False)
    previous = install_checker(checker)
    try:
        testbed = build_testbed(TestbedConfig(seed=seed, scale=scale))
        for relation1, relation2 in tasks:
            task = testbed.task(relation1=relation1, relation2=relation2)
            check_model_vs_simulation(
                report,
                task,
                theta=theta,
                n_samples=n_samples,
                seed=sim_seed,
                z=z,
            )
            check_idjn_vs_executor(
                report,
                task,
                theta=theta,
                n_samples=n_samples,
                seed=sim_seed,
            )
            check_approximate_models_vs_executor(report, task, theta=theta)
            check_kernel_differential(report, task, theta=theta)
            check_aqg_reach_differential(report, task, theta=theta)
            check_pruning_differential(report, task)
        check_mle_fit_differential(report, seed=sim_seed)
        if multiway:
            check_multiway_differential(
                report,
                theta=theta,
                n_samples=max(200, n_samples // 10),
                seed=sim_seed,
                z=z,
            )
        if fuzz:
            from .fuzz import run_fuzz

            fuzz_summary = run_fuzz(seed=seed)
            report.invariants["fuzz"] = fuzz_summary
            report.add(
                CheckResult(
                    name="fuzz/json-surfaces",
                    ok=fuzz_summary["failures_total"] == 0,
                    observed=float(fuzz_summary["failures_total"]),
                    expected=0.0,
                    band=0.0,
                    detail=(
                        f"{fuzz_summary['trials_total']} deterministic "
                        "mutations over store/request/checkpoint surfaces"
                    ),
                )
            )
    finally:
        install_checker(previous)
    report.invariants.update(checker.summary())
    if out_path is not None:
        report.write(out_path)
    return report


__all__ = [
    "ABS_SLACK",
    "DEFAULT_Z",
    "CheckResult",
    "ValidationReport",
    "check_aqg_reach_differential",
    "check_approximate_models_vs_executor",
    "check_idjn_vs_executor",
    "check_kernel_differential",
    "check_mle_fit_differential",
    "check_model_vs_simulation",
    "check_multiway_differential",
    "check_pruning_differential",
    "run_validation",
]
