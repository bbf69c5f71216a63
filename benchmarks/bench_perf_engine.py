"""Performance benchmark: pruned optimizer vs. the scalar reference path.

Times two workloads against the same catalog, once with the production
optimizer (the bound-pruned descent, one optimizer shared across the
sweep) and once with the scalar reference path
(:class:`~repro.validation.differential.ReferenceJoinOptimizer`: the
scalar reference models and a per-requirement bisection, unpruned):

* ``plan_space_optimization`` — a single cold ``optimize()`` over the full
  plan space;
* ``tau_sweep`` — a dense (τg, τb) requirement grid over the plan space,
  the workload behind Table II and the requirement sweeps.

The scalar path is the expensive denominator, and it never changes unless
the models do — so its timings and a fingerprint of its chosen plans are
cached in ``benchmarks/results/scalar_baseline.json`` keyed by
``(scale, seed, taus)``.  A normal run measures only the pruned path and
checks its result fingerprint against the cached baseline; pass
``--rebaseline`` (or use an uncached key) to re-run the scalar sweep,
verify full equivalence in memory, and refresh the cache.

Equivalence is checked before any timing is trusted: the pruned run must
choose the identical plan at the identical operating point for every
requirement, every fully-evaluated plan must match the scalar evaluation,
and every pruned-away plan must be provably irrelevant (infeasible or
strictly slower than the chosen plan) in the scalar reference.

Results are written to ``BENCH_perf.json`` at the repository root, and a
bound-tightness report — the tier-A bound vs. the model's actual
full-effort prediction per plan, summarized as a max q-error — lands
next to it in ``BENCH_perf_bounds.json``.

Run standalone for the full-scale numbers::

    PYTHONPATH=src python benchmarks/bench_perf_engine.py --scale 1.0

or via pytest (small scale, asserts the pruned path is not slower)::

    PYTHONPATH=src python -m pytest benchmarks/bench_perf_engine.py
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import time
from typing import List, Optional, Sequence, Tuple

from repro.core import QualityRequirement
from repro.models.distributions import probability_none_extracted
from repro.optimizer import JoinOptimizer, enumerate_plans
from repro.validation.differential import ReferenceJoinOptimizer

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULT_PATH = ROOT / "BENCH_perf.json"
BOUNDS_PATH = ROOT / "BENCH_perf_bounds.json"
BASELINE_PATH = ROOT / "benchmarks" / "results" / "scalar_baseline.json"


def sweep_requirements(n_taus: int = 48) -> List[QualityRequirement]:
    """The dense (τg, τb) grid: n_taus good targets × {tight, lax} bad."""
    return [
        QualityRequirement(tau_good=good, tau_bad=bad)
        for good in range(2, 2 + 4 * n_taus, 4)
        for bad in (100, 100000)
    ]


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------


def result_fingerprint(results) -> str:
    """Digest of the per-requirement chosen operating points.

    Round-trips through JSON so the digest is reproducible across runs
    and machines; fractions are exact dyadic bisection midpoints, so nine
    decimals identify them exactly.
    """
    rows = []
    for result in results:
        chosen = result.chosen
        if chosen is None:
            rows.append(None)
        else:
            rows.append(
                [
                    chosen.plan.describe(),
                    round(chosen.effort_fraction, 9),
                    round(chosen.prediction.n_good, 2),
                ]
            )
    canonical = json.dumps(rows, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()


def _check_equivalent(pruned_results, scalar_results) -> None:
    """Pruned results must be indistinguishable from the scalar reference.

    Fully-evaluated plans must match the scalar evaluation; plans the
    pruning layer discarded (``pruned=True``) must be provably irrelevant
    in the reference: infeasible, or strictly slower than the chosen plan.
    """
    for fast, slow in zip(pruned_results, scalar_results):
        assert (fast.chosen is None) == (slow.chosen is None), (
            fast.requirement
        )
        chosen_time = (
            slow.chosen.predicted_time if slow.chosen is not None else None
        )
        for a, b in zip(fast.evaluations, slow.evaluations):
            assert a.plan == b.plan
            if getattr(a, "pruned", False):
                assert (not b.feasible) or (
                    chosen_time is not None
                    and b.predicted_time > chosen_time
                ), a.plan
                continue
            assert a.feasible == b.feasible, a.plan
            if not a.feasible:
                continue
            assert abs(a.effort_fraction - b.effort_fraction) <= 1e-12, a.plan
            good_tolerance = 1e-9 * max(1.0, abs(b.prediction.n_good))
            assert (
                abs(a.prediction.n_good - b.prediction.n_good)
                <= good_tolerance
            ), a.plan


# ---------------------------------------------------------------------------
# scalar baseline cache
# ---------------------------------------------------------------------------


def _baseline_key(scale: float, seed: int, taus: int) -> str:
    return f"scale={scale}:seed={seed}:taus={taus}"


def load_baseline(
    scale: float, seed: int, taus: int, path: pathlib.Path = BASELINE_PATH
) -> Optional[dict]:
    """The cached scalar entry for (scale, seed, taus), or None."""
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    entry = payload.get("entries", {}).get(_baseline_key(scale, seed, taus))
    if not isinstance(entry, dict):
        return None
    if {"seconds", "fingerprint"} - set(entry):
        return None
    return entry


def store_baseline(
    scale: float,
    seed: int,
    taus: int,
    entry: dict,
    path: pathlib.Path = BASELINE_PATH,
) -> None:
    payload = {"benchmark": "bench_perf_engine", "entries": {}}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
            if isinstance(existing.get("entries"), dict):
                payload["entries"] = existing["entries"]
        except (OSError, ValueError):
            pass
    payload["entries"][_baseline_key(scale, seed, taus)] = entry
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def _fresh_optimizer(task, optimizer_class=JoinOptimizer) -> JoinOptimizer:
    # Each measurement starts cold: fresh optimizer (per-plan memos, side
    # cache, curves, bounds) and a cleared scalar pmf cache, so the two
    # paths and the two workloads don't warm each other.
    probability_none_extracted.cache_clear()
    return optimizer_class(task.catalog(), costs=task.costs)


def _timed_sweep(task, plans, requirements, optimizer_class=JoinOptimizer):
    optimizer = _fresh_optimizer(task, optimizer_class)
    plans = list(plans)
    start = time.perf_counter()
    results = [
        optimizer.optimize(plans, requirement) for requirement in requirements
    ]
    return time.perf_counter() - start, results, optimizer


def run_perf_bench(
    task,
    requirements: Sequence[QualityRequirement],
    plans=None,
    *,
    scale: float,
    seed: int = 11,
    rebaseline: bool = False,
    baseline_path: pathlib.Path = BASELINE_PATH,
    write_baseline: bool = True,
) -> Tuple[List[dict], dict]:
    """Time the pruned path on both workloads against the scalar baseline.

    Returns ``(op_records, bounds_report)``.  The scalar path runs only
    when *rebaseline* is set or no cached baseline matches the pruned
    run's result fingerprint; otherwise its cached seconds are the
    denominator and the fingerprint match is the equivalence check.
    """
    if plans is None:
        plans = enumerate_plans(task.extractor1.name, task.extractor2.name)
    taus = sum(1 for r in requirements if r.tau_bad == 100)
    workloads = [
        ("plan_space_optimization", list(requirements[:1])),
        ("tau_sweep", list(requirements)),
    ]

    measured: dict = {}
    sweep_optimizer = None
    for op, workload in workloads:
        seconds, results, optimizer = _timed_sweep(task, plans, workload)
        measured[op] = (seconds, results)
        if op == "tau_sweep":
            sweep_optimizer = optimizer

    sweep_results = measured["tau_sweep"][1]
    fingerprint = result_fingerprint(sweep_results)

    baseline = None
    if not rebaseline:
        baseline = load_baseline(scale, seed, taus, baseline_path)
        if baseline is not None and baseline["fingerprint"] != fingerprint:
            # Stale cache (models changed): fall back to a full re-measure.
            baseline = None

    if baseline is None:
        scalar_seconds: dict = {}
        for op, workload in workloads:
            seconds, results, _ = _timed_sweep(
                task, plans, workload, ReferenceJoinOptimizer
            )
            _check_equivalent(measured[op][1], results)
            scalar_seconds[op] = seconds
        baseline = {
            "seconds": scalar_seconds,
            "fingerprint": fingerprint,
            "plans": len(plans),
            "requirements": len(requirements),
        }
        if write_baseline:
            store_baseline(scale, seed, taus, baseline, baseline_path)
        scalar_source = "measured"
    else:
        scalar_source = "baseline"

    records = []
    for op, workload in workloads:
        pruned_seconds = measured[op][0]
        scalar_seconds = baseline["seconds"][op]
        records.append(
            {
                "op": op,
                "plans": len(plans),
                "requirements": len(workload),
                "seconds_pruned": pruned_seconds,
                "seconds_scalar": scalar_seconds,
                "scalar_source": scalar_source,
                "speedup": scalar_seconds / pruned_seconds,
            }
        )
    bounds_report = bound_tightness_report(
        task, plans, scale=scale, seed=seed, sweep_optimizer=sweep_optimizer
    )
    return records, bounds_report


# ---------------------------------------------------------------------------
# bound tightness (q-error)
# ---------------------------------------------------------------------------


def bound_tightness_report(
    task, plans, *, scale: float, seed: int, sweep_optimizer=None
) -> dict:
    """Tier-A bound vs. actual full-effort prediction, per plan.

    The q-error is ``bound / actual`` (≥ 1 when the bound is sound); a
    bound below the actual value is a soundness violation and is counted
    separately.  Computed outside any timed region.
    """
    optimizer = _fresh_optimizer(task)
    rows = []
    q_errors = []
    violations = 0
    for plan in plans:
        bounds = optimizer.plan_bounds(plan)
        prediction = optimizer.predict_full_effort(plan)
        if bounds is None or prediction is None:
            continue
        row = {
            "plan": plan.describe(),
            "good_upper": bounds.good_upper,
            "actual_good": prediction.n_good,
            "bad_upper": bounds.bad_upper,
            "actual_bad": prediction.n_bad,
        }
        for bound, actual, key in (
            (bounds.good_upper, prediction.n_good, "q_error_good"),
            (bounds.bad_upper, prediction.n_bad, "q_error_bad"),
        ):
            if actual > 0.0 and bound > 0.0:
                q = bound / actual
                row[key] = q
                q_errors.append(q)
                if q < 1.0 - 1e-9:
                    violations += 1
        rows.append(row)
    report = {
        "benchmark": "bench_perf_engine",
        "report": "bound_tightness",
        "scale": scale,
        "seed": seed,
        "plans_bounded": len(rows),
        "max_q_error": max(q_errors) if q_errors else None,
        "min_q_error": min(q_errors) if q_errors else None,
        "soundness_violations": violations,
        "rows": rows,
    }
    if sweep_optimizer is not None:
        report["sweep_pruning"] = sweep_optimizer.pruning.as_dict()
    return report


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def write_results(records: List[dict], scale: float, path=RESULT_PATH) -> None:
    payload = {"benchmark": "bench_perf_engine", "scale": scale, "ops": records}
    path.write_text(json.dumps(payload, indent=2) + "\n")
    metrics_path = path.parent / (path.stem + ".metrics.txt")
    metrics_path.write_text(render_metrics(records))


def write_bounds_report(report: dict, path=BOUNDS_PATH) -> None:
    path.write_text(json.dumps(report, indent=2) + "\n")


def render_metrics(records: List[dict]) -> str:
    """The op records in Prometheus text form — the exact seconds the JSON
    carries, rendered the way ``--metrics-out`` and the benchmark session
    dump render theirs, so the two artifacts can be diffed directly."""
    from repro.observability import MetricsRegistry

    registry = MetricsRegistry()
    for record in records:
        for path_label, key in (
            ("pruned", "seconds_pruned"),
            ("scalar", "seconds_scalar"),
        ):
            registry.gauge(
                "bench_seconds",
                benchmark="bench_perf_engine",
                op=record["op"],
                path=path_label,
            ).set(record[key])
        registry.gauge(
            "bench_speedup", benchmark="bench_perf_engine", op=record["op"]
        ).set(record["speedup"])
    return registry.render()


def _format(records: List[dict]) -> str:
    lines = []
    for record in records:
        lines.append(
            f"{record['op']}: {record['seconds_pruned']:.3f}s pruned"
            f" vs {record['seconds_scalar']:.3f}s scalar"
            f" [{record['scalar_source']}]"
            f" ({record['speedup']:.1f}x, {record['plans']} plans,"
            f" {record['requirements']} requirements)"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# pytest entry point (small scale; CI perf-smoke)
# ---------------------------------------------------------------------------


def test_perf_engine(task, report_sink, bench_timings):
    records, bounds_report = run_perf_bench(
        task,
        sweep_requirements(n_taus=16),
        scale=0.6,  # the session testbed's scale
        write_baseline=False,  # pytest never mutates the committed cache
    )
    write_results(records, scale=0.6)
    write_bounds_report(bounds_report)
    for record in records:
        bench_timings.record(
            "bench_perf_engine",
            record["op"],
            record["seconds_pruned"],
            path="pruned",
        )
        bench_timings.record(
            "bench_perf_engine",
            record["op"],
            record["seconds_scalar"],
            path="scalar",
        )
    report_sink("perf_engine", _format(records))
    assert bounds_report["soundness_violations"] == 0
    sweep = next(r for r in records if r["op"] == "tau_sweep")
    # The pruned path must not lose to the scalar reference on the sweep
    # workload at any scale; full-scale runs show ≥30x.
    assert sweep["speedup"] >= 1.0


# ---------------------------------------------------------------------------
# standalone entry point (full scale)
# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--taus", type=int, default=48, help="τg grid size for the sweep"
    )
    parser.add_argument(
        "--rebaseline",
        action="store_true",
        help="re-run the scalar reference and refresh the cached baseline",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="exit non-zero if the sweep speedup lands below this",
    )
    parser.add_argument("--out", type=pathlib.Path, default=RESULT_PATH)
    parser.add_argument(
        "--bounds-out", type=pathlib.Path, default=BOUNDS_PATH
    )
    args = parser.parse_args(argv)

    from repro.experiments import TestbedConfig, build_testbed

    testbed = build_testbed(TestbedConfig(seed=args.seed, scale=args.scale))
    records, bounds_report = run_perf_bench(
        testbed.task(),
        sweep_requirements(n_taus=args.taus),
        scale=args.scale,
        seed=args.seed,
        rebaseline=args.rebaseline,
    )
    write_results(records, scale=args.scale, path=args.out)
    write_bounds_report(bounds_report, path=args.bounds_out)
    print(_format(records))
    print(
        f"bound tightness: max q-error "
        f"{bounds_report['max_q_error']:.3f} over "
        f"{bounds_report['plans_bounded']} plans, "
        f"{bounds_report['soundness_violations']} soundness violations"
    )
    print(f"[written to {args.out} and {args.bounds_out}]")
    if bounds_report["soundness_violations"]:
        print("FAIL: tier-A bound below the actual full-effort prediction")
        return 1
    if args.min_speedup is not None:
        sweep = next(r for r in records if r["op"] == "tau_sweep")
        if sweep["speedup"] < args.min_speedup:
            print(
                f"FAIL: sweep speedup {sweep['speedup']:.2f}x below "
                f"required {args.min_speedup:.2f}x"
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
