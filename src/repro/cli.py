"""Command-line interface.

Exposes the experiment harness and the optimizer without writing Python::

    repro figures --figure 9            # estimated-vs-actual sweep tables
    repro table2 --rows 8               # the optimizer-choice table
    repro characterize                  # tp/fp knob curves per relation
    repro optimize --tau-good 50 --tau-bad 1000
    repro adaptive --tau-good 80 --tau-bad 2000
    repro budget --time 2000 --precision-weight 0.8
    repro serve --port 8023 --store /tmp/join-stats
    repro submit --tau-good 40 --tau-bad 1000 --deadline 5000 --retries 3
    repro loadtest --requests 200 --concurrency 16 --chaos

All commands operate on the canonical testbed (``--scale`` / ``--seed``
control its size and randomness).  Installed as the ``repro`` console
script; also runnable via ``python -m repro``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import traceback
from typing import Optional, Sequence

from .core import QualityRequirement
from .observability import (
    ObservabilityContext,
    configure_logging,
    get_logger,
)
from .observability.logs import LEVELS
from .experiments import (
    CHARACTERIZATION_THETAS,
    MULTIWAY_SCENARIOS,
    TABLE2_REQUIREMENTS,
    TestbedConfig,
    build_multiway_testbed,
    build_testbed,
    format_accuracy_rows,
    format_documents_rows,
    format_frontier,
    format_table,
    format_table2_rows,
    quality_frontier,
    run_figure9,
    run_figure10,
    run_figure11,
    run_figure12,
    run_table2,
)
from .optimizer import (
    AdaptiveJoinExecutor,
    JoinOptimizer,
    bind_plan,
    enumerate_plans,
)
from .robustness import FaultProfile, RetryPolicy, harden
from .validation.invariants import ENV_FLAG, enable_selfcheck

#: diagnostics logger — everything here goes to stderr, level-filtered by
#: ``-v/--log-level``; machine-readable results stay on stdout via print
_LOG = get_logger("cli")


def _add_testbed_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        type=float,
        default=0.6,
        help="testbed scale factor (default 0.6; 1.0 ≈ a thousand docs/db)",
    )
    parser.add_argument(
        "--seed", type=int, default=11, help="testbed world seed"
    )


def _add_scenario_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario",
        choices=MULTIWAY_SCENARIOS,
        default=None,
        help=(
            "plan a multiway (n-ary) join scenario instead of the binary "
            "HQ ⋈ EX task; the multiway testbed has its own seed and "
            "scale, so --scale/--seed are ignored"
        ),
    )


def _add_workers_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "evaluate plans in N forked processes (default serial; "
            "results are identical either way)"
        ),
    )


def _add_prune_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-prune",
        action="store_true",
        help=(
            "disable bound-based plan pruning and evaluate every "
            "candidate in full (the chosen plan is identical either "
            "way; this is the differential-validation escape hatch)"
        ),
    )


def _add_resilience_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fault-profile",
        default="none",
        help=(
            "inject database faults: 'none', a bare transient rate "
            "('0.1'), or 'transient=0.1,timeout=0.05,...' pairs"
        ),
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for the deterministic fault stream and retry jitter",
    )
    parser.add_argument(
        "--retry-budget",
        type=int,
        default=None,
        help="total retries allowed across the whole run (default unlimited)",
    )


def _add_logging_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="shorthand for --log-level debug",
    )
    parser.add_argument(
        "--log-level",
        default="info",
        choices=sorted(LEVELS),
        help="diagnostics verbosity on stderr (default info)",
    )
    parser.add_argument(
        "--selfcheck",
        action="store_true",
        help=(
            "enforce runtime invariants (models, curves, executors, "
            "estimator, store); violations abort with a diagnostic. "
            f"Equivalent to {ENV_FLAG}=1"
        ),
    )


def _add_observability_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help=(
            "write a JSONL span log to PATH plus a Chrome trace "
            "(PATH.chrome.json; open in chrome://tracing or Perfetto)"
        ),
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write a Prometheus-style metrics text dump to PATH",
    )


def _configure_logging(args: argparse.Namespace) -> None:
    level = (
        "debug"
        if getattr(args, "verbose", False)
        else getattr(args, "log_level", "info")
    )
    configure_logging(level)


def _observability_from(args: argparse.Namespace) -> Optional[ObservabilityContext]:
    """A live context when ``--trace``/``--metrics-out`` ask for one.

    Returns None otherwise so the whole stack keeps the shared no-op
    context — flag-free runs stay byte-identical to pre-observability ones.
    """
    if getattr(args, "trace", None) is None and (
        getattr(args, "metrics_out", None) is None
    ):
        return None
    return ObservabilityContext()


def _write_observability(
    observability: Optional[ObservabilityContext], args: argparse.Namespace
) -> None:
    if observability is None:
        return
    trace = getattr(args, "trace", None)
    if trace is not None:
        written = observability.write_trace(trace)
        _LOG.info(
            "Trace written to %s (Chrome trace: %s)",
            written["jsonl"],
            written["chrome"],
        )
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out is not None:
        observability.write_metrics(metrics_out)
        _LOG.info("Metrics written to %s", metrics_out)


def _maybe_harden(environment, args: argparse.Namespace):
    """Wire fault injection + resilience in, or pass through untouched.

    With the default flags the environment is returned unchanged, so
    fault-free runs stay byte-identical to runs without the flags at all.
    """
    profile = FaultProfile.parse(args.fault_profile, seed=args.fault_seed)
    if profile.disabled and args.retry_budget is None:
        return environment
    policy = RetryPolicy(retry_budget=args.retry_budget, seed=args.fault_seed)
    return harden(environment, profile=profile, policy=policy)


def _log_resilience(report) -> None:
    resilience = report.resilience
    if resilience is None:
        return
    _LOG.info(
        "Resilience: %d faults injected, %d retries (+%.0fs backoff), "
        "%d operations failed, %d documents lost, %d breaker opens",
        resilience.total_faults,
        resilience.retries,
        resilience.backoff_time,
        resilience.failed_operations,
        resilience.documents_lost,
        resilience.breaker_opens,
    )


def _testbed_task(args: argparse.Namespace):
    testbed = build_testbed(TestbedConfig(seed=args.seed, scale=args.scale))
    return testbed, testbed.task()


def _cmd_figures(args: argparse.Namespace) -> int:
    _, task = _testbed_task(args)
    observability = _observability_from(args)
    percents = tuple(range(10, 101, args.step))
    runners = {
        9: (run_figure9, format_accuracy_rows, "Figure 9 — IDJN (Scan/Scan)"),
        10: (run_figure10, format_accuracy_rows, "Figure 10 — OIJN (Scan outer)"),
        11: (run_figure11, format_accuracy_rows, "Figure 11 — ZGJN"),
        12: (run_figure12, format_documents_rows, "Figure 12 — ZGJN documents"),
    }
    figures = [args.figure] if args.figure else [9, 10, 11, 12]
    for figure in figures:
        runner, formatter, title = runners[figure]
        rows = runner(task, percents=percents, observability=observability)
        print(formatter(rows, title))
        print()
    _write_observability(observability, args)
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    _, task = _testbed_task(args)
    requirements = TABLE2_REQUIREMENTS[: args.rows] if args.rows else TABLE2_REQUIREMENTS
    rows = run_table2(task, requirements=requirements)
    print(format_table2_rows(rows, "Table II — optimizer choices (HQ ⋈ EX)"))
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    testbed, _ = _testbed_task(args)
    for relation in sorted(testbed.characterizations):
        char = testbed.characterizations[relation]
        rows = [
            (theta, f"{char.tp_at(theta):.3f}", f"{char.fp_at(theta):.3f}")
            for theta in CHARACTERIZATION_THETAS
        ]
        print(format_table([f"θ ({relation})", "tp(θ)", "fp(θ)"], rows))
        print()
    return 0


def _publish_planner_tallies(observability, tallies) -> None:
    """Expose a multiway planning run's search tallies as metrics."""
    if observability is None:
        return
    for name, value in sorted(tallies.as_counters().items()):
        if value > 0:
            observability.metrics.counter(f"repro_{name}_total").inc(value)


def _cmd_optimize_multiway(args: argparse.Namespace) -> int:
    """``repro optimize --scenario ...``: the n-ary planner path."""
    from .planner import MultiwayPlanner, bind_multiway_plan

    scenario = build_multiway_testbed().scenario(args.scenario)
    requirement = QualityRequirement(
        tau_good=args.tau_good, tau_bad=args.tau_bad
    )
    observability = _observability_from(args)
    planner = MultiwayPlanner(
        scenario.graph, scenario.catalog(), feasibility_margin=args.margin
    )
    result = planner.optimize(requirement, prune=not args.no_prune)
    _publish_planner_tallies(observability, result.tallies)
    tallies = result.tallies
    print(f"Graph: {scenario.graph.describe()}")
    counts = (
        f"Candidates: {tallies.assignments}; feasible: "
        f"{sum(1 for e in result.evaluations if e.feasible)}; "
        f"plan space: {tallies.plan_space}"
    )
    if tallies.subplans_pruned_bound:
        counts += (
            f"; subplans pruned: {tallies.subplans_pruned_bound} "
            f"({tallies.pruned_fraction:.0%})"
        )
    print(counts)
    if result.chosen is None:
        print("No multiway plan is predicted to meet the requirement.")
        _write_observability(observability, args)
        return 1
    chosen = result.chosen
    print(f"Chosen: {chosen.plan.describe()}")
    print(
        f"Predicted: {chosen.good:.0f} good / {chosen.bad:.0f} bad in "
        f"{chosen.total_time:.0f}s"
    )
    if args.execute:
        environment = scenario.environment()
        environment.observability = observability
        executor = bind_multiway_plan(
            environment, scenario.graph, chosen, model=planner.model
        )
        report = executor.run(requirement).report
        print(f"Actual:    {report.summary()}")
        print(f"Requirement met: {report.check(requirement)}")
    _write_observability(observability, args)
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    if args.scenario is not None:
        return _cmd_optimize_multiway(args)
    _, task = _testbed_task(args)
    requirement = QualityRequirement(
        tau_good=args.tau_good, tau_bad=args.tau_bad
    )
    observability = _observability_from(args)
    plans = enumerate_plans(task.extractor1.name, task.extractor2.name)
    optimizer = JoinOptimizer(
        task.catalog(),
        costs=task.costs,
        feasibility_margin=args.margin,
        observability=observability,
    )
    result = optimizer.optimize(
        plans, requirement, workers=args.workers, prune=not args.no_prune
    )
    if result.chosen is None:
        print("No plan is predicted to meet the requirement.")
        _write_observability(observability, args)
        return 1
    chosen = result.chosen
    pruned = sum(1 for e in result.evaluations if e.pruned)
    counts = f"Candidates: {len(plans)}; feasible: {len(result.feasible)}"
    if pruned:
        counts += f"; pruned without full evaluation: {pruned}"
    print(counts)
    print(f"Chosen: {chosen.plan.describe()}")
    print(
        f"Predicted: {chosen.prediction.n_good:.0f} good / "
        f"{chosen.prediction.n_bad:.0f} bad in "
        f"{chosen.prediction.total_time:.0f}s"
    )
    if args.execute:
        environment = task.environment(
            chosen.plan.extractor1.theta, chosen.plan.extractor2.theta
        )
        environment.observability = observability
        environment = _maybe_harden(environment, args)
        executor = bind_plan(environment, chosen.plan)
        report = executor.run(requirement=requirement).report
        print(f"Actual:    {report.summary()}")
        _log_resilience(report)
        print(f"Requirement met: {report.check(requirement)}")
    _write_observability(observability, args)
    return 0


def _cmd_budget(args: argparse.Namespace) -> int:
    from .observability import SpanKind
    from .observability.context import ensure_observability

    _, task = _testbed_task(args)
    observability = _observability_from(args)
    plans = enumerate_plans(task.extractor1.name, task.extractor2.name)
    optimizer = JoinOptimizer(
        task.catalog(), costs=task.costs, observability=observability
    )
    with ensure_observability(observability).span(
        SpanKind.EXPERIMENT,
        "budget",
        time_budget=args.time,
        precision_weight=args.precision_weight,
    ):
        result = optimizer.optimize_within_time(
            plans, args.time, precision_weight=args.precision_weight
        )
    optimizer.scrape_cache_metrics()
    if result.chosen is None:
        print("No plan produces output within the budget.")
        _write_observability(observability, args)
        return 1
    chosen = result.chosen
    prediction = chosen.prediction
    total = prediction.n_good + prediction.n_bad
    precision = prediction.n_good / total if total else 1.0
    print(f"Chosen: {chosen.plan.describe()}")
    print(
        f"Predicted within {args.time:.0f}s: {prediction.n_good:.0f} good / "
        f"{prediction.n_bad:.0f} bad (precision {precision:.2f}) in "
        f"{prediction.total_time:.0f}s"
    )
    _write_observability(observability, args)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments import write_report

    _, task = _testbed_task(args)
    path = write_report(task, args.output, table2_rows=args.rows)
    print(f"Report written to {path}")
    return 0


def _cmd_frontier_multiway(args: argparse.Namespace) -> int:
    """``repro frontier --scenario ...``: τg sweep through the planner."""
    from .planner import MultiwayPlanner

    scenario = build_multiway_testbed().scenario(args.scenario)
    observability = _observability_from(args)
    planner = MultiwayPlanner(
        scenario.graph, scenario.catalog(), feasibility_margin=0.15
    )
    tau_goods = sorted(
        {
            max(1, scenario.tau_good // 4),
            max(1, scenario.tau_good // 2),
            scenario.tau_good,
            scenario.tau_good * 2,
        }
    )
    sweep = planner.frontier(
        tau_goods, scenario.tau_bad, prune=not args.no_prune
    )
    print(
        f"Multiway frontier for {scenario.name}: "
        f"{scenario.graph.describe()} (τb={scenario.tau_bad})"
    )
    print(f"{'τg':>6}  {'feasible':>8}  {'time':>8}  plan")
    for tau_good, result in sweep:
        _publish_planner_tallies(observability, result.tallies)
        if result.chosen is None:
            print(f"{tau_good:>6}  {'no':>8}  {'-':>8}  -")
            continue
        chosen = result.chosen
        print(
            f"{tau_good:>6}  {'yes':>8}  {chosen.total_time:>8.0f}  "
            f"{chosen.plan.describe()}"
        )
    _write_observability(observability, args)
    return 0


def _cmd_frontier(args: argparse.Namespace) -> int:
    if args.scenario is not None:
        return _cmd_frontier_multiway(args)
    _, task = _testbed_task(args)
    observability = _observability_from(args)
    plans = enumerate_plans(task.extractor1.name, task.extractor2.name)
    frontier = quality_frontier(
        task.catalog(),
        plans,
        costs=task.costs,
        workers=args.workers,
        observability=observability,
        prune=not args.no_prune,
    )
    print(
        format_frontier(
            frontier, "Quality/time frontier (Pareto-optimal operating points)"
        )
    )
    _write_observability(observability, args)
    return 0


def _cmd_adaptive(args: argparse.Namespace) -> int:
    _, task = _testbed_task(args)
    requirement = QualityRequirement(
        tau_good=args.tau_good, tau_bad=args.tau_bad
    )
    observability = _observability_from(args)
    environment = task.environment()
    environment.observability = observability
    adaptive = AdaptiveJoinExecutor(
        environment=_maybe_harden(environment, args),
        characterization1=task.characterization1,
        characterization2=task.characterization2,
        plans=enumerate_plans(task.extractor1.name, task.extractor2.name),
        pilot_documents=args.pilot,
        classifier_profile1=task.offline_classifier_profile1,
        classifier_profile2=task.offline_classifier_profile2,
        query_stats1=task.offline_query_stats1,
        query_stats2=task.offline_query_stats2,
        feasibility_margin=args.margin,
    )
    result = adaptive.run(requirement)
    if result.chosen is None:
        print("Adaptive optimizer found no feasible plan.")
        _write_observability(observability, args)
        return 1
    print(f"Pilot rounds: {result.rounds}")
    print(f"Chosen: {result.chosen.plan.describe()}")
    report = result.execution.report
    print(f"Actual: {report.summary()}")
    _log_resilience(report)
    if result.degraded_paths:
        _LOG.warning(
            "Degraded around dead access paths: %s (+%.0fs re-accounted)",
            ", ".join(result.degraded_paths),
            result.wasted_time,
        )
    print(f"Requirement met: {report.check(requirement)}")
    print(f"Total simulated time: {result.total_time:.0f}s")
    _write_observability(observability, args)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .robustness.checkpoint import CheckpointManager
    from .service import JoinService
    from .service.asyncio_frontend import serve_async, shutdown_async

    _, task = _testbed_task(args)
    checkpoints = None
    if args.checkpoint_dir is not None:
        checkpoints = CheckpointManager(
            args.checkpoint_dir,
            max_count=args.checkpoint_keep,
            max_age=args.checkpoint_max_age,
            grace=args.checkpoint_grace,
        )
    profile = FaultProfile.parse(args.fault_profile, seed=args.fault_seed)
    multiway = None
    if args.multiway_scenario is not None:
        multiway = build_multiway_testbed().scenario(args.multiway_scenario)
    service = JoinService(
        task,
        args.store,
        workers=args.service_workers,
        queue_limit=args.queue_limit,
        pilot_documents=args.pilot,
        margin=args.margin,
        trace_dir=args.trace_dir,
        checkpoints=checkpoints,
        fault_profile=None if profile.disabled else profile,
        slo=args.slo,
        flight_capacity=args.flight_capacity,
        flight_spill=args.flight_spill,
        trace_sample=args.trace_sample,
        trace_keep=args.trace_keep,
        trace_grace=args.trace_grace,
        multiway=multiway,
    )
    if service.pruned_checkpoints:
        _LOG.info(
            "Pruned %d stale checkpoint(s) at startup",
            len(service.pruned_checkpoints),
        )
    server = serve_async(
        service,
        host=args.host,
        port=args.port,
        request_timeout=args.request_timeout,
    )
    host, port = server.server_address[:2]

    def _drain_on_signal(signum, frame):
        raise KeyboardInterrupt(signal.Signals(signum).name)

    # SIGTERM's default action kills without draining, and a server
    # started with ``&`` from a non-interactive shell inherits SIGINT as
    # ignored: route both to the drain below.
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, _drain_on_signal)
    print(
        f"Serving {task.name} on http://{host}:{port} "
        f"(store: {service.store.root})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt as stop:
        _LOG.info("%s; draining the request queue", stop)
    finally:
        shutdown_async(server)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .service.http import request_json, submit_with_retries

    if args.endpoint == "join":
        if args.tau_good is None or args.tau_bad is None:
            _LOG.error("submit: --tau-good and --tau-bad are required")
            return 2
        payload = {
            "tau_good": args.tau_good,
            "tau_bad": args.tau_bad,
            "mode": args.mode,
            "priority": args.priority,
        }
        if args.deadline is not None:
            payload["deadline_ms"] = args.deadline
        status, body, attempts = submit_with_retries(
            args.url, payload, max_retries=args.retries
        )
        if attempts > 1:
            _LOG.info(
                "submit: answered after %d attempts (server sheds honoured)",
                attempts,
            )
    else:
        status, body = request_json(args.url, args.endpoint)
    if isinstance(body, str):
        print(body, end="" if body.endswith("\n") else "\n")
    else:
        print(json.dumps(body, indent=2, sort_keys=True))
    return 0 if 200 <= status < 300 else 1


def _format_event(event: dict) -> str:
    """One wide event as a single ``repro tail`` line."""
    latency = event.get("total_seconds")
    parts = [
        f"#{event.get('id')}",
        str(event.get("outcome", "?")),
        str(event.get("mode", "?")),
        f"priority={event.get('priority')}",
        f"{latency * 1000:.1f}ms" if latency is not None else "-",
    ]
    if event.get("phase"):
        parts.append(f"interrupted={event['phase']}")
    phases = event.get("phases") or {}
    if phases:
        parts.append(
            " ".join(
                f"{name}={seconds * 1000:.0f}ms"
                for name, seconds in sorted(phases.items())
            )
        )
    admission = event.get("admission") or {}
    if admission.get("action") and admission["action"] != "admit":
        parts.append(
            f"admission={admission['action']}({admission.get('reason', '')})"
        )
    if event.get("error"):
        parts.append(f"error={event['error']}")
    return "  ".join(parts)


def _cmd_tail(args: argparse.Namespace) -> int:
    import time

    from .service.http import request_json

    since = args.since_id
    while True:
        endpoint = f"debug/requests?limit={args.limit}"
        if since is not None:
            endpoint += f"&since_id={since}"
        if args.outcome is not None:
            endpoint += f"&outcome={args.outcome}"
        try:
            status, body = request_json(args.url, endpoint)
        except OSError as error:
            _LOG.error("tail: %s unreachable: %s", args.url, error)
            return 1
        if status != 200 or not isinstance(body, dict):
            _LOG.error("tail: %s returned HTTP %s", args.url, status)
            return 1
        events = sorted(body.get("requests", []), key=lambda e: e["id"])
        for event in events:
            print(_format_event(event), flush=True)
            since = event["id"] if since is None else max(since, event["id"])
        if since is None:
            # An empty first page still starts the cursor so --follow only
            # shows events newer than the initial fetch.
            since = 0
        if not args.follow:
            return 0
        time.sleep(args.interval)


def _cmd_top(args: argparse.Namespace) -> int:
    import time

    from .service.http import request_json

    iteration = 0
    while True:
        iteration += 1
        try:
            _, stats = request_json(args.url, "stats")
            _, slo = request_json(args.url, "debug/slo")
            _, recent = request_json(
                args.url, f"debug/requests?limit={args.events}"
            )
        except OSError as error:
            _LOG.error("top: %s unreachable: %s", args.url, error)
            return 1
        if not isinstance(stats, dict) or not isinstance(slo, dict):
            _LOG.error("top: %s returned an unexpected payload", args.url)
            return 1
        if sys.stdout.isatty():
            print("\x1b[2J\x1b[H", end="")
        print(_render_top(args.url, stats, slo, recent))
        if args.iterations and iteration >= args.iterations:
            return 0
        time.sleep(args.interval)


def _render_top(url: str, stats: dict, slo: dict, recent: dict) -> str:
    """The ``repro top`` dashboard as one printable block."""
    admission = stats.get("admission", {})
    recorder = stats.get("flight_recorder", {})
    lines = [
        (
            f"repro top — {stats.get('task', '?')} @ {url}  "
            f"queue={stats.get('queue_depth', '?')}  "
            f"workers={stats.get('workers', '?')}  "
            f"{'DRAINING' if stats.get('closed') else 'serving'}"
        ),
        (
            "admission: "
            + "  ".join(
                f"{name}={admission.get(name, 0)}"
                for name in ("admit", "degrade", "shed")
            )
            + f"  warm={'yes' if stats.get('warm_available') else 'no'}"
        ),
        (
            f"flight recorder: {recorder.get('events_total', 0)} events, "
            f"{recorder.get('kept_total', 0)} kept "
            f"({recorder.get('ring_size', 0)}/{recorder.get('capacity', 0)} "
            "in ring)  outcomes: "
            + " ".join(
                f"{name}={count}"
                for name, count in (recorder.get("by_outcome") or {}).items()
            )
        ),
    ]
    snapshot = slo.get("slo", {})
    healthy = snapshot.get("healthy")
    verdict = "healthy" if healthy else "BURNING"
    lines.append(f"slo ({snapshot.get('spec', '?')}): {verdict}")
    for objective in snapshot.get("objectives", []):
        burns = "  ".join(
            f"{int(window['window_seconds'])}s={window['burn_rate']:.2f}"
            for window in objective.get("windows", [])
        )
        lines.append(f"  {objective['objective']}: burn {burns}")
    events = (recent or {}).get("requests", []) if isinstance(recent, dict) else []
    if events:
        lines.append("recent:")
        for event in events:
            lines.append("  " + _format_event(event))
    return "\n".join(lines)


def _cmd_loadtest(args: argparse.Namespace) -> int:
    import tempfile

    from .service.loadtest import (
        LoadTestConfig,
        run_http_loadtest,
        run_local_loadtest,
    )

    config = LoadTestConfig(
        requests=args.requests,
        concurrency=args.concurrency,
        tau_good=args.tau_good,
        tau_bad=args.tau_bad,
        plan_fraction=args.plan_fraction,
        deadline_ms=args.deadline_ms,
        seed=args.seed,
        chaos=args.chaos,
        chaos_seed=args.chaos_seed,
        fault_profile=args.fault_profile,
        workers=args.service_workers,
        queue_limit=args.queue_limit,
        pilot_documents=args.pilot,
        prewarm=not args.no_prewarm,
        timeout=args.timeout,
        idle_connections=args.idle_connections,
        duplicate_burst=args.duplicate_burst,
        burst_rounds=args.burst_rounds,
    )
    if args.slo is not None:
        config.slo = args.slo
    if args.url is not None:
        _LOG.info("Load-testing %s: %d requests", args.url, config.requests)
        payload = run_http_loadtest(args.url, config)
    else:
        _, task = _testbed_task(args)
        store = args.store
        if store is None:
            store = tempfile.mkdtemp(prefix="repro-loadtest-")
        _LOG.info(
            "Load-testing in-process service (store %s): %d requests%s",
            store,
            config.requests,
            " with chaos" if config.chaos else "",
        )
        payload = run_local_loadtest(task, store, config)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    outcomes = payload["outcomes"]
    latency = payload["latency_seconds"]
    print(
        f"Load test ({payload['mode']}): {payload['requests']} requests in "
        f"{payload['wall_seconds']:.2f}s "
        f"({payload['throughput_rps']:.1f} req/s)"
    )
    print(
        "Outcomes: "
        + ", ".join(f"{name}={outcomes[name]}" for name in sorted(outcomes))
    )
    print(
        f"Latency: p50={latency['p50'] * 1000:.1f}ms "
        f"p90={latency['p90'] * 1000:.1f}ms "
        f"p99={latency['p99'] * 1000:.1f}ms"
    )
    slo = payload.get("slo")
    if slo is not None:
        verdict = "met" if slo["healthy"] else "VIOLATED"
        print(f"SLO ({slo['spec']}): {verdict}")
        for entry in slo["overall"]:
            print(
                f"  {entry['objective']}: burn={entry['burn_rate']:.2f} "
                f"bad={entry['bad']}/{entry['requests']}"
            )
        for priority in sorted(slo["priorities"]):
            windows = slo["priorities"][priority]["windows"]
            burns = ", ".join(
                f"{name}={max((e['burn_rate'] for e in entries), default=0.0):.2f}"
                for name, entries in sorted(windows.items())
            )
            print(f"  priority={priority}: worst burn {burns}")
    idle = payload.get("idle_connections")
    if idle is not None:
        print(
            f"Idle connections: {idle['live_at_open']}/{idle['target']} "
            f"live at open, {idle['live_after_mix']} after the mix "
            f"(thread cost {idle['thread_cost']})"
        )
    coalescing = payload.get("coalescing")
    if coalescing is not None:
        print(
            f"Coalescing: {coalescing['requests']} burst requests in "
            f"{coalescing['rounds']} rounds -> "
            f"{coalescing['computations']} computations, "
            f"{coalescing['coalesced']} attached, "
            f"hit rate {coalescing['hit_rate'] * 100:.1f}%, "
            f"byte-identical: {coalescing['byte_identical']}"
        )
    recovery = payload.get("recovery")
    if recovery is not None:
        violations = recovery.get("violations", [])
        print(
            f"Recovery: {json.dumps({k: v for k, v in recovery.items() if k != 'violations'}, sort_keys=True)}"
        )
        print(f"Invariant violations during recovery: {len(violations)}")
        if violations:
            for violation in violations:
                print(
                    f"  INVARIANT {violation['where']}: "
                    f"{violation['message']}"
                )
            return 1
    print(f"Benchmark written to {args.out}")
    # Hard errors fail the run; sheds/degrades/deadlines are the service
    # behaving as designed, and 'unavailable' is expected when the chaos
    # harness kills the server under test mid-run.
    return 0 if outcomes["error"] == 0 else 1


def _cmd_validate(args: argparse.Namespace) -> int:
    from .validation.differential import run_validation

    report = run_validation(
        scale=args.scale,
        seed=args.seed,
        theta=args.theta,
        n_samples=args.samples,
        sim_seed=args.sim_seed,
        z=args.z,
        out_path=args.out,
        fuzz=not args.no_fuzz,
        multiway=not args.no_multiway,
    )
    violations = report.invariants.get("violations", [])
    print(
        f"Validation: {len(report.checks)} checks, "
        f"{len(report.failures)} failed; "
        f"{report.invariants.get('checks_run', 0)} invariant checks, "
        f"{len(violations)} violations"
    )
    for check in report.failures:
        print(
            f"  FAIL {check.name}: observed {check.observed:.6g}, "
            f"expected {check.expected:.6g} ± {check.band:.6g} "
            f"({check.detail})"
        )
    for violation in violations:
        print(f"  INVARIANT {violation['where']}: {violation['message']}")
    if args.out:
        print(f"Report written to {args.out}")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Quality-aware join optimization over IE output "
            "(ICDE 2009 reproduction)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    figures = subparsers.add_parser(
        "figures", help="estimated-vs-actual model accuracy sweeps (Figures 9-12)"
    )
    figures.add_argument(
        "--figure", type=int, choices=(9, 10, 11, 12), default=None
    )
    figures.add_argument("--step", type=int, default=10, help="sweep step (%%)")
    _add_observability_arguments(figures)
    _add_testbed_arguments(figures)
    _add_logging_arguments(figures)
    figures.set_defaults(handler=_cmd_figures)

    table2 = subparsers.add_parser(
        "table2", help="optimizer choices across (τg, τb) (Table II)"
    )
    table2.add_argument(
        "--rows", type=int, default=None, help="limit to the first N rows"
    )
    _add_testbed_arguments(table2)
    _add_logging_arguments(table2)
    table2.set_defaults(handler=_cmd_table2)

    characterize = subparsers.add_parser(
        "characterize", help="tp(θ)/fp(θ) knob curves per relation"
    )
    _add_testbed_arguments(characterize)
    _add_logging_arguments(characterize)
    characterize.set_defaults(handler=_cmd_characterize)

    optimize = subparsers.add_parser(
        "optimize", help="pick the fastest plan for a (τg, τb) contract"
    )
    optimize.add_argument("--tau-good", type=int, required=True)
    optimize.add_argument("--tau-bad", type=int, required=True)
    optimize.add_argument("--margin", type=float, default=0.15)
    optimize.add_argument(
        "--execute", action="store_true", help="also run the chosen plan"
    )
    _add_scenario_argument(optimize)
    _add_workers_argument(optimize)
    _add_prune_argument(optimize)
    _add_resilience_arguments(optimize)
    _add_observability_arguments(optimize)
    _add_testbed_arguments(optimize)
    _add_logging_arguments(optimize)
    optimize.set_defaults(handler=_cmd_optimize)

    budget = subparsers.add_parser(
        "budget", help="maximize quality within a simulated-time budget"
    )
    budget.add_argument("--time", type=float, required=True)
    budget.add_argument("--precision-weight", type=float, default=0.5)
    _add_observability_arguments(budget)
    _add_testbed_arguments(budget)
    _add_logging_arguments(budget)
    budget.set_defaults(handler=_cmd_budget)

    frontier = subparsers.add_parser(
        "frontier", help="Pareto frontier of achievable (time, quality) points"
    )
    _add_scenario_argument(frontier)
    _add_workers_argument(frontier)
    _add_prune_argument(frontier)
    _add_observability_arguments(frontier)
    _add_testbed_arguments(frontier)
    _add_logging_arguments(frontier)
    frontier.set_defaults(handler=_cmd_frontier)

    report = subparsers.add_parser(
        "report", help="run the full evaluation and write a markdown report"
    )
    report.add_argument(
        "--output", default="REPORT.md", help="output path (default REPORT.md)"
    )
    report.add_argument(
        "--rows", type=int, default=12, help="Table II rows to include"
    )
    _add_testbed_arguments(report)
    _add_logging_arguments(report)
    report.set_defaults(handler=_cmd_report)

    adaptive = subparsers.add_parser(
        "adaptive", help="full no-labels pipeline: pilot → estimate → execute"
    )
    adaptive.add_argument("--tau-good", type=int, required=True)
    adaptive.add_argument("--tau-bad", type=int, required=True)
    adaptive.add_argument("--pilot", type=int, default=100)
    adaptive.add_argument("--margin", type=float, default=0.3)
    _add_resilience_arguments(adaptive)
    _add_observability_arguments(adaptive)
    _add_testbed_arguments(adaptive)
    _add_logging_arguments(adaptive)
    adaptive.set_defaults(handler=_cmd_adaptive)

    serve = subparsers.add_parser(
        "serve",
        help="run the join service: HTTP front end + statistics store",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8023, help="port to bind (0 = any free)"
    )
    serve.add_argument(
        "--store",
        default=".repro-service",
        help="statistics store directory (default .repro-service)",
    )
    serve.add_argument(
        "--service-workers",
        type=int,
        default=2,
        help="join worker threads (default 2)",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=8,
        help="bounded request queue size; overflow is rejected with 503",
    )
    serve.add_argument(
        "--pilot", type=int, default=60, help="pilot documents per side"
    )
    serve.add_argument("--margin", type=float, default=0.3)
    serve.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help=(
            "write tail-sampled traces into DIR (errors, 504s and slow "
            "requests always; the boring rest 1-in---trace-sample)"
        ),
    )
    serve.add_argument(
        "--trace-sample",
        type=int,
        default=10,
        metavar="N",
        help="keep 1-in-N boring (ok/fast) requests in traces and the "
        "flight recorder (default 10; 1 keeps everything)",
    )
    serve.add_argument(
        "--trace-keep",
        type=int,
        default=None,
        metavar="N",
        help="keep at most N trace files per format in --trace-dir",
    )
    serve.add_argument(
        "--trace-grace",
        type=float,
        default=30.0,
        help=(
            "never prune trace files younger than this many seconds "
            "(default 30)"
        ),
    )
    serve.add_argument(
        "--slo",
        default=None,
        metavar="SPEC",
        help=(
            "service level objectives as 'p99=2s,availability=99.5'; "
            "burn rates are tracked over 1m/5m/30m windows and surfaced "
            "in /v1/stats and /v1/debug/slo"
        ),
    )
    serve.add_argument(
        "--flight-capacity",
        type=int,
        default=512,
        metavar="N",
        help="wide-event ring buffer size for /v1/debug/requests "
        "(default 512)",
    )
    serve.add_argument(
        "--flight-spill",
        default=None,
        metavar="PATH",
        help="append kept wide events as JSONL to PATH",
    )
    serve.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="checkpoint directory to prune stale snapshots from at startup",
    )
    serve.add_argument(
        "--checkpoint-keep",
        type=int,
        default=None,
        help="keep at most N checkpoints in --checkpoint-dir",
    )
    serve.add_argument(
        "--checkpoint-max-age",
        type=float,
        default=None,
        help="drop checkpoints older than this many seconds",
    )
    serve.add_argument(
        "--checkpoint-grace",
        type=float,
        default=60.0,
        help=(
            "never prune checkpoints younger than this many seconds "
            "(protects snapshots a concurrent writer just saved; default 60)"
        ),
    )
    serve.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        help=(
            "seconds a request may take: a client that stalls "
            "mid-request gets a 408, a join without a deadline that "
            "runs longer a 504 (default 30)"
        ),
    )
    serve.add_argument(
        "--fault-profile",
        default="none",
        help=(
            "inject database faults into every request (chaos testing): "
            "'none', a bare rate, or 'transient=0.1,timeout=0.05,...'"
        ),
    )
    serve.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for the injected fault stream",
    )
    serve.add_argument(
        "--multiway-scenario",
        choices=MULTIWAY_SCENARIOS,
        default=None,
        help=(
            "also bind a multiway scenario so POST /v1/join accepts "
            "relations/edges payloads (answered by the n-ary planner)"
        ),
    )
    _add_testbed_arguments(serve)
    _add_logging_arguments(serve)
    serve.set_defaults(handler=_cmd_serve)

    submit = subparsers.add_parser(
        "submit", help="submit a request to a running join service"
    )
    submit.add_argument(
        "--url",
        default="http://127.0.0.1:8023",
        help="service base URL (default http://127.0.0.1:8023)",
    )
    submit.add_argument(
        "--endpoint",
        default="join",
        choices=(
            "join",
            "stats",
            "healthz",
            "metrics",
            "debug/requests",
            "debug/slo",
        ),
        help="API endpoint to call (default join)",
    )
    submit.add_argument("--tau-good", type=int, default=None)
    submit.add_argument("--tau-bad", type=int, default=None)
    submit.add_argument(
        "--mode",
        default="execute",
        choices=("execute", "plan"),
        help="execute the join or answer from cached statistics only",
    )
    submit.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="MS",
        help=(
            "end-to-end deadline in milliseconds; expiry returns a 504 "
            "with whatever partial progress the run made"
        ),
    )
    submit.add_argument(
        "--priority",
        default="normal",
        choices=("high", "normal", "low"),
        help="admission priority under load (default normal)",
    )
    submit.add_argument(
        "--retries",
        type=int,
        default=0,
        help=(
            "retry a shed (503) up to N times, honouring the server's "
            "Retry-After hint with decorrelated jitter (default 0)"
        ),
    )
    _add_logging_arguments(submit)
    submit.set_defaults(handler=_cmd_submit)

    top = subparsers.add_parser(
        "top",
        help="live service dashboard: queue, admission, SLO burn, recents",
    )
    top.add_argument(
        "--url",
        default="http://127.0.0.1:8023",
        help="service base URL (default http://127.0.0.1:8023)",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between refreshes (default 2)",
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=0,
        metavar="N",
        help="stop after N refreshes (default 0 = run until interrupted)",
    )
    top.add_argument(
        "--events",
        type=int,
        default=10,
        metavar="N",
        help="recent wide events to show (default 10)",
    )
    _add_logging_arguments(top)
    top.set_defaults(handler=_cmd_top)

    tail = subparsers.add_parser(
        "tail",
        help="print wide events from the service flight recorder",
    )
    tail.add_argument(
        "--url",
        default="http://127.0.0.1:8023",
        help="service base URL (default http://127.0.0.1:8023)",
    )
    tail.add_argument(
        "--follow",
        action="store_true",
        help="keep polling for new events instead of exiting",
    )
    tail.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="poll interval with --follow (default 1)",
    )
    tail.add_argument(
        "--limit",
        type=int,
        default=50,
        metavar="N",
        help="events per fetch (default 50)",
    )
    tail.add_argument(
        "--since-id",
        type=int,
        default=None,
        metavar="ID",
        help="only show events with a request id greater than ID",
    )
    tail.add_argument(
        "--outcome",
        default=None,
        help="filter by outcome (ok, degraded, shed, deadline, error)",
    )
    _add_logging_arguments(tail)
    tail.set_defaults(handler=_cmd_tail)

    loadtest = subparsers.add_parser(
        "loadtest",
        help=(
            "drive concurrent load (optionally with chaos: faults, clock "
            "jumps, journal tears) and write BENCH_service.json"
        ),
    )
    loadtest.add_argument(
        "--url",
        default=None,
        help=(
            "target a running server; omitted runs an in-process service "
            "on the canonical testbed"
        ),
    )
    loadtest.add_argument(
        "--store",
        default=None,
        help=(
            "statistics store directory for in-process mode "
            "(default: a fresh temporary directory)"
        ),
    )
    loadtest.add_argument("--requests", type=int, default=50)
    loadtest.add_argument("--concurrency", type=int, default=8)
    loadtest.add_argument("--tau-good", type=int, default=40)
    loadtest.add_argument("--tau-bad", type=int, default=1_000_000)
    loadtest.add_argument(
        "--plan-fraction",
        type=float,
        default=0.5,
        help="fraction of requests in cheap plan mode (default 0.5)",
    )
    loadtest.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="attach this end-to-end deadline to every request",
    )
    loadtest.add_argument(
        "--chaos",
        action="store_true",
        help=(
            "inject seeded faults and clock jumps, then tear the store "
            "journal and verify recovery"
        ),
    )
    loadtest.add_argument(
        "--chaos-seed", type=int, default=0, help="chaos randomness seed"
    )
    loadtest.add_argument(
        "--fault-profile",
        default="",
        help="override the chaos fault mix (FaultProfile spec)",
    )
    loadtest.add_argument(
        "--service-workers",
        type=int,
        default=2,
        help="in-process mode: join worker threads",
    )
    loadtest.add_argument(
        "--queue-limit",
        type=int,
        default=8,
        help="in-process mode: bounded request queue size",
    )
    loadtest.add_argument(
        "--pilot", type=int, default=60, help="pilot documents per side"
    )
    loadtest.add_argument(
        "--no-prewarm",
        action="store_true",
        help="skip the warm-up execute request before the measured load",
    )
    loadtest.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="per-request client timeout in seconds",
    )
    loadtest.add_argument(
        "--slo",
        default=None,
        metavar="SPEC",
        help=(
            "score the run against these objectives (default "
            "'p99=2s,availability=99.5'; '' disables the SLO section)"
        ),
    )
    loadtest.add_argument(
        "--idle-connections",
        type=int,
        default=0,
        help=(
            "hold this many verified idle keep-alive connections open "
            "for the duration of the run (0 disables; in-process mode "
            "boots an HTTP front end over a separate service for this "
            "and --duplicate-burst)"
        ),
    )
    loadtest.add_argument(
        "--duplicate-burst",
        type=int,
        default=0,
        help=(
            "after the mix, fire rounds of this many identical "
            "concurrent plan-mode requests and report the server's "
            "coalescing tallies (0 disables)"
        ),
    )
    loadtest.add_argument(
        "--burst-rounds",
        type=int,
        default=3,
        help="duplicate-burst rounds, each at a fresh requirement",
    )
    loadtest.add_argument(
        "--out",
        default="BENCH_service.json",
        metavar="PATH",
        help="benchmark report path (default BENCH_service.json)",
    )
    _add_testbed_arguments(loadtest)
    _add_logging_arguments(loadtest)
    loadtest.set_defaults(handler=_cmd_loadtest)

    validate = subparsers.add_parser(
        "validate",
        help=(
            "differential validation: models vs Monte-Carlo vs executors, "
            "runtime invariants, JSON-surface fuzzing"
        ),
    )
    validate.add_argument(
        "--theta", type=float, default=0.4, help="knob setting for the sweeps"
    )
    validate.add_argument(
        "--samples",
        type=int,
        default=4000,
        help="Monte-Carlo replicates per comparison (default 4000)",
    )
    validate.add_argument(
        "--sim-seed", type=int, default=0, help="Monte-Carlo seed"
    )
    validate.add_argument(
        "--z",
        type=float,
        default=5.0,
        help="CLT band width in standard errors (default 5)",
    )
    validate.add_argument(
        "--out",
        default="validation_report.json",
        metavar="PATH",
        help="machine-readable report path (default validation_report.json)",
    )
    validate.add_argument(
        "--no-fuzz",
        action="store_true",
        help="skip the JSON-surface fuzz pass",
    )
    validate.add_argument(
        "--no-multiway",
        action="store_true",
        help="skip the multiway planner differential family",
    )
    _add_testbed_arguments(validate)
    _add_logging_arguments(validate)
    validate.set_defaults(handler=_cmd_validate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    _configure_logging(args)
    if getattr(args, "selfcheck", False):
        enable_selfcheck()
    try:
        result = args.handler(args)
    except KeyboardInterrupt:
        _LOG.warning("repro: interrupted")
        return 130
    except Exception as error:  # noqa: BLE001 — the CLI's last line of defense
        kind = type(error).__name__
        _LOG.error("repro: error: %s: %s", kind, error)
        if getattr(args, "verbose", False):
            traceback.print_exc(file=sys.stderr)
        return 2
    # Handlers return an exit code or None for success; anything truthy
    # that is not an int still exits non-zero rather than leaking through
    # sys.exit() as an arbitrary object.
    if result is None:
        return 0
    if isinstance(result, bool):
        return 0 if result else 1
    if isinstance(result, int):
        return result
    return 1


if __name__ == "__main__":
    sys.exit(main())
