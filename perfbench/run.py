"""The join service benchmark: one workload, one seed, one process.

Run from the repository root::

    python3 perfbench/run.py --workload execute_warm --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separately traced pass.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it carry provenance and details.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: per-run scratch space (statistics stores), inside the checkout
WORK_ROOT = ROOT / ".perfbench_work"
#: string hashing is pinned so that dict and set layouts -- and with them
#: the interpreter's work per request -- are the same in every run; the
#: service's replies do not depend on it
HASH_SEED = "0"

sys.path.insert(0, str(HERE))

import golden  # noqa: E402
import harness  # noqa: E402
from hostscale import HostScale  # noqa: E402
from layers import LayerTracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: end-to-end metric units, in the order they are printed
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "answered_ratio": "ratio",
    "correct_ratio": "ratio",
    "requirement_met_ratio": "ratio",
    "simulated_join_s": "sim_s",
}


#: per-layer metric units
LAYER_UNITS = {
    **{name: "ms" for name in harness.SELF_TIME_METRICS},
    "store.fingerprint_calls": "count",
    "store.fsyncs": "count",
    "plancache.hit_ratio": "ratio",
    "plancache.builds": "count",
    "optimizer.curve_builds": "count",
    "optimizer.pruned_ratio": "ratio",
    "models.kernel_calls": "count",
    "joins.documents": "count",
    "extraction.calls": "count",
    "textdb.searches": "count",
    "planner.pruned_ratio": "ratio",
    "multiway.documents": "count",
    "host.calib_ms": "ms",
    "wall.latency_p50_ms": "ms",
    "wall.throughput_per_s": "1/s",
    "trace.request_ms": "ms",
    "trace.overhead_pct": "%",
}


class ProgramMissing(RuntimeError):
    """The checkout holds no program source to benchmark."""


def import_program() -> Any:
    """Import the service from this checkout's ``src/``, never elsewhere."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program source at {src / 'repro'}")
    sys.path.insert(0, str(src))
    import repro.experiments.testbed  # noqa: F401
    import repro.service.service  # noqa: F401

    if not Path(repro.__file__).resolve().is_relative_to(src):
        raise ProgramMissing(f"imported repro from {repro.__file__}, not {src}")
    return repro


@contextlib.contextmanager
def work_dir() -> Iterator[Path]:
    """A private scratch directory in the checkout, removed afterwards."""
    path = WORK_ROOT / f"run-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()


def git_sha() -> str:
    """HEAD's commit, read from ``.git`` files; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args: argparse.Namespace, store: Path) -> Dict[str, Any]:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        # The contract keeps every read and write inside the checkout, so
        # the store lives there (with fsync on), not on a tmpfs.
        "store": {"location": str(store.relative_to(ROOT)), "fsync": True},
    }


def run(args: argparse.Namespace) -> Dict[str, Any]:
    workload = WORKLOADS[args.workload]
    scale = HostScale()
    scale.sample_median(harness.SAMPLE_REPEATS)  # warm the kernel
    before = scale.sample_median(harness.SAMPLE_REPEATS)
    started = time.perf_counter()
    repro = import_program()
    wall = time.perf_counter() - started
    import_s = scale.scaled(wall, before, scale.sample_median(harness.SAMPLE_REPEATS))
    answers = golden.load(workload.name)
    requests = workload.sequence(args.seed, args.seconds)
    with work_dir() as scratch:
        store = scratch / "store"
        print(json.dumps({"provenance": provenance(args, store)}), flush=True)
        if args.trace:
            rig = harness.Rig(workload, store, repro)
            try:
                return traced(rig, requests, scale, answers)
            finally:
                rig.close()
        setups: List[float] = []
        for repeat in range(harness.SETUP_REPEATS):
            rig = harness.Rig(workload, store, repro)
            try:
                setups.append(harness.timed_setup(rig, scale))
                if repeat == harness.SETUP_REPEATS - 1:
                    samples = harness.drive(rig, requests, scale)
            finally:
                rig.close()
    correct = judge(samples, answers)
    setup_s = import_s + statistics.median(setups)
    metrics = harness.end_to_end(samples, correct, setup_s)
    ok = [s.scaled_s * 1e3 for s in samples if s.error is None] or [0.0]
    _, percentile, count = harness.tail_point(ok)
    detail = {
        "latency_tail": {"percentile": round(percentile, 2), "samples": count},
        "setup_runs_s": setups,
        "import_s": import_s,
        "host_calib_ms": scale.median_ms(),
        **harness.wall_metrics(samples),
    }
    print(json.dumps({"detail": detail}), flush=True)
    print(
        f"latency_tail_ms = p{percentile:.1f} of {count} samples "
        f"(at least 10 beyond it)",
        flush=True,
    )
    return result(
        samples,
        correct,
        {name: (metrics[name], unit) for name, unit in END_TO_END_UNITS.items()},
    )


def traced(
    rig: harness.Rig,
    requests: List[Any],
    scale: HostScale,
    answers: Dict[str, Any],
) -> Dict[str, Any]:
    """An untraced pass (the overhead baseline), then a traced one."""
    for step in rig.steps():
        step()
    baseline = harness.drive(rig, requests, scale)
    rig.close()
    for step in rig.service_steps():
        step()
    counters = harness.plan_cache_counters(rig.service)
    tracer = LayerTracer()
    tracer.install()
    try:
        samples = harness.drive(rig, requests, scale, tracer)
    finally:
        tracer.uninstall()
    after = harness.plan_cache_counters(rig.service)
    metrics = harness.layer_metrics(
        samples, {key: after[key] - counters[key] for key in after}
    )
    request_ms = statistics.fmean(s.scaled_s for s in samples) * 1e3
    baseline_ms = statistics.fmean(s.scaled_s for s in baseline) * 1e3
    metrics.update(harness.wall_metrics(baseline))
    metrics["host.calib_ms"] = scale.median_ms()
    metrics["trace.request_ms"] = request_ms
    metrics["trace.overhead_pct"] = 100.0 * (request_ms / baseline_ms - 1.0)
    dominant = max(harness.SELF_TIME_METRICS, key=lambda name: metrics[name])
    print(
        f"dominant layer: {dominant} "
        f"({100.0 * metrics[dominant] / request_ms:.1f}% of traced request time)",
        flush=True,
    )
    samples = baseline + samples
    correct = judge(samples, answers)
    return result(
        samples,
        correct,
        {name: (value, LAYER_UNITS[name]) for name, value in metrics.items()},
    )


def judge(samples: List[harness.Sample], answers: Dict[str, Any]) -> int:
    """Count correct replies; report the first few incorrect ones."""
    correct = 0
    reported = 0
    for sample in samples:
        errors = (
            [sample.error]
            if sample.error is not None
            else golden.check(answers, sample.request, sample.response)
        )
        if not errors:
            correct += 1
        elif reported < 5:
            reported += 1
            print(f"incorrect {sample.request.key}: {'; '.join(errors)}", file=sys.stderr)
    return correct


def result(
    samples: List[harness.Sample], correct: int, metrics: Dict[str, Any]
) -> Dict[str, Any]:
    failed = sum(1 for s in samples if s.error is not None)
    return {
        "correct": correct == len(samples) and failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    try:
        outcome = run(args)
    except (ProgramMissing, OSError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    print(json.dumps(outcome), flush=True)
    return 0


if __name__ == "__main__":
    cpus = os.sched_getaffinity(0)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED or len(cpus) != 1:
        # Re-exec in place (same process id, no child) with string hashing
        # pinned and every thread -- client, service workers, numpy's --
        # on one CPU, so the kernel samples the CPU the request runs on.
        os.sched_setaffinity(0, {max(cpus)})
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    # A terminated run still drains the service and deletes its store.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main(sys.argv[1:]))
