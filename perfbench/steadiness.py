"""Record the benchmark's run-to-run spread and check two sets agree.

Runs ``run.py`` once per seed on every workload, first with seeds 201-210,
then again with seeds 301-310, and writes ``perfbench/STEADINESS.json``:

* per set, workload and end-to-end metric (scaled, and unscaled as
  ``wall.*``): the ten values, their median, quartiles and spread -- the
  interquartile distance over the median, with the quartiles as
  ``statistics.quantiles(values, n=4)`` gives them;
* per workload and end-to-end metric, whether the two sets agree within
  the metric's bound in ``BENCHMARK.json``: each set's spread within the
  bound (``setup_s`` exempt), and the second median not worse than the
  first by more than the bound.

It is the noise floor later changes can cite.  Run from the repository
root (about 20 minutes on a 2-vCPU VM); it exits 1 if the sets disagree::

    python3 perfbench/steadiness.py
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "STEADINESS.json"
SEED_SETS = (list(range(201, 211)), list(range(301, 311)))
#: the one metric whose spread has no bound (its median still has one)
UNBOUNDED_SPREAD = "setup_s"


def one_run(workload: str, seed: int, seconds: int) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """One benchmark run: its metric values (wall.* included), provenance."""
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    lines = completed.stdout.strip().splitlines()
    outcome = json.loads(lines[-1])
    if not outcome["correct"] or outcome["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect run\n{completed.stderr}")
    values = {name: m["value"] for name, m in outcome["metrics"].items()}
    provenance: Dict[str, Any] = {}
    for line in lines[:-1]:
        if line.startswith('{"detail"'):
            detail = json.loads(line)["detail"]
            values.update(
                {k: v for k, v in detail.items() if k.startswith("wall.")}
            )
        elif line.startswith('{"provenance"'):
            provenance = json.loads(line)["provenance"]
    return values, provenance


def summarize(values: List[float]) -> Dict[str, Any]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def agreement(
    first: Dict[str, Any], second: Dict[str, Any], metric: Dict[str, Any]
) -> Dict[str, Any]:
    """Do two sets' summaries of one end-to-end metric agree within its bound?"""
    bound = metric["bound"]
    before, after = first["median"], second["median"]
    change = (after - before) / before if before else 0.0
    worsening = change if metric["better"] == "lower" else -change
    spreads = [first["spread"], second["spread"]]
    spread_ok = metric["name"] == UNBOUNDED_SPREAD or max(spreads) <= bound
    return {
        "bound": bound,
        "spreads": spreads,
        "medians": [before, after],
        "worsening": worsening,
        "agree": spread_ok and worsening <= bound,
    }


def main() -> int:
    from workloads import WORKLOADS

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    seconds = benchmark["run_seconds"]
    sets: List[Dict[str, Any]] = []
    for seeds in SEED_SETS:
        workloads: Dict[str, Any] = {}
        for workload in WORKLOADS:
            outcomes = [one_run(workload, seed, seconds) for seed in seeds]
            runs = [values for values, _ in outcomes]
            provenance = dict(outcomes[0][1])
            for key in ("seed", "store", "trace", "workload"):
                provenance.pop(key, None)
            workloads[workload] = {
                "provenance": provenance,
                "metrics": {
                    name: summarize([run[name] for run in runs]) for name in runs[0]
                },
            }
        sets.append({"seeds": seeds, "workloads": workloads})
    agree: Dict[str, Any] = {}
    for workload in WORKLOADS:
        first, second = (s["workloads"][workload]["metrics"] for s in sets)
        agree[workload] = {
            metric["name"]: agreement(
                first[metric["name"]], second[metric["name"]], metric
            )
            for metric in benchmark["end_to_end"]
        }
        for name, verdict in agree[workload].items():
            print(
                f"{workload:13s} {name:22s} "
                f"spreads {100 * verdict['spreads'][0]:.1f}%/"
                f"{100 * verdict['spreads'][1]:.1f}% "
                f"medians {verdict['medians'][0]:.4g}/{verdict['medians'][1]:.4g} "
                f"worse by {100 * verdict['worsening']:+.1f}% "
                f"(bound {100 * verdict['bound']:.0f}%)"
                f"{'' if verdict['agree'] else '  DISAGREE'}",
                file=sys.stderr,
            )
    agreed = all(v["agree"] for metrics in agree.values() for v in metrics.values())
    record = {"run_seconds": seconds, "sets": sets, "agreement": agree, "agree": agreed}
    with open(OUT, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0 if agreed else 1


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
