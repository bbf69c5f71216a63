"""Planner benchmark: DP enumeration under tier-A pruning at growing arity.

Scales the seeded multiway world to star joins of ``n`` alias relations
(cycling the three extractors over the three hosted corpora, all joined
on ``Company``) and, per arity, measures the planner three ways:

* **pruned vs exhaustive wall clock** — the median of
  ``TIMED_RUNS`` ``MultiwayPlanner.optimize`` runs and of as many runs
  of the exhaustive reference (``ExhaustiveMultiwayPlanner`` from
  ``repro.validation.differential``), each on a fresh planner (a
  planner memoizes its effort curves and orderings), over the full
  theta/access-path assignment space, with the requirement pinned
  *between* the two highest tier-A theta-class ceilings so every weaker
  theta class is bound-pruned while the strongest class stays feasible;
* **equivalence** — the pruned run must choose the byte-identical plan
  at the identical operating point (the pruning differential's identity,
  re-checked here at every arity the sweep visits);
* **plan quality** — the chosen plan's predicted completion time against
  the naive baseline (first theta, first access path, graph-order
  left-deep tree), the plan a planner-less executor would run.

The requirement is *derived*, not hard-coded: ``2^n`` tier-A bounds (one
per theta class — access paths do not move the effort-independent
ceiling) are computed outside any timed region and the τg target is the
midpoint of the two highest distinct ceilings.  With that target, every
assignment outside the strongest theta class prunes, so the expected
pruned fraction approaches ``1 − 2^{-n}``.

Results land in ``BENCH_planner.json`` at the repository root.

Run standalone (the CI perf-smoke arity range)::

    PYTHONPATH=src python benchmarks/bench_planner.py --max-n 6

or via pytest (n ≤ 5, asserts equivalence and pruning effectiveness)::

    PYTHONPATH=src python -m pytest benchmarks/bench_planner.py
"""

from __future__ import annotations

import argparse
import itertools
import json
import pathlib
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import QualityRequirement
from repro.core.plan import RetrievalKind
from repro.experiments.testbed import (
    MULTIWAY_ACCESS_PATHS,
    MULTIWAY_THETAS,
    MultiwayScenario,
    build_multiway_testbed,
)
from repro.planner import (
    JoinGraph,
    MultiwayPlanner,
    PlannerResult,
    RelationConfig,
    RelationNode,
)
from repro.validation.differential import (
    ExhaustiveMultiwayPlanner,
    naive_evaluation,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULT_PATH = ROOT / "BENCH_planner.json"

#: the three extractors and their host corpora, cycled over the aliases
BASES = [("HQ", "nyt96"), ("EX", "nyt95"), ("MG", "wsj")]

#: loose enough that τb never binds — the sweep isolates τg pruning
TAU_BAD = 10**15

#: fresh-planner runs per timing; one run alone is noisy (the same n=6
#: tree read 0.20 s and 0.33 s), so the bench reports their median
TIMED_RUNS = 3


def star_scenario(testbed, n: int) -> MultiwayScenario:
    """An ``n``-alias star on ``Company`` over the seeded multiway world."""
    nodes: List[RelationNode] = []
    bindings: Dict[str, tuple] = {}
    for i in range(n):
        alias = f"R{i + 1}"
        relation, database = BASES[i % len(BASES)]
        nodes.append(
            RelationNode(
                name=alias,
                attributes=testbed.world.schemas[relation].attributes,
                thetas=MULTIWAY_THETAS,
                access_paths=MULTIWAY_ACCESS_PATHS,
            )
        )
        bindings[alias] = (relation, database)
    return MultiwayScenario(
        name=f"star{n}",
        graph=JoinGraph.star(nodes, "Company"),
        bindings=bindings,
        testbed=testbed,
    )


def pruning_requirement(planner: MultiwayPlanner) -> QualityRequirement:
    """τg between the two highest distinct theta-class tier-A ceilings.

    Access paths do not move the effort-independent ceiling, so ``2^n``
    bound computations cover the full ``4^n`` assignment space.
    """
    graph = planner.graph
    ceilings = set()
    for combo in itertools.product(MULTIWAY_THETAS, repeat=graph.arity):
        configs = {
            name: RelationConfig(
                name=name, theta=theta, retrieval=RetrievalKind.SCAN
            )
            for name, theta in zip(graph.names, combo)
        }
        ceilings.add(round(planner.model.bounds(configs).good_upper, 6))
    top_two = sorted(ceilings)[-2:]
    return QualityRequirement(
        tau_good=int(sum(top_two) / 2), tau_bad=TAU_BAD
    )


def median_seconds(run: Callable[[], PlannerResult]) -> Tuple[float, PlannerResult]:
    """Median wall clock of ``TIMED_RUNS`` calls and the last call's result."""
    seconds = []
    for _ in range(TIMED_RUNS):
        start = time.perf_counter()
        result = run()
        seconds.append(time.perf_counter() - start)
    return statistics.median(seconds), result


def run_planner_bench(testbed, ns: Sequence[int]) -> List[dict]:
    """One record per arity: timings, pruning tallies, equivalence."""
    records = []
    for n in ns:
        scenario = star_scenario(testbed, n)
        catalog = scenario.catalog()
        planner = MultiwayPlanner(scenario.graph, catalog)
        requirement = pruning_requirement(planner)

        # Each timed run gets a fresh planner: a planner memoizes its
        # effort curves and orderings, so a second run on the same one
        # would read what the first one built.  The catalog (per-relation
        # statistics, not planner work) is warm for every run.
        seconds_pruned, pruned = median_seconds(
            lambda: MultiwayPlanner(scenario.graph, catalog).optimize(requirement)
        )
        seconds_exhaustive, exhaustive = median_seconds(
            lambda: ExhaustiveMultiwayPlanner(scenario.graph, catalog).optimize(
                requirement
            )
        )

        identical = (pruned.chosen is None) == (exhaustive.chosen is None)
        if pruned.chosen is not None and exhaustive.chosen is not None:
            identical = (
                pruned.chosen.plan.describe()
                == exhaustive.chosen.plan.describe()
                and pruned.chosen.effort_fraction
                == exhaustive.chosen.effort_fraction
            )
        naive = naive_evaluation(planner, requirement)
        speedup_vs_naive = None
        if (
            pruned.chosen is not None
            and naive is not None
            and naive.feasible
        ):
            speedup_vs_naive = (
                naive.total_time / pruned.chosen.total_time
            )

        tallies = pruned.tallies
        records.append(
            {
                "n": n,
                "graph": scenario.graph.describe(),
                "tau_good": requirement.tau_good,
                "assignments": tallies.assignments,
                "plan_space": tallies.plan_space,
                "seconds_pruned": seconds_pruned,
                "seconds_exhaustive": seconds_exhaustive,
                "enumeration_speedup": seconds_exhaustive / seconds_pruned,
                "assignments_pruned": tallies.assignments_pruned_bound,
                "pruned_fraction": tallies.pruned_fraction,
                "identical_choice": identical,
                "feasible": pruned.chosen is not None,
                "chosen": (
                    pruned.chosen.plan.describe()
                    if pruned.chosen is not None
                    else None
                ),
                "chosen_time": (
                    pruned.chosen.total_time
                    if pruned.chosen is not None
                    else None
                ),
                "naive_time": (
                    naive.total_time
                    if naive is not None and naive.feasible
                    else None
                ),
                "speedup_vs_naive": speedup_vs_naive,
            }
        )
    return records


def check_records(
    records: Sequence[dict], min_pruned_fraction: float = 0.5
) -> None:
    """The bench's acceptance bars; raises AssertionError on any miss."""
    for record in records:
        n = record["n"]
        assert record["identical_choice"], (
            f"n={n}: pruned and exhaustive runs chose different plans"
        )
        if n >= 5:
            assert record["pruned_fraction"] >= min_pruned_fraction, (
                f"n={n}: pruned only {record['pruned_fraction']:.1%} "
                f"of the plan space (floor {min_pruned_fraction:.0%})"
            )
            assert record["seconds_pruned"] <= record["seconds_exhaustive"], (
                f"n={n}: pruning made enumeration slower"
            )
        if record["speedup_vs_naive"] is not None:
            assert record["speedup_vs_naive"] >= 1.0, (
                f"n={n}: the naive left-deep baseline beat the planner"
            )


def write_results(records: List[dict], path: pathlib.Path = RESULT_PATH) -> None:
    payload = {"benchmark": "bench_planner", "records": list(records)}
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _format(records: Sequence[dict]) -> str:
    lines = []
    for record in records:
        speedup = record["speedup_vs_naive"]
        lines.append(
            f"n={record['n']}: {record['seconds_pruned']:.2f}s pruned vs "
            f"{record['seconds_exhaustive']:.2f}s exhaustive "
            f"({record['enumeration_speedup']:.1f}x, "
            f"{record['pruned_fraction']:.1%} of {record['plan_space']} "
            f"subplans pruned, identical choice: "
            f"{record['identical_choice']}"
            + (
                f", {speedup:.2f}x vs naive)"
                if speedup is not None
                else ", infeasible)"
            )
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# pytest entry point (n ≤ 5; CI runs the standalone script through n = 6)
# ---------------------------------------------------------------------------


def test_planner_enumeration(report_sink, bench_timings):
    testbed = build_multiway_testbed()
    records = run_planner_bench(testbed, ns=(3, 4, 5))
    write_results(records)
    for record in records:
        bench_timings.record(
            "bench_planner",
            f"star{record['n']}",
            record["seconds_pruned"],
            path="pruned",
        )
        bench_timings.record(
            "bench_planner",
            f"star{record['n']}",
            record["seconds_exhaustive"],
            path="exhaustive",
        )
    report_sink("planner", _format(records))
    check_records(records)


# ---------------------------------------------------------------------------
# standalone entry point
# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--min-n", type=int, default=3)
    parser.add_argument("--max-n", type=int, default=6)
    parser.add_argument(
        "--min-pruned-fraction",
        type=float,
        default=0.5,
        help="pruning floor enforced at n >= 5",
    )
    parser.add_argument("--out", type=pathlib.Path, default=RESULT_PATH)
    args = parser.parse_args(argv)

    testbed = build_multiway_testbed()
    records = run_planner_bench(
        testbed, ns=range(args.min_n, args.max_n + 1)
    )
    write_results(records, args.out)
    print(_format(records))
    try:
        check_records(records, args.min_pruned_fraction)
    except AssertionError as error:
        print(f"FAILED: {error}")
        return 1
    print(f"Results written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
