"""Seeded request sequences for the service workloads.

A sequence is a pure function of ``(workload, seed, seconds)``: the seed
fixes the order, and ``seconds`` fixes how many grid rounds are sent,
through a per-workload reference rate -- never through the speed measured
during the run.  Every seed therefore sends the same multiset of
requests, so the cache hit/miss mix is identical across runs and commits
and only the order changes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: binary HQ⋈EX execute-mode grid: τg × τb (10**6 = no bad-tuple limit)
EXECUTE_GRID: Tuple[Tuple[int, int], ...] = tuple(
    (good, bad)
    for good in (10, 20, 40, 80, 150, 300, 600)
    for bad in (15, 60, 10**6)
)

#: star3 (HQ⋈EX⋈MG on Company) requirement grid
MULTIWAY_GRID: Tuple[Tuple[int, int], ...] = tuple(
    (good, bad)
    for good in (10, 20, 30, 40, 50, 60)
    for bad in (60, 120, 250, 1000)
)

#: the requirement of the set-up's first star3 plan (which builds the
#: planner catalog); outside MULTIWAY_GRID, so every grid requirement is
#: still planned exactly once inside the measured sequence
MULTIWAY_SETUP = (40, 500)


@dataclass(frozen=True)
class Request:
    """One request of a workload sequence."""

    tau_good: int
    tau_bad: int
    mode: str
    multiway: bool = False

    @property
    def key(self) -> str:
        """Golden-answer key: the request, independent of its position."""
        kind = "multiway" if self.multiway else "binary"
        return f"{kind}:{self.mode}:{self.tau_good}:{self.tau_bad}"


@dataclass(frozen=True)
class Workload:
    """A named workload: its grid and how seconds map to grid rounds."""

    name: str
    #: the (τg, τb) requirements this workload draws from
    grid: Tuple[Tuple[int, int], ...]
    #: reference requests per second, used only to turn ``--seconds``
    #: into a whole number of rounds over the grid
    reference_rate: float

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds * self.reference_rate / len(self.grid)))

    def grid_requests(self) -> List[Request]:
        """One request per golden entry of this workload."""
        if self.name == "execute_warm":
            return [Request(g, b, "execute") for g, b in self.grid]
        return [
            Request(g, b, mode, multiway=True)
            for g, b in self.grid
            for mode in ("plan", "execute")
        ]

    def sequence(self, seed: int, seconds: float) -> List[Request]:
        rng = random.Random(f"{self.name}:{seed}")
        rounds = self.rounds(seconds)
        if self.name == "execute_warm":
            # Every round is one seeded permutation of the grid; the store
            # is only read, so order never changes an answer.
            out: List[Request] = []
            for _ in range(rounds):
                grid = self.grid_requests()
                rng.shuffle(grid)
                out.extend(grid)
            return out
        # multiway_mix: each requirement is planned once, then executed
        # (rounds) times; requirement blocks come in seeded order.
        grid = list(self.grid)
        rng.shuffle(grid)
        out = []
        for good, bad in grid:
            out.append(Request(good, bad, "plan", multiway=True))
            out.extend(
                Request(good, bad, "execute", multiway=True)
                for _ in range(rounds)
            )
        return out


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # Why each workload exists: BENCHMARK.json and README.md.
        Workload("execute_warm", EXECUTE_GRID, reference_rate=8.0),
        # 13 executes per plan: the 24 planner runs, whose speed the
        # reference kernel tracks less closely, then take under half of
        # the request time, which steadies throughput between runs.
        Workload("multiway_mix", MULTIWAY_GRID, reference_rate=32.0),
    )
}
