"""Plan caching across serving requests.

A :class:`~repro.optimizer.optimizer.JoinOptimizer` is requirement-
independent: its analytical models, memoized predictors, and the
:class:`~repro.optimizer.engine.PlanEvaluationEngine`'s effort curves are
all built once per *statistics snapshot* and answer any (τg, τb) by a
cheap searchsorted over the cached curves.  A serving front end should
therefore never rebuild an optimizer for a task whose statistics have not
changed — and must never reuse one whose statistics have.

:class:`PlanCache` keys optimizer reuse on
``(task signature, statistics generation, available access paths)``:

* the **signature** names the task shape (databases, extractors, pilot θ);
* the **generation** is the statistics store's monotone mutation counter —
  any recorded run or fingerprint invalidation bumps it, so cached plans
  chosen under superseded statistics are unreachable by construction;
* the **paths** tuple lists access paths currently unavailable (circuit
  breakers open, degradation in effect) — a plan chosen when all paths
  were healthy must not be served while one of them is dead, and vice
  versa.

Within one live key the cache further memoizes full
:class:`~repro.optimizer.optimizer.OptimizationResult` objects per
requirement, so a repeated (task, τg, τb) costs a dict lookup.

The service's plan-mode and warm execute-mode requests share one cache:
both build their optimizer from the same stored statistics under the
same key.  Per-entry bookkeeping (tallies already published as metrics,
probe triples already persisted) lives on the entry itself, so eviction
and invalidation drop it together with the optimizer.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from ..core.plan import JoinPlanSpec
from ..core.preferences import QualityRequirement
from ..optimizer.optimizer import JoinOptimizer, OptimizationResult


@dataclass(frozen=True)
class PlanCacheKey:
    """Identity of one reusable optimizer."""

    signature: str
    generation: int
    #: sorted access paths currently unavailable (empty = all healthy)
    unavailable_paths: Tuple[str, ...] = ()

    @staticmethod
    def of(
        signature: str,
        generation: int,
        unavailable_paths: Sequence[str] = (),
    ) -> "PlanCacheKey":
        return PlanCacheKey(
            signature=signature,
            generation=generation,
            unavailable_paths=tuple(sorted(set(unavailable_paths))),
        )


class _Entry:
    """One cached optimizer plus its per-requirement results."""

    def __init__(self, optimizer: JoinOptimizer) -> None:
        self.optimizer = optimizer
        self.results: Dict[
            Tuple[float, float], OptimizationResult
        ] = {}
        #: pruning tallies already handed out by :meth:`PlanCache.unpublished`
        self.published: Dict[str, int] = {}
        #: probe triples the statistics store holds for this optimizer:
        #: whatever it imported at build time, then the last export
        probe_count = getattr(optimizer, "probe_count", None)
        self.persisted_probes = probe_count() if probe_count else 0


class PlanCache:
    """LRU cache of optimizers and optimization results.

    Thread-safe: the serving worker pool optimizes concurrently, and two
    requests for the same key must share one optimizer rather than racing
    to build two.  The lock is held across a cache-miss optimization —
    deliberate, since concurrent misses on one engine would race its
    curve construction; hits for *other* keys queue only briefly.
    """

    def __init__(self, max_entries: int = 16) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: "OrderedDict[PlanCacheKey, _Entry]" = OrderedDict()
        self._lock = threading.Lock()
        #: pruning tallies of optimizers already dropped from the cache,
        #: so aggregate counters stay monotone across evictions
        self._retired_pruning: Dict[str, int] = {}
        #: result-level tallies (requirement seen before under a live key)
        self.hits = 0
        self.misses = 0
        #: optimizer-level tallies (key seen before at all)
        self.optimizer_hits = 0
        self.optimizer_misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def optimize(
        self,
        key: PlanCacheKey,
        plans: Sequence[JoinPlanSpec],
        requirement: QualityRequirement,
        optimizer_factory: Callable[[], JoinOptimizer],
    ) -> Tuple[OptimizationResult, bool]:
        """Optimize through the cache; returns (result, was_result_hit).

        A key with a *newer* generation than a cached entry of the same
        signature silently invalidates the stale entry — statistics
        updated, old plans gone.  The factory is only called when no live
        optimizer exists for the key.
        """
        with self._lock:
            self._drop_superseded(key)
            entry = self._entries.get(key)
            if entry is None:
                self.optimizer_misses += 1
                entry = _Entry(optimizer_factory())
                self._entries[key] = entry
                while len(self._entries) > self.max_entries:
                    _, evicted = self._entries.popitem(last=False)
                    self._retire(evicted)
                    self.evictions += 1
            else:
                self.optimizer_hits += 1
            self._entries.move_to_end(key)
            requirement_key = (
                float(requirement.tau_good),
                float(requirement.tau_bad),
            )
            result = entry.results.get(requirement_key)
            if result is not None:
                self.hits += 1
                return result, True
            self.misses += 1
            result = entry.optimizer.optimize(list(plans), requirement)
            entry.results[requirement_key] = result
            return result, False

    def _retire(self, entry: _Entry) -> None:
        """Fold a dropped entry's pruning tallies into the retired pool."""
        pruning = getattr(entry.optimizer, "pruning", None)
        if pruning is None:
            return
        for name, value in pruning.as_dict().items():
            self._retired_pruning[name] = (
                self._retired_pruning.get(name, 0) + value
            )

    def optimizer_for(self, key: PlanCacheKey) -> Optional[JoinOptimizer]:
        """The live cached optimizer for *key*, or None.

        A peek, not a use: the entry's LRU position is left alone.  The
        service uses this to reach a cached multiway planner's model after
        an optimization went through :meth:`optimize`.
        """
        with self._lock:
            entry = self._entries.get(key)
            return entry.optimizer if entry is not None else None

    def curve_points(
        self,
        key: PlanCacheKey,
        plan: JoinPlanSpec,
        optimizer_factory: Callable[[], JoinOptimizer],
    ) -> Any:
        """*key*'s effort curve for *plan*, built under the cache lock.

        ``JoinOptimizer.curve_points`` builds engine curves on demand, and
        two threads building curves on one optimizer would race.  An entry
        evicted since its optimization is rebuilt from *optimizer_factory*
        for this one curve (same statistics, so the same curve) and not
        cached again.
        """
        with self._lock:
            entry = self._entries.get(key)
            optimizer = (
                entry.optimizer if entry is not None else optimizer_factory()
            )
            return optimizer.curve_points(plan)

    def unpublished(self, key: PlanCacheKey) -> Dict[str, int]:
        """Pruning-tally growth of *key*'s optimizer since the last call.

        Each increment is handed out once, so callers folding the deltas
        into monotone counters never count one twice; {} for a key with
        no live entry.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return {}
            tallies = entry.optimizer.pruning.as_dict()
            delta = {
                name: value - entry.published.get(name, 0)
                for name, value in tallies.items()
                if value > entry.published.get(name, 0)
            }
            entry.published = tallies
            return delta

    def unpersisted_probes(
        self, key: PlanCacheKey
    ) -> Optional[Dict[str, dict]]:
        """*key*'s probe export if it holds probes the store lacks, else None.

        The returned probes count as persisted from then on; the caller
        writes them to the store.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            payload = entry.optimizer.export_probes()
            count = sum(len(record["probes"]) for record in payload.values())
            if count <= entry.persisted_probes:
                return None
            entry.persisted_probes = count
            return payload

    def aggregate_counters(self) -> Dict[str, int]:
        """Pruning/curve-reuse tallies summed over all optimizers ever cached.

        Monotone: dropped entries' tallies are retained, so the numbers
        behave like counters even across evictions and invalidations.
        """
        with self._lock:
            totals = dict(self._retired_pruning)
            for entry in self._entries.values():
                pruning = getattr(entry.optimizer, "pruning", None)
                if pruning is None:
                    continue
                for name, value in pruning.as_dict().items():
                    totals[name] = totals.get(name, 0) + value
            return totals

    def _drop_superseded(self, key: PlanCacheKey) -> None:
        stale = [
            cached
            for cached in self._entries
            if cached.signature == key.signature
            and cached.generation < key.generation
        ]
        for cached in stale:
            self._retire(self._entries[cached])
            del self._entries[cached]
            self.invalidations += 1

    def invalidate(self, signature: Optional[str] = None) -> int:
        """Drop entries for *signature* (or everything); returns count."""
        with self._lock:
            if signature is None:
                dropped = len(self._entries)
                for entry in self._entries.values():
                    self._retire(entry)
                self._entries.clear()
            else:
                stale = [
                    key
                    for key in self._entries
                    if key.signature == signature
                ]
                for key in stale:
                    self._retire(self._entries[key])
                    del self._entries[key]
                dropped = len(stale)
            self.invalidations += dropped
            return dropped

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "optimizer_hits": self.optimizer_hits,
                "optimizer_misses": self.optimizer_misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }


__all__ = ["PlanCache", "PlanCacheKey"]
