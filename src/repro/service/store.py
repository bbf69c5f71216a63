"""Persistent statistics: what a finished run learned, kept for the next one.

Every one-shot invocation of the adaptive optimizer pays for a pilot that
re-derives the same database statistics the previous invocation already
estimated.  The :class:`StatisticsStore` is the service's memory: a
versioned JSON file holding

* **side records** — per (database, extractor, θ) MLE estimates
  (:class:`~repro.estimation.mle.EstimatedParameters` fields) plus the
  sample counts behind them, so freshness is a measurable quantity and
  ``/v1/stats`` can show what the service believes about each corpus;
* **task records** — per join-task signature: the final pilot executor's
  checkpoint (the exact observations a warm start resumes from), the
  estimated overlap-class sizes |Agg|/|Agb|/|Abg|/|Abb|, the convergence
  round count, the chosen plan, and the run's drift snapshots.

Both record kinds carry **corpus fingerprints**.  A fingerprint digests
the database's identity, scan permutation seed, and every document's id
and token count — if a corpus is regenerated, rescaled, or reseeded, its
fingerprint changes and every stored record keyed to the old fingerprint
is rejected (and dropped on the next save) instead of silently steering
the optimizer with statistics of a corpus that no longer exists.

Writes are atomic (temp file + ``os.replace``) and every load is schema-
checked; a corrupt or future-versioned file degrades to an empty store
rather than crashing the service.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import pathlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..estimation.mle import EstimatedParameters
from ..estimation.online import SideEstimate
from ..models.parameters import ValueOverlapModel
from ..optimizer.adaptive import AdaptiveResult, PilotWarmStart
from ..textdb.database import TextDatabase
from ..validation.invariants import active_checker

STORE_VERSION = 1

#: required keys (and their types) of each record kind; load-time schema
#: checking drops records that do not conform instead of crashing later
_SIDE_SCHEMA: Dict[str, type] = {
    "fingerprint": str,
    "database": str,
    "extractor": str,
    "theta": float,
    "documents_processed": int,
    "distinct_values": int,
    "created_at": float,
    "parameters": dict,
}
_TASK_SCHEMA: Dict[str, type] = {
    "fingerprints": list,
    "pilot_snapshot": dict,
    "pilot_documents": int,
    "rounds": int,
    "created_at": float,
}
#: persisted plan effort-curve probes: per task signature, the probe
#: triples every plan's optimizer descent computed, valid only at the
#: exact statistics generation they were computed under
_CURVE_SCHEMA: Dict[str, type] = {
    "fingerprints": list,
    "generation": int,
    "created_at": float,
    "plans": dict,
}


class StoreError(RuntimeError):
    """A store payload failed validation."""


def corpus_fingerprint(database: TextDatabase) -> str:
    """A stable digest of a corpus's identity and contents.

    :attr:`TextDatabase.fingerprint`: the database name, search-interface
    cap, scan/rank seed, and each document's (id, token count) pair.  The
    digest is computed once per database object, so the fingerprint check
    on every store lookup costs an attribute read.
    """
    return database.fingerprint


def task_signature(
    database1: TextDatabase,
    extractor1: str,
    database2: TextDatabase,
    extractor2: str,
    pilot_theta: float,
) -> str:
    """The store key of one join task shape."""
    return (
        f"{database1.name}/{extractor1}|{database2.name}/{extractor2}"
        f"|pilot@{pilot_theta:g}"
    )


@dataclass(frozen=True)
class WarmStartPolicy:
    """When stored statistics are trustworthy enough to skip pilot work.

    ``min_documents`` is the per-side pilot sample size below which the
    stored estimates are considered too noisy to reuse (the store tracks
    sample counts precisely so this is a hard gate, not a heuristic);
    ``max_age`` optionally expires records by wall-clock seconds.
    """

    min_documents: int = 50
    max_age: Optional[float] = None

    def fresh(self, record: Dict[str, Any], now: Optional[float] = None) -> bool:
        if record["pilot_documents"] < self.min_documents:
            return False
        if self.max_age is not None:
            now = time.time() if now is None else now
            if now - record["created_at"] > self.max_age:
                return False
        return True


def _parameters_to_dict(parameters: EstimatedParameters) -> Dict[str, Any]:
    return dataclasses.asdict(parameters)


def _parameters_from_dict(data: Dict[str, Any]) -> EstimatedParameters:
    fields = {f.name for f in dataclasses.fields(EstimatedParameters)}
    unknown = set(data) - fields
    if unknown:
        raise StoreError(f"unknown parameter fields {sorted(unknown)}")
    required = fields - {"good_occurrence_share"}
    missing = required - set(data)
    if missing:
        raise StoreError(f"missing parameter fields {sorted(missing)}")
    if not isinstance(data["relation"], str):
        raise StoreError("parameter field 'relation' must be a string")
    for name in set(data) - {"relation"}:
        value = data[name]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise StoreError(f"parameter field {name!r} must be numeric")
        # json.loads happily parses Infinity/NaN; round() on either raises
        # deep inside SideStatistics construction instead of here.
        if not math.isfinite(value):
            raise StoreError(f"parameter field {name!r} must be finite")
    for name in ("k_max_good", "k_max_bad"):
        if data[name] != int(data[name]):
            raise StoreError(f"parameter field {name!r} must be an integer")
        data = {**data, name: int(data[name])}
    return EstimatedParameters(**data)


def _valid_parameters(data: Dict[str, Any]) -> bool:
    """Whether a stored parameters dict converts cleanly (load-time gate)."""
    try:
        _parameters_from_dict(data)
    except StoreError:
        return False
    return True


def _well_formed_fingerprint(value: Any) -> bool:
    """A corpus fingerprint is a 32-hex-char blake2b digest."""
    return (
        isinstance(value, str)
        and len(value) == 32
        and all(c in "0123456789abcdef" for c in value)
    )


def _coherent_side(key: str, record: Dict[str, Any]) -> bool:
    """The record's own fields must reproduce the key it is stored under.

    A hand-edited or corrupted file can hold a schema-valid record under
    the wrong key; serving it would answer a (database, extractor, θ)
    lookup with another operating point's statistics.
    """
    expected = StatisticsStore.side_key(
        record["database"], record["extractor"], record["theta"]
    )
    return key == expected and _well_formed_fingerprint(record["fingerprint"])


def _coherent_task(record: Dict[str, Any]) -> bool:
    return all(_well_formed_fingerprint(f) for f in record["fingerprints"])


def _check_schema(record: Dict[str, Any], schema: Dict[str, type]) -> bool:
    for key, kind in schema.items():
        if key not in record:
            return False
        value = record[key]
        # JSON has no separate bool/int distinction problem, but Python's
        # bool subclasses int — reject it for both numeric kinds so a
        # fuzzed `"rounds": true` cannot masquerade as a count.
        if kind is float:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                return False
        elif kind is int:
            if not isinstance(value, int) or isinstance(value, bool):
                return False
        elif not isinstance(value, kind):
            return False
    return True


class StatisticsStore:
    """Versioned JSON-on-disk statistics with atomic writes.

    One store file serves many concurrent requests; mutation goes through
    :meth:`save`, which rewrites the whole file atomically.  The in-memory
    dicts are the source of truth between saves — the
    :class:`~repro.service.service.JoinService` serializes access with its
    own lock, and standalone users get last-writer-wins semantics, never a
    torn file.
    """

    FILENAME = "statistics.json"

    def __init__(
        self, root: str, clock: Callable[[], float] = time.time
    ) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / self.FILENAME
        #: time source for record timestamps and freshness gates; injected
        #: so retention/warm-start behaviour is deterministic under test
        self.clock = clock
        #: monotone generation counter, bumped on every mutation; the plan
        #: cache keys optimizer reuse on it so statistics updates invalidate
        self.generation = 0
        self._saved_generation = 0
        self.sides: Dict[str, Dict[str, Any]] = {}
        self.tasks: Dict[str, Dict[str, Any]] = {}
        #: task signature -> persisted plan curve probes (advisory cache:
        #: recording or dropping them never bumps the generation)
        self.curves: Dict[str, Dict[str, Any]] = {}
        self.load()

    # -- persistence ----------------------------------------------------------

    def load(self) -> None:
        """Read the store file; invalid content degrades to empty."""
        self.sides = {}
        self.tasks = {}
        self.curves = {}
        try:
            payload = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return
        if not isinstance(payload, dict) or payload.get("version") != STORE_VERSION:
            return
        sides = payload.get("sides", {})
        tasks = payload.get("tasks", {})
        curves = payload.get("curves", {})
        if isinstance(sides, dict):
            self.sides = {
                key: record
                for key, record in sides.items()
                if isinstance(record, dict)
                and _check_schema(record, _SIDE_SCHEMA)
                and _valid_parameters(record["parameters"])
                and _coherent_side(key, record)
            }
        if isinstance(tasks, dict):
            self.tasks = {
                key: record
                for key, record in tasks.items()
                if isinstance(record, dict)
                and _check_schema(record, _TASK_SCHEMA)
                and _coherent_task(record)
            }
        if isinstance(curves, dict):
            self.curves = {
                key: record
                for key, record in curves.items()
                if isinstance(record, dict)
                and _check_schema(record, _CURVE_SCHEMA)
                and _coherent_task(record)
            }
        self._check_coherence("store.load")

    def save(self) -> str:
        """Atomically rewrite the store file; return its path."""
        self._check_coherence("store.save")
        payload = {
            "version": STORE_VERSION,
            "sides": self.sides,
            "tasks": self.tasks,
            "curves": self.curves,
        }
        tmp = self.path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True))
        os.replace(tmp, self.path)
        self._saved_generation = self.generation
        return str(self.path)

    def _check_coherence(self, where: str) -> None:
        """Selfcheck hook: stored records stay schema- and key-coherent."""
        checker = active_checker()
        if not checker.enabled:
            return
        checker.check(
            self.generation >= self._saved_generation,
            where,
            f"generation counter moved backwards ({self.generation} < "
            f"{self._saved_generation})",
        )
        for key, record in self.sides.items():
            checker.check(
                _check_schema(record, _SIDE_SCHEMA),
                where,
                f"side record {key!r} violates the side schema",
            )
            expected = self.side_key(
                record.get("database", ""),
                record.get("extractor", ""),
                record.get("theta", 0.0),
            )
            checker.check(
                key == expected,
                where,
                f"side record stored under {key!r} but its fields say "
                f"{expected!r}",
            )
            fingerprint = record.get("fingerprint", "")
            checker.check(
                isinstance(fingerprint, str) and len(fingerprint) == 32,
                where,
                f"side record {key!r} carries a malformed fingerprint",
            )
        for key, record in self.tasks.items():
            checker.check(
                _check_schema(record, _TASK_SCHEMA),
                where,
                f"task record {key!r} violates the task schema",
            )
            checker.check(
                all(
                    isinstance(f, str) and len(f) == 32
                    for f in record.get("fingerprints", [])
                ),
                where,
                f"task record {key!r} carries a malformed fingerprint",
            )
        for key, record in self.curves.items():
            checker.check(
                _check_schema(record, _CURVE_SCHEMA),
                where,
                f"curve record {key!r} violates the curve schema",
            )
            checker.check(
                all(
                    isinstance(f, str) and len(f) == 32
                    for f in record.get("fingerprints", [])
                ),
                where,
                f"curve record {key!r} carries a malformed fingerprint",
            )

    # -- side records ---------------------------------------------------------

    @staticmethod
    def side_key(database: str, extractor: str, theta: float) -> str:
        return f"{database}/{extractor}@{theta:g}"

    def record_side(
        self,
        database: TextDatabase,
        extractor: str,
        theta: float,
        estimate: SideEstimate,
        documents_processed: int,
        distinct_values: int,
        now: Optional[float] = None,
    ) -> str:
        """Store one side's MLE estimate; returns the record key."""
        key = self.side_key(database.name, extractor, theta)
        self.sides[key] = {
            "fingerprint": corpus_fingerprint(database),
            "database": database.name,
            "extractor": extractor,
            "theta": float(theta),
            "documents_processed": int(documents_processed),
            "distinct_values": int(distinct_values),
            "created_at": self.clock() if now is None else now,
            "parameters": _parameters_to_dict(estimate.parameters),
        }
        self.generation += 1
        return key

    def side_record(
        self, database: TextDatabase, extractor: str, theta: float
    ) -> Optional[Dict[str, Any]]:
        """The stored record for this side, or None if absent/stale.

        A fingerprint mismatch deletes the record: statistics of a corpus
        that no longer exists must never be served again.
        """
        key = self.side_key(database.name, extractor, theta)
        record = self.sides.get(key)
        if record is None:
            return None
        if record["fingerprint"] != corpus_fingerprint(database):
            del self.sides[key]
            self.generation += 1
            return None
        return record

    def side_parameters(
        self, database: TextDatabase, extractor: str, theta: float
    ) -> Optional[EstimatedParameters]:
        record = self.side_record(database, extractor, theta)
        if record is None:
            return None
        return _parameters_from_dict(record["parameters"])

    # -- task records ---------------------------------------------------------

    def record_task(
        self,
        signature: str,
        databases: Tuple[TextDatabase, TextDatabase],
        result: AdaptiveResult,
        overlap: Optional[ValueOverlapModel] = None,
        drift_snapshots: Tuple[Dict[str, Any], ...] = (),
        now: Optional[float] = None,
    ) -> str:
        """Store everything a finished adaptive run learned about a task.

        Requires the run to have been made with ``snapshot_pilot=True`` —
        the pilot checkpoint *is* the warm-start payload.
        """
        if result.pilot_snapshot is None:
            raise StoreError(
                "adaptive result carries no pilot snapshot; construct the "
                "driver with snapshot_pilot=True"
            )
        record: Dict[str, Any] = {
            "fingerprints": [corpus_fingerprint(db) for db in databases],
            "pilot_snapshot": result.pilot_snapshot,
            "pilot_documents": int(result.pilot_size),
            "rounds": int(result.rounds),
            "created_at": self.clock() if now is None else now,
            "chosen_plan": (
                result.chosen.plan.describe() if result.chosen is not None else None
            ),
            "drift_snapshots": list(drift_snapshots),
        }
        if overlap is not None:
            record["overlap"] = {
                "n_gg": overlap.n_gg,
                "n_gb": overlap.n_gb,
                "n_bg": overlap.n_bg,
                "n_bb": overlap.n_bb,
            }
        self.tasks[signature] = record
        self.generation += 1
        return signature

    def task_record(
        self,
        signature: str,
        databases: Tuple[TextDatabase, TextDatabase],
    ) -> Optional[Dict[str, Any]]:
        """The stored task record, or None if absent or fingerprint-stale."""
        record = self.tasks.get(signature)
        if record is None:
            return None
        current = [corpus_fingerprint(db) for db in databases]
        if record["fingerprints"] != current:
            del self.tasks[signature]
            self.generation += 1
            return None
        return record

    def warm_start_for(
        self,
        signature: str,
        databases: Tuple[TextDatabase, TextDatabase],
        policy: Optional[WarmStartPolicy] = None,
        now: Optional[float] = None,
    ) -> Optional[PilotWarmStart]:
        """A driver-ready warm start, or None when nothing fresh is stored."""
        record = self.task_record(signature, databases)
        if record is None:
            return None
        policy = policy if policy is not None else WarmStartPolicy()
        if not policy.fresh(record, now=self.clock() if now is None else now):
            return None
        return PilotWarmStart(
            snapshot=record["pilot_snapshot"],
            documents=record["pilot_documents"],
            rounds=record["rounds"],
        )

    # -- curve records (persisted plan effort probes) --------------------------

    def record_curves(
        self,
        signature: str,
        databases: Tuple[TextDatabase, TextDatabase],
        generation: int,
        plans: Dict[str, Any],
        now: Optional[float] = None,
    ) -> str:
        """Persist the optimizer's computed probe triples for a task.

        ``plans`` is :meth:`JoinOptimizer.export_probes` output.  The
        record is keyed to the *exact* statistics generation it was
        computed under — curve shapes are functions of the stored
        statistics, so any later mutation makes them unusable.  Recording
        curves deliberately does **not** bump the generation: it is a
        derived cache, and bumping would invalidate the very plan-cache
        entries it exists to warm.
        """
        self.curves[signature] = {
            "fingerprints": [corpus_fingerprint(db) for db in databases],
            "generation": int(generation),
            "created_at": self.clock() if now is None else now,
            "plans": plans,
        }
        return signature

    def curves_for(
        self,
        signature: str,
        databases: Tuple[TextDatabase, TextDatabase],
        generation: int,
    ) -> Optional[Dict[str, Any]]:
        """Stored probe triples for (signature, generation), or None.

        A record written under a different generation or a corpus whose
        fingerprint has changed is deleted rather than served: a stale
        probe answered as current would silently corrupt the byte-identity
        guarantee of the pruned optimizer.
        """
        record = self.curves.get(signature)
        if record is None:
            return None
        current = [corpus_fingerprint(db) for db in databases]
        if (
            record["fingerprints"] != current
            or record["generation"] != int(generation)
        ):
            del self.curves[signature]
            return None
        return record

    def record_run(
        self,
        signature: str,
        databases: Tuple[TextDatabase, TextDatabase],
        extractors: Tuple[str, str],
        pilot_theta: float,
        result: AdaptiveResult,
        drift_snapshots: Tuple[Dict[str, Any], ...] = (),
    ) -> None:
        """Persist every statistic a finished adaptive run produced.

        One call records both side estimates (at the pilot θ, the operating
        point they were measured at), the overlap classes, and the task's
        warm-start payload, then saves the file.
        """
        from ..estimation.online import estimate_overlap

        estimate1, estimate2 = result.estimates
        observations = result.pilot.observations
        for side, database, extractor, estimate in (
            (1, databases[0], extractors[0], estimate1),
            (2, databases[1], extractors[1], estimate2),
        ):
            side_obs = observations.side(side)
            self.record_side(
                database,
                extractor,
                pilot_theta,
                estimate,
                documents_processed=side_obs.documents_processed,
                distinct_values=side_obs.distinct_values,
            )
        overlap = estimate_overlap(
            estimate1, estimate2, observations.side(1), observations.side(2)
        )
        self.record_task(
            signature,
            databases,
            result,
            overlap=overlap,
            drift_snapshots=drift_snapshots,
        )
        self.save()

    # -- reporting ------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """A JSON-ready view for ``/v1/stats``."""
        return {
            "path": str(self.path),
            "generation": self.generation,
            "sides": {
                key: {
                    k: record[k]
                    for k in (
                        "database",
                        "extractor",
                        "theta",
                        "documents_processed",
                        "distinct_values",
                        "created_at",
                        "fingerprint",
                    )
                }
                for key, record in sorted(self.sides.items())
            },
            "tasks": {
                key: {
                    "pilot_documents": record["pilot_documents"],
                    "rounds": record["rounds"],
                    "created_at": record["created_at"],
                    "chosen_plan": record.get("chosen_plan"),
                    "overlap": record.get("overlap"),
                    "drift_snapshots": len(record.get("drift_snapshots", [])),
                }
                for key, record in sorted(self.tasks.items())
            },
            "curves": {
                key: {
                    "generation": record["generation"],
                    "created_at": record["created_at"],
                    "plans": len(record["plans"]),
                    "probes": sum(
                        len(entry.get("probes", ()))
                        for entry in record["plans"].values()
                        if isinstance(entry, dict)
                    ),
                }
                for key, record in sorted(self.curves.items())
            },
        }


__all__ = [
    "STORE_VERSION",
    "StatisticsStore",
    "StoreError",
    "WarmStartPolicy",
    "corpus_fingerprint",
    "task_signature",
]
