"""Persistent statistics: what a finished run learned, kept for the next one.

Every one-shot invocation of the adaptive optimizer pays for a pilot that
re-derives the same database statistics the previous invocation already
estimated.  The :class:`StatisticsStore` is the service's memory:

* **side records** — per (database, extractor, θ) MLE estimates
  (:class:`~repro.estimation.mle.EstimatedParameters` fields) plus the
  sample counts behind them, so freshness is a measurable quantity and
  ``/v1/stats`` can show what the service believes about each corpus;
* **task records** — per join-task signature: the final pilot executor's
  checkpoint (the exact observations a warm start resumes from), the
  estimated overlap-class sizes |Agg|/|Agb|/|Abg|/|Abb|, the convergence
  round count, the chosen plan, and the run's drift snapshots;
* **curve records** — per task or join-graph identity: the plan cache's
  answer journal (``"τg|τb"`` → the answer's response facts), valid
  only at the statistics generation it was computed under.  Both plan
  spaces, binary and n-ary, journal the same way.

Every record carries **corpus fingerprints**.  A fingerprint digests
the database's identity, scan permutation seed, and every document's id
and token count — if a corpus is regenerated, rescaled, or reseeded, its
fingerprint changes and every stored record keyed to the old fingerprint
is rejected (and dropped on the next save) instead of silently steering
the optimizer with statistics of a corpus that no longer exists.

On disk the records are sharded and journaled (the format is in
:mod:`repro.service.shards`):

* **Sharding** — records are grouped by shard key into
  ``shards/<key>.json`` + ``shards/<key>.journal`` pairs, so a save
  touches only the shards whose records actually changed.
* **Write-ahead journal** — a save *appends* one checksummed, fsynced
  record (the shard's full payload at the current generation) to the
  shard's journal.  Appends never rewrite committed bytes, so a crash —
  including ``kill -9`` mid-write — can only tear the record being
  appended, never an earlier committed one.
* **Compaction** — every ``compact_every`` journal records the shard's
  snapshot is rewritten atomically (temp + ``os.replace``) and the
  journal is replaced by an empty file, bounding journal growth without
  ever exposing a torn state.
* **Recovery** — loading replays each shard's journal over its snapshot;
  the *last valid* record (well-formed JSON, matching CRC) wins, and the
  first invalid record ends the trustworthy prefix.  Every recovered
  record passes the schema, parameter, key-coherence and shard-placement
  filters, and the generation resumes at the maximum committed shard
  generation, so plan-cache keys stay monotone across restarts.  Corrupt
  or future-versioned files degrade to an empty store rather than
  crashing the service.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import pathlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from ..estimation.mle import EstimatedParameters
from ..estimation.online import SideEstimate
from ..optimizer.adaptive import AdaptiveResult, PilotWarmStart
from ..textdb.database import TextDatabase
from ..validation.invariants import active_checker
from .shards import (
    JOURNAL_SUFFIX,
    SHARD_DIR,
    SNAPSHOT_SUFFIX,
    canonical,
    decode_journal_record,
    encode_journal_record,
    side_shard,
    task_shard,
)

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
#: persisted plan answers: per task signature or join-graph key, the
#: answer journal, valid only at the exact statistics generation it was
#: computed under
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


def _admissible_side(key: str, record: Any) -> bool:
    """Whether a loaded side record may be served under *key*.

    Beyond the schema and a cleanly converting parameter dict, the
    record's own fields must reproduce the key it is stored under: a
    hand-edited or corrupted file can hold a schema-valid record under
    the wrong key, and serving it would answer a (database, extractor, θ)
    lookup with another operating point's statistics.
    """
    return (
        isinstance(record, dict)
        and _check_schema(record, _SIDE_SCHEMA)
        and _valid_parameters(record["parameters"])
        and key
        == StatisticsStore.side_key(
            record["database"], record["extractor"], record["theta"]
        )
        and _well_formed_fingerprint(record["fingerprint"])
    )


def _admissible_fingerprinted(
    schema: Dict[str, type]
) -> Callable[[str, Any], bool]:
    """The load filter of a record kind keyed by a fingerprint list."""

    def admissible(key: str, record: Any) -> bool:
        return (
            isinstance(record, dict)
            and _check_schema(record, schema)
            and all(_well_formed_fingerprint(f) for f in record["fingerprints"])
        )

    return admissible


#: record kind -> (load filter, shard key): the one definition of which
#: loaded records are served and which shard file each belongs in
_KINDS: Dict[str, Tuple[Callable[[str, Any], bool], Callable[[Any], str]]] = {
    "sides": (_admissible_side, side_shard),
    "tasks": (_admissible_fingerprinted(_TASK_SCHEMA), task_shard),
    "curves": (_admissible_fingerprinted(_CURVE_SCHEMA), task_shard),
}


def _generation_of(payload: Dict[str, Any]) -> int:
    generation = payload.get("generation", 0)
    if not isinstance(generation, int) or isinstance(generation, bool):
        return 0
    return generation


def _replace_atomically(path: pathlib.Path, data: bytes) -> None:
    """Write *data* to a temp file, fsync it, and rename it over *path*."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


class StatisticsStore:
    """Sharded, journaled statistics with crash-safe writes.

    Mutation happens in memory and reaches disk through :meth:`save`,
    which journals every shard whose records changed.  The in-memory
    dicts are the source of truth between saves — the
    :class:`~repro.service.service.JoinService` serializes access with
    its own lock, and standalone users get last-writer-wins semantics,
    never a torn file.
    """

    def __init__(
        self,
        root: str,
        clock: Callable[[], float] = time.time,
        compact_every: int = 8,
    ) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: time source for record timestamps and freshness gates; injected
        #: so retention/warm-start behaviour is deterministic under test
        self.clock = clock
        self.compact_every = max(int(compact_every), 1)
        #: monotone generation counter, bumped on every mutation; the plan
        #: cache keys optimizer reuse on it so statistics updates invalidate
        self.generation = 0
        self._saved_generation = 0
        self.sides: Dict[str, Dict[str, Any]] = {}
        self.tasks: Dict[str, Dict[str, Any]] = {}
        #: plan-space identity -> persisted answer journal (advisory cache:
        #: recording or dropping one never bumps the generation)
        self.curves: Dict[str, Dict[str, Any]] = {}
        #: shard key -> canonical JSON of its last persisted records,
        #: for dirty detection (clean shards are skipped on save)
        self._persisted: Dict[str, str] = {}
        #: shard key -> journal records since the last compaction
        self._journal_records: Dict[str, int] = {}
        #: shard key -> trusted prefix of a journal that holds more
        #: bytes than that prefix; the next append replaces the journal
        self._untrusted_tails: Dict[str, bytes] = {}
        #: facts from the last recovery pass, surfaced in summary()
        self.recovery: Dict[str, Any] = {}
        self.load()

    @property
    def shard_dir(self) -> pathlib.Path:
        return self.root / SHARD_DIR

    def _records(self, kind: str) -> Dict[str, Dict[str, Any]]:
        records = {"sides": self.sides, "tasks": self.tasks, "curves": self.curves}
        return records[kind]

    # -- recovery -------------------------------------------------------------

    def load(self) -> None:
        """Recover from snapshots + journals; torn tails are never served."""
        self.sides = {}
        self.tasks = {}
        self.curves = {}
        self._persisted = {}
        self._journal_records = {}
        self._untrusted_tails = {}
        recovery: Dict[str, Any] = {
            "shards": 0,
            "journal_records_replayed": 0,
            "torn_records_dropped": 0,
            "invalid_records_dropped": 0,
            "generation": 0,
        }
        generation = 0
        for key in self._shard_keys():
            payload, replayed, torn = self._recover_shard(key)
            recovery["shards"] += 1
            recovery["journal_records_replayed"] += replayed
            recovery["torn_records_dropped"] += torn
            if payload is None:
                continue
            generation = max(generation, _generation_of(payload))
            accepted, dropped = self._absorb_shard(key, payload)
            recovery["invalid_records_dropped"] += dropped
            self._persisted[key] = canonical(accepted)
            self._journal_records[key] = replayed
        self.generation = generation
        self._saved_generation = generation
        recovery["generation"] = generation
        self.recovery = recovery
        self._check_coherence("store.load")

    def _shard_keys(self) -> Tuple[str, ...]:
        directory = self.shard_dir
        if not directory.is_dir():
            return ()
        keys = set()
        for path in directory.iterdir():
            name = path.name
            for suffix in (JOURNAL_SUFFIX, SNAPSHOT_SUFFIX):
                if name.endswith(suffix):
                    keys.add(name[: -len(suffix)])
        return tuple(sorted(keys))

    def _recover_shard(
        self, key: str
    ) -> Tuple[Optional[Dict[str, Any]], int, int]:
        """Snapshot + journal replay for one shard.

        Returns ``(payload, replayed, torn)``: the last committed state
        (the newest valid journal record, else the snapshot, else None
        for a shard with nothing readable), the journal records replayed
        and the torn records dropped.  Loading never writes; a journal
        holding anything beyond its trusted prefix (a torn tail, or a
        last record missing its newline) is remembered, and the shard's
        next save rewrites it as that prefix plus the new record: an
        append would land behind those bytes, where recovery never
        reaches it.
        """
        payload: Optional[Dict[str, Any]] = None
        snapshot_path = self.shard_dir / f"{key}{SNAPSHOT_SUFFIX}"
        try:
            raw = json.loads(snapshot_path.read_text())
            if isinstance(raw, dict) and raw.get("version") == STORE_VERSION:
                payload = raw
        except (OSError, ValueError):
            payload = None
        base_generation = _generation_of(payload) if payload is not None else 0
        checker = active_checker()
        journal_path = self.shard_dir / f"{key}{JOURNAL_SUFFIX}"
        try:
            raw_journal = journal_path.read_bytes()
        except OSError:
            raw_journal = b""
        trusted = []
        torn = 0
        for line in raw_journal.split(b"\n"):
            if not line.strip():
                continue
            record = decode_journal_record(line)
            if record is None:
                # A torn or corrupted record ends the trustworthy prefix:
                # anything after it may depend on the lost write.
                torn = 1
                break
            trusted.append(line)
            if checker.enabled:
                checker.check_monotone(
                    "store.journal.recover",
                    f"shard {key} generation",
                    base_generation,
                    record["generation"],
                )
            base_generation = record["generation"]
            payload = {"version": STORE_VERSION, **record}
        prefix = b"".join(line + b"\n" for line in trusted)
        if prefix != raw_journal:
            self._untrusted_tails[key] = prefix
        return payload, len(trusted), torn

    def _absorb_shard(
        self, key: str, payload: Dict[str, Any]
    ) -> Tuple[Dict[str, Dict[str, Any]], int]:
        """Merge one recovered shard payload.

        Returns the accepted records per kind and the count dropped.  A
        record is accepted only if it passes its kind's load filter and
        belongs in this shard: a record found in a shard its own shard key
        disagrees with is corruption evidence.
        """
        accepted: Dict[str, Dict[str, Any]] = {kind: {} for kind in _KINDS}
        dropped = 0
        for kind, (admissible, shard_of) in _KINDS.items():
            records = payload.get(kind, {})
            if not isinstance(records, dict):
                continue
            for name, record in records.items():
                if admissible(name, record) and shard_of(record) == key:
                    accepted[kind][name] = record
                else:
                    dropped += 1
            self._records(kind).update(accepted[kind])
        return accepted, dropped

    # -- persistence ----------------------------------------------------------

    def save(self) -> None:
        """Journal every dirty shard (append + fsync); compact when due."""
        self._check_coherence("store.save")
        directory = self.shard_dir
        directory.mkdir(parents=True, exist_ok=True)
        desired: Dict[str, Dict[str, Dict[str, Any]]] = {}
        for kind, (_, shard_of) in _KINDS.items():
            for name, record in self._records(kind).items():
                shard = desired.setdefault(
                    shard_of(record), {k: {} for k in _KINDS}
                )
                shard[kind][name] = record
        for key in sorted(desired):
            shard = desired[key]
            encoded = canonical(shard)
            if self._persisted.get(key) == encoded:
                continue  # clean shard — independent tenants don't contend
            self._append_journal(key, shard)
            self._persisted[key] = encoded
            count = self._journal_records.get(key, 0) + 1
            self._journal_records[key] = count
            if count >= self.compact_every:
                self._compact(key, shard)
        for key in sorted(set(self._persisted) - set(desired)):
            # Every record of this shard was invalidated (fingerprint
            # staleness); its files are dead weight.
            for suffix in (SNAPSHOT_SUFFIX, JOURNAL_SUFFIX):
                try:
                    os.remove(directory / f"{key}{suffix}")
                except OSError:
                    pass
            self._persisted.pop(key, None)
            self._journal_records.pop(key, None)
            self._untrusted_tails.pop(key, None)
        self._saved_generation = self.generation

    def _append_journal(
        self, key: str, shard: Dict[str, Dict[str, Any]]
    ) -> None:
        line = encode_journal_record(
            self.generation, shard["sides"], shard["tasks"], shard["curves"]
        )
        journal = self.shard_dir / f"{key}{JOURNAL_SUFFIX}"
        prefix = self._untrusted_tails.pop(key, None)
        if prefix is not None:
            _replace_atomically(journal, prefix + line)
            return
        with open(journal, "ab") as handle:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())

    def _compact(self, key: str, shard: Dict[str, Dict[str, Any]]) -> None:
        """Fold the journal into the snapshot; both steps atomic.

        The journal is emptied by replacing it rather than truncating it
        in place: a crash between the two steps just replays records the
        snapshot already holds.
        """
        snapshot = {
            "version": STORE_VERSION,
            "generation": self.generation,
            **shard,
        }
        _replace_atomically(
            self.shard_dir / f"{key}{SNAPSHOT_SUFFIX}",
            json.dumps(snapshot, sort_keys=True).encode("utf-8"),
        )
        _replace_atomically(self.shard_dir / f"{key}{JOURNAL_SUFFIX}", b"")
        self._journal_records[key] = 0

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
        for kind, schema in (
            ("side", _SIDE_SCHEMA),
            ("task", _TASK_SCHEMA),
            ("curve", _CURVE_SCHEMA),
        ):
            for key, record in self._records(f"{kind}s").items():
                checker.check(
                    _check_schema(record, schema),
                    where,
                    f"{kind} record {key!r} violates the {kind} schema",
                )
                fingerprints = (
                    [record.get("fingerprint", "")]
                    if kind == "side"
                    else record.get("fingerprints", [])
                )
                checker.check(
                    all(isinstance(f, str) and len(f) == 32 for f in fingerprints),
                    where,
                    f"{kind} record {key!r} carries a malformed fingerprint",
                )
        for key, record in self.sides.items():
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
            "overlap": {
                "n_gg": result.overlap.n_gg,
                "n_gb": result.overlap.n_gb,
                "n_bg": result.overlap.n_bg,
                "n_bb": result.overlap.n_bb,
            },
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

    # -- curve records (persisted plan answers) --------------------------------

    def record_curves(
        self,
        signature: str,
        databases: Tuple[TextDatabase, TextDatabase],
        generation: int,
        plans: Dict[str, Any],
        now: Optional[float] = None,
    ) -> str:
        """Persist a plan space's answer journal.

        ``plans`` maps ``"τg|τb"`` to an answer's response facts
        (:meth:`~repro.service.plancache.PlanCache.unexported`).  The
        record is keyed to the *exact* statistics generation it was
        computed under — answers are functions of the stored statistics,
        so any later mutation makes them unusable.  Recording
        deliberately does **not** bump the generation: the journal is a
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
        """The stored answer journal for (signature, generation), or None.

        A record written under a different generation or a corpus whose
        fingerprint has changed is deleted rather than served: a stale
        answer served as current would be a plan over statistics the
        store no longer holds.
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
        warm-start payload, then saves the store.
        """
        for side, database, extractor, estimate in zip(
            (1, 2), databases, extractors, result.estimates
        ):
            side_obs = result.pilot.observations.side(side)
            self.record_side(
                database,
                extractor,
                pilot_theta,
                estimate,
                documents_processed=side_obs.documents_processed,
                distinct_values=side_obs.distinct_values,
            )
        self.record_task(
            signature, databases, result, drift_snapshots=drift_snapshots
        )
        self.save()

    # -- reporting ------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """A JSON-ready view for ``/v1/stats``."""
        return {
            "path": str(self.shard_dir),
            "generation": self.generation,
            "recovery": dict(self.recovery),
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
