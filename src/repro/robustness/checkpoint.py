"""Checkpoint/resume of join execution state.

An interrupted join execution has already paid for document retrieval and
extraction; resuming from scratch re-pays all of it.  This module
serializes everything a binary :class:`~repro.joins.base.JoinAlgorithm`
session holds — the ripple cursor (retriever positions / probe state /
query queues), the join state's two relations (under the keys ``"left"``
and ``"right"``), per-side processed counts, simulated time, and
:class:`~repro.joins.stats_collector.ObservationCollector` counts — into
a JSON-compatible dict, and restores it into a freshly constructed
executor of the same shape.

The contract: for a deterministic execution, ``run→checkpoint→restore→run``
produces an :class:`~repro.core.quality.ExecutionReport` identical to the
uninterrupted run (same join composition, counters, and simulated time).

Quality estimators are not serialized.  The built-in estimators
(:class:`~repro.joins.base.ActualQuality`,
:class:`~repro.optimizer.adaptive.PosteriorQuality`) re-derive their
accumulators from the restored relations on their first ``estimate``
call, so they need no state of their own in the snapshot.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.quality import TimeBreakdown
from ..core.types import ExtractedTuple
from ..joins.base import JoinAlgorithm
from ..joins.idjn import IndependentJoin
from ..joins.oijn import OuterInnerJoin
from ..joins.stats_collector import RelationObservations
from ..joins.zgjn import ZigZagJoin
from ..retrieval.aqg import AQGRetriever
from ..retrieval.base import DocumentRetriever
from ..retrieval.filtered_scan import FilteredScanRetriever
from ..retrieval.queries import Query, QueryProbe
from ..retrieval.scan import ScanRetriever
from .faults import raw_database

CHECKPOINT_VERSION = 1


class CheckpointError(RuntimeError):
    """The snapshot does not fit the executor it is being restored into."""


# -- leaf (de)serializers ----------------------------------------------------


def _tuple_to_dict(tup: ExtractedTuple) -> Dict[str, Any]:
    return {
        "relation": tup.relation,
        "values": list(tup.values),
        "document_id": tup.document_id,
        "confidence": tup.confidence,
        "is_good": tup.is_good,
    }


def _tuple_from_dict(data: Dict[str, Any]) -> ExtractedTuple:
    return ExtractedTuple(
        relation=data["relation"],
        values=tuple(data["values"]),
        document_id=data["document_id"],
        confidence=data["confidence"],
        is_good=data["is_good"],
    )


def _observations_to_dict(obs: RelationObservations) -> Dict[str, Any]:
    # The per-value tallies are [key, value] pairs, not JSON objects: a
    # store that writes sorted keys would otherwise reorder them, and the
    # MLE refit sums in this order, so a restored pilot would refit
    # estimates a rounding error away from the run that recorded it.
    return {
        "relation": obs.relation,
        "attribute_index": obs.attribute_index,
        "documents_processed": obs.documents_processed,
        "productive_documents": obs.productive_documents,
        "unproductive_documents": obs.unproductive_documents,
        "sample_frequency": [
            [value, count] for value, count in obs.sample_frequency.items()
        ],
        "tuples_per_document": [
            [k, v] for k, v in obs.tuples_per_document.items()
        ],
        "value_confidences": [
            [value, list(confs)]
            for value, confs in obs.value_confidences.items()
        ],
    }


def _pairs(data: Any) -> List[Tuple[Any, Any]]:
    """Key/value pairs of a snapshot tally: a pair list, or (older
    snapshots) a JSON object."""
    return list(data.items()) if isinstance(data, dict) else list(data)


def _restore_observations(
    obs: RelationObservations, data: Dict[str, Any]
) -> None:
    if obs.relation != data["relation"]:
        raise CheckpointError(
            f"snapshot observes relation {data['relation']!r}, "
            f"executor collects {obs.relation!r}"
        )
    obs.attribute_index = data["attribute_index"]
    obs.documents_processed = data["documents_processed"]
    obs.productive_documents = data["productive_documents"]
    # Older snapshots predate the explicit unproductive count; derive it.
    obs.unproductive_documents = data.get(
        "unproductive_documents",
        data["documents_processed"] - data["productive_documents"],
    )
    obs.sample_frequency.clear()
    obs.sample_frequency.update(dict(_pairs(data["sample_frequency"])))
    obs.tuples_per_document.clear()
    obs.tuples_per_document.update(
        {int(k): v for k, v in _pairs(data["tuples_per_document"])}
    )
    obs.value_confidences.clear()
    obs.value_confidences.update(
        {
            value: list(confs)
            for value, confs in _pairs(data["value_confidences"])
        }
    )


def _probe_to_dict(probe: QueryProbe) -> Dict[str, Any]:
    return {
        "seen": sorted(probe.seen),
        "queries_issued": probe.queries_issued,
        "documents_retrieved": probe.documents_retrieved,
        "issued": sorted(list(tokens) for tokens in probe.issued_queries),
    }


def _restore_probe(probe: QueryProbe, data: Dict[str, Any]) -> None:
    probe.seen.clear()
    probe.seen.update(data["seen"])
    probe.queries_issued = data["queries_issued"]
    probe.documents_retrieved = data["documents_retrieved"]
    probe.restore_issued(tuple(tokens) for tokens in data["issued"])


def _retriever_to_dict(retriever: DocumentRetriever) -> Dict[str, Any]:
    counters = {
        "retrieved": retriever.counters.retrieved,
        "rejected": retriever.counters.rejected,
        "queries_issued": retriever.counters.queries_issued,
    }
    if isinstance(retriever, ScanRetriever):
        return {"kind": "scan", "position": retriever.position, "counters": counters}
    if isinstance(retriever, FilteredScanRetriever):
        return {
            "kind": "filtered_scan",
            "position": retriever.position,
            "counters": counters,
        }
    if isinstance(retriever, AQGRetriever):
        return {
            "kind": "aqg",
            "next_query": retriever.next_query_index,
            "buffer": retriever.buffered_ids(),
            "probe": _probe_to_dict(retriever.probe),
            "counters": counters,
        }
    raise CheckpointError(
        f"cannot checkpoint retriever type {type(retriever).__name__}"
    )


def _restore_retriever(
    retriever: DocumentRetriever, data: Dict[str, Any]
) -> None:
    kinds = {
        ScanRetriever: "scan",
        FilteredScanRetriever: "filtered_scan",
        AQGRetriever: "aqg",
    }
    expected = kinds.get(type(retriever))
    if expected != data["kind"]:
        raise CheckpointError(
            f"snapshot holds a {data['kind']!r} retriever, executor has "
            f"{type(retriever).__name__}"
        )
    counters = data["counters"]
    retriever.counters.retrieved = counters["retrieved"]
    retriever.counters.rejected = counters["rejected"]
    retriever.counters.queries_issued = counters["queries_issued"]
    if isinstance(retriever, (ScanRetriever, FilteredScanRetriever)):
        retriever.restore_position(data["position"])
    else:
        assert isinstance(retriever, AQGRetriever)
        # Re-fetch buffered documents from the (unwrapped) database: the
        # buffer holds retrieved-but-unprocessed documents, already paid
        # for before the checkpoint, so the refetch bypasses fault
        # injection and charges nothing.
        database = raw_database(retriever.database)
        retriever.restore_progress(
            next_query=data["next_query"],
            buffer=[database.get(doc_id) for doc_id in data["buffer"]],
        )
        _restore_probe(retriever.probe, data["probe"])


# -- executor snapshots ------------------------------------------------------


def checkpoint_execution(executor: JoinAlgorithm) -> Dict[str, Any]:
    """Snapshot *executor*'s session as a JSON-compatible dict."""
    session = executor.session
    state = session.state
    snapshot: Dict[str, Any] = {
        "version": CHECKPOINT_VERSION,
        "algorithm": type(executor).__name__,
        "processed": {str(k): v for k, v in session.processed.items()},
        "time": {
            "retrieval": session.time.retrieval,
            "extraction": session.time.extraction,
            "filtering": session.time.filtering,
            "querying": session.time.querying,
        },
        "left": [_tuple_to_dict(t) for t in state.relation(1)],
        "right": [_tuple_to_dict(t) for t in state.relation(2)],
        "observations": {
            str(side): _observations_to_dict(session.collector.side(side))
            for side in (1, 2)
        },
    }
    if isinstance(executor, IndependentJoin):
        snapshot["retrievers"] = {
            str(side): _retriever_to_dict(executor.retriever(side))
            for side in (1, 2)
        }
    elif isinstance(executor, OuterInnerJoin):
        snapshot["outer_retriever"] = _retriever_to_dict(
            executor.outer_retriever
        )
        snapshot["probe"] = _probe_to_dict(executor.probe)
    elif isinstance(executor, ZigZagJoin):
        snapshot["queues"] = {
            str(side): [list(q.tokens) for q in executor.queue(side)]
            for side in (1, 2)
        }
        snapshot["probes"] = {
            str(side): _probe_to_dict(executor.probe(side)) for side in (1, 2)
        }
    else:
        raise CheckpointError(
            f"cannot checkpoint executor type {type(executor).__name__}"
        )
    return snapshot


def restore_execution(
    executor: JoinAlgorithm, snapshot: Dict[str, Any]
) -> None:
    """Load *snapshot* into a freshly constructed, unstarted *executor*.

    Any malformed snapshot — missing keys, wrong value shapes, junk
    nesting — raises :class:`CheckpointError`; callers never see raw
    ``KeyError``/``TypeError`` from snapshot structure.  On error the
    executor may hold a partial restore and must be discarded.
    """
    if not isinstance(snapshot, dict):
        raise CheckpointError(
            f"checkpoint snapshot must be an object, got "
            f"{type(snapshot).__name__}"
        )
    if snapshot.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {snapshot.get('version')!r}"
        )
    try:
        _restore_checked(executor, snapshot)
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as error:
        raise CheckpointError(
            f"malformed checkpoint snapshot: {error!r}"
        ) from error


def _restore_checked(
    executor: JoinAlgorithm, snapshot: Dict[str, Any]
) -> None:
    if snapshot["algorithm"] != type(executor).__name__:
        raise CheckpointError(
            f"snapshot of {snapshot['algorithm']} cannot restore into "
            f"{type(executor).__name__}"
        )
    if executor.started:
        raise CheckpointError("restore target must be an unstarted executor")
    session = executor.session
    # Re-adding the base tuples in their original insertion order rebuilds
    # the relations and the composition deterministically.
    session.state.add(1, [_tuple_from_dict(d) for d in snapshot["left"]])
    session.state.add(2, [_tuple_from_dict(d) for d in snapshot["right"]])
    session.processed.update(
        {int(k): v for k, v in snapshot["processed"].items()}
    )
    time = snapshot["time"]
    session.time.add(
        TimeBreakdown(
            retrieval=time["retrieval"],
            extraction=time["extraction"],
            filtering=time["filtering"],
            querying=time["querying"],
        )
    )
    for side in (1, 2):
        _restore_observations(
            session.collector.side(side), snapshot["observations"][str(side)]
        )
    if isinstance(executor, IndependentJoin):
        for side in (1, 2):
            _restore_retriever(
                executor.retriever(side), snapshot["retrievers"][str(side)]
            )
    elif isinstance(executor, OuterInnerJoin):
        _restore_retriever(
            executor.outer_retriever, snapshot["outer_retriever"]
        )
        _restore_probe(executor.probe, snapshot["probe"])
    elif isinstance(executor, ZigZagJoin):
        executor.restore_queues(
            {
                int(side): [Query(tokens=tuple(t)) for t in queue]
                for side, queue in snapshot["queues"].items()
            }
        )
        for side in (1, 2):
            _restore_probe(executor.probe(side), snapshot["probes"][str(side)])


def save_checkpoint(executor: JoinAlgorithm, path: str) -> None:
    """Checkpoint *executor* to a JSON file at *path*."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(checkpoint_execution(executor), handle)


def load_checkpoint(executor: JoinAlgorithm, path: str) -> None:
    """Restore *executor* from a JSON checkpoint file at *path*."""
    with open(path, "r", encoding="utf-8") as handle:
        restore_execution(executor, json.load(handle))


# -- managed checkpoint directories ------------------------------------------


@dataclass(frozen=True)
class CheckpointInfo:
    """One managed checkpoint file: path plus retention-relevant facts."""

    name: str
    path: str
    modified: float
    size: int


class CheckpointManager:
    """A checkpoint directory with a retention policy.

    Long-lived deployments (the join service, cron-driven batch runs)
    accumulate checkpoint files forever unless something prunes them;
    the manager bounds the directory by *count* (newest ``max_count``
    survive) and by *age* (files older than ``max_age`` seconds go),
    whichever is stricter.  ``None`` disables a bound.  Pruning is safe
    to run at any time — files are removed oldest-first and a vanished
    file (pruned by a concurrent process) is not an error.

    ``grace`` protects files modified within the last *grace* seconds
    from pruning entirely, even when they exceed ``max_count``: a
    concurrent writer's freshly-replaced checkpoint (or one mid-rename
    from its ``.tmp``) must never be collected by another process's
    startup prune racing against it.
    """

    SUFFIX = ".ckpt.json"

    def __init__(
        self,
        directory: str,
        max_count: Optional[int] = None,
        max_age: Optional[float] = None,
        clock: Callable[[], float] = time.time,
        grace: float = 0.0,
    ) -> None:
        if max_count is not None and max_count < 0:
            raise ValueError("max_count must be non-negative")
        if max_age is not None and max_age < 0:
            raise ValueError("max_age must be non-negative")
        if grace < 0:
            raise ValueError("grace must be non-negative")
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_count = max_count
        self.max_age = max_age
        self.grace = grace
        #: time source for the age-based retention cutoff; injected so
        #: pruning decisions are deterministic under test
        self.clock = clock

    def path_of(self, name: str) -> str:
        return str(self.directory / f"{name}{self.SUFFIX}")

    def save(self, executor: JoinAlgorithm, name: str) -> str:
        """Checkpoint *executor* under *name*; prune, then return the path.

        The write is atomic (temp file + ``os.replace``) so a crash mid-save
        never leaves a truncated checkpoint behind.
        """
        return self.save_snapshot(checkpoint_execution(executor), name)

    def save_snapshot(self, snapshot: Dict[str, Any], name: str) -> str:
        """Persist an already-captured checkpoint dict under *name*.

        Used by the serving layer, which receives the snapshot attached
        to a :class:`~repro.robustness.deadline.DeadlineExceeded` rather
        than holding the executor itself.
        """
        path = pathlib.Path(self.path_of(name))
        tmp = path.with_suffix(path.suffix + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle)
        os.replace(tmp, path)
        self.prune()
        return str(path)

    def load(self, executor: JoinAlgorithm, name: str) -> None:
        """Restore *executor* from the checkpoint saved under *name*."""
        load_checkpoint(executor, self.path_of(name))

    def list(self) -> List[CheckpointInfo]:
        """Managed checkpoints, oldest first."""
        infos: List[CheckpointInfo] = []
        for path in self.directory.glob(f"*{self.SUFFIX}"):
            try:
                stat = path.stat()
            except OSError:
                continue
            infos.append(
                CheckpointInfo(
                    name=path.name[: -len(self.SUFFIX)],
                    path=str(path),
                    modified=stat.st_mtime,
                    size=stat.st_size,
                )
            )
        infos.sort(key=lambda info: (info.modified, info.name))
        return infos

    def prune(self, now: Optional[float] = None) -> List[str]:
        """Apply the retention policy; return the paths removed.

        Entries modified within the grace window are never removed — not
        by age, and not to satisfy ``max_count`` (the bound is enforced
        eventually, once the young entries age past the window).
        """
        infos = self.list()
        now = self.clock() if now is None else now
        protected = {
            info.path
            for info in infos
            if self.grace > 0.0 and now - info.modified < self.grace
        }
        doomed: Dict[str, CheckpointInfo] = {}
        if self.max_age is not None:
            cutoff = now - self.max_age
            for info in infos:
                if info.modified < cutoff and info.path not in protected:
                    doomed[info.path] = info
        if self.max_count is not None:
            survivors = [info for info in infos if info.path not in doomed]
            excess = len(survivors) - self.max_count
            removable = [
                info for info in survivors if info.path not in protected
            ]
            for info in removable[:max(excess, 0)]:
                doomed[info.path] = info
        removed: List[str] = []
        for path in doomed:
            try:
                os.remove(path)
            except OSError:
                continue
            removed.append(path)
        return removed
