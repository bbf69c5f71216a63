"""Deterministic structure fuzzing of the JSON surfaces.

Three surfaces accept JSON produced outside the process — the statistics
store's shard snapshots and journals, checkpoint snapshots, and HTTP
request bodies.  Their contract
is *degrade, don't crash*: malformed input must either be dropped (store
load), or raise the surface's own typed error (:class:`CheckpointError`,
``ValueError``) that the caller already handles — never a raw
``KeyError``/``TypeError``/``OverflowError`` escaping from the guts.

The driver is deterministic: a seeded PRNG walks every path of a known
valid payload and applies a fixed mutation vocabulary (delete, ``None``,
type flip, ``Infinity``/``NaN``/1e400, bool-for-int, junk nesting,
truncated raw text).  The same seed replays the same corpus, so any crash
it finds is immediately a pinned regression test.
"""

from __future__ import annotations

import copy
import functools
import json
import pathlib
import random
import tempfile
from typing import Any, Callable, Dict, List, Optional, Tuple

MUTATIONS_PER_TARGET = 120


def _paths(node: Any, prefix: Tuple = ()) -> List[Tuple]:
    """Every key path into a nested JSON-like object (dicts and lists)."""
    found: List[Tuple] = []
    if isinstance(node, dict):
        for key, value in node.items():
            found.append(prefix + (key,))
            found.extend(_paths(value, prefix + (key,)))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            found.append(prefix + (index,))
            found.extend(_paths(value, prefix + (index,)))
    return found


def _get_parent(root: Any, path: Tuple) -> Any:
    node = root
    for step in path[:-1]:
        node = node[step]
    return node


#: the mutation vocabulary; each entry maps an existing value to its
#: replacement (or the DELETE sentinel)
_DELETE = object()
_REPLACEMENTS: List[Callable[[Any], Any]] = [
    lambda value: _DELETE,
    lambda value: None,
    lambda value: "junk",
    lambda value: -1,
    lambda value: float("inf"),
    lambda value: float("nan"),
    lambda value: 1e400,
    lambda value: True,
    lambda value: [],
    lambda value: {},
    lambda value: {"nested": ["junk", None]},
    lambda value: str(value),
]


def mutate(payload: Any, rng: random.Random) -> Any:
    """One deterministic structural mutation of a deep copy of *payload*."""
    clone = copy.deepcopy(payload)
    paths = _paths(clone)
    if not paths:
        return "junk"
    path = rng.choice(paths)
    parent = _get_parent(clone, path)
    replacement = rng.choice(_REPLACEMENTS)(parent[path[-1]])
    if replacement is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return clone


def _run_target(
    name: str,
    payload_factory: Callable[[], Any],
    probe: Callable[[Any], None],
    allowed: Tuple[type, ...],
    seed: int,
    trials: int,
) -> Dict[str, Any]:
    """Fuzz one surface; only *allowed* exception types may escape."""
    rng = random.Random(f"{name}|{seed}")
    failures: List[Dict[str, str]] = []
    for trial in range(trials):
        mutated = mutate(payload_factory(), rng)
        try:
            probe(mutated)
        except allowed:
            continue
        except Exception as error:  # noqa: BLE001 — the point of the fuzz
            failures.append(
                {
                    "trial": str(trial),
                    "error": f"{type(error).__name__}: {error}",
                    "payload": json.dumps(mutated, default=repr)[:400],
                }
            )
    return {"target": name, "trials": trials, "failures": failures}


# ---------------------------------------------------------------------------
# surface probes
# ---------------------------------------------------------------------------


def _store_payload() -> Dict[str, Any]:
    """A valid shard snapshot holding one record of every kind."""
    parameters = {
        "relation": "HQ",
        "n_good_values": 120.0,
        "n_bad_values": 30.0,
        "beta_good": 1.1,
        "beta_bad": 0.9,
        "n_good_docs": 200.0,
        "n_bad_docs": 50.0,
        "k_max_good": 12,
        "k_max_bad": 6,
        "log_likelihood": -512.5,
        "good_occurrence_share": 0.7,
    }
    return {
        "version": 1,
        "generation": 3,
        "sides": {
            "nyt96/HQ@0.4": {
                "fingerprint": "ab" * 16,
                "database": "nyt96",
                "extractor": "HQ",
                "theta": 0.4,
                "documents_processed": 90,
                "distinct_values": 40,
                "created_at": 100.0,
                "parameters": parameters,
            }
        },
        "tasks": {
            "nyt96/HQ|nyt95/EX|pilot@0.4": {
                "fingerprints": ["ab" * 16, "cd" * 16],
                "pilot_snapshot": {"version": 1, "algorithm": "X"},
                "pilot_documents": 90,
                "rounds": 2,
                "created_at": 100.0,
            }
        },
        "curves": {
            "nyt96/HQ|nyt95/EX|pilot@0.4": {
                "fingerprints": ["ab" * 16, "cd" * 16],
                "generation": 3,
                "created_at": 100.0,
                "plans": {"IDJN": {"max_effort": 10.0, "probes": [[1.0, 2.0]]}},
            }
        },
    }


def _journal_line(payload: Any) -> bytes:
    """A CRC-valid journal record over *payload*'s body, whatever it holds."""
    from ..service.shards import encode_journal_record

    body = payload if isinstance(payload, dict) else {}
    parts = (body.get(key) for key in ("generation", "sides", "tasks", "curves"))
    return encode_journal_record(*parts)


def _load_shards(snapshot: Optional[str], journal: Optional[bytes]) -> Any:
    """Write *snapshot* / *journal* into every shard the valid payload's
    records live in, then open, check, save and return a store over them."""
    from ..service.shards import (
        JOURNAL_SUFFIX,
        SHARD_DIR,
        SNAPSHOT_SUFFIX,
        side_shard,
        task_shard,
    )
    from ..service.store import (
        StatisticsStore,
        StoreError,
        _parameters_from_dict,
    )

    valid = _store_payload()
    keys = {side_shard(r) for r in valid["sides"].values()}
    keys |= {task_shard(r) for r in valid["tasks"].values()}
    with tempfile.TemporaryDirectory() as root:
        directory = pathlib.Path(root) / SHARD_DIR
        directory.mkdir()
        for key in keys:
            if snapshot is not None:
                (directory / f"{key}{SNAPSHOT_SUFFIX}").write_text(snapshot)
            if journal is not None:
                (directory / f"{key}{JOURNAL_SUFFIX}").write_bytes(journal)
        # The contract: loading never raises, it degrades record-by-record.
        store = StatisticsStore(root)
        # Surviving records must convert cleanly (or fail as StoreError,
        # which side_parameters callers handle) — load already filtered.
        for record in store.sides.values():
            try:
                _parameters_from_dict(record["parameters"])
            except StoreError:
                pass
        store.save()
    return store


def _probe_store(mutated: Any) -> None:
    _load_shards(json.dumps(mutated, default=repr), None)
    _load_shards(None, _journal_line(mutated))


def _corrupt(text: str, rng: random.Random) -> str:
    """Truncate *text*, or overwrite one of its characters."""
    cut = rng.randrange(0, len(text))
    if rng.random() < 0.5:
        return text[:cut]
    return text[:cut] + chr(rng.randrange(1, 128)) + text[cut + 1 :]


def _probe_store_text(seed: int, trials: int) -> Dict[str, Any]:
    """Raw-text corruption of a snapshot and of a journal: truncation and
    garbage must degrade, never raise."""
    rng = random.Random(f"store-text|{seed}")
    payload = _store_payload()
    snapshot = json.dumps(payload)
    journal = _journal_line(payload).decode("utf-8")
    failures: List[Dict[str, str]] = []
    for trial in range(trials):
        corrupted_snapshot = _corrupt(snapshot, rng)
        corrupted_journal = _corrupt(journal, rng)
        try:
            _load_shards(corrupted_snapshot, None)
            _load_shards(snapshot, corrupted_journal.encode("utf-8"))
        except Exception as error:  # noqa: BLE001
            failures.append(
                {
                    "trial": str(trial),
                    "error": f"{type(error).__name__}: {error}",
                    "payload": (corrupted_snapshot + corrupted_journal)[:200],
                }
            )
    return {"target": "store-raw-text", "trials": trials, "failures": failures}


def _request_payload() -> Dict[str, Any]:
    return {"tau_good": 40, "tau_bad": 1000, "mode": "execute"}


def _probe_request(mutated: Any) -> None:
    from ..service.service import JoinRequest

    JoinRequest.from_payload(mutated)


def _graph_payload() -> Dict[str, Any]:
    """A valid multiway request exercising every payload form the graph
    parser accepts: dict and bare-string relations, dict and compact
    string edges, explicit theta grids and access-path codes."""
    return {
        "tau_good": 40,
        "tau_bad": 500,
        "mode": "plan",
        "relations": [
            {
                "name": "HQ",
                "attributes": ["Company", "Location"],
                "thetas": [0.4, 0.8],
                "access_paths": ["SC", "FS"],
            },
            "EX",
            {"name": "MG", "attributes": ["Company", "MergedWith"]},
        ],
        "edges": [
            {
                "left": "HQ",
                "left_attribute": "Company",
                "right": "EX",
                "attribute": "value",
            },
            "HQ.Company=MG.Company",
        ],
    }


def _graph_defects() -> List[Tuple[str, Dict[str, Any]]]:
    """Handcrafted structural defects that MUST be rejected (ValueError).

    Unlike the random mutation corpus — where surviving a mutation is
    fine as long as nothing but ``ValueError`` escapes — each of these
    payloads describes a graph the planner must never accept: parsing
    one without an error is itself a failure.
    """
    base = _graph_payload()

    def variant(**overrides: Any) -> Dict[str, Any]:
        clone = copy.deepcopy(base)
        clone.update(overrides)
        return clone

    return [
        (
            "cycle",
            variant(
                edges=[
                    "HQ.Company=EX.value",
                    "HQ.Company=MG.Company",
                    "EX.value=MG.Company",
                ]
            ),
        ),
        (
            "dangling-attribute",
            variant(
                edges=["HQ.Ticker=EX.value", "HQ.Company=MG.Company"]
            ),
        ),
        (
            "duplicate-relation",
            variant(
                relations=["HQ", "HQ", "MG"],
                edges=["HQ.value=MG.value", "HQ.value=MG.value"],
            ),
        ),
        (
            "duplicate-edge",
            variant(
                relations=["HQ", "EX", "MG"],
                edges=["HQ.value=EX.value", "EX.value=HQ.value"],
            ),
        ),
        (
            "disconnected",
            variant(edges=["HQ.Company=EX.value"]),
        ),
        ("self-edge", variant(edges=["HQ.Company=HQ.Location", "HQ.Company=MG.Company"])),
        (
            "single-relation",
            variant(relations=["HQ"], edges=[]),
        ),
        (
            "too-many-relations",
            {
                "relations": [f"R{i}" for i in range(13)],
                "edges": [f"R{i}.value=R{i + 1}.value" for i in range(12)],
            },
        ),
        (
            "bad-access-path",
            variant(
                relations=[
                    {"name": "HQ", "access_paths": ["SCAN"]},
                    "EX",
                    "MG",
                ],
                edges=["HQ.value=EX.value", "HQ.value=MG.value"],
            ),
        ),
        (
            "join-driven-access-path",
            variant(
                relations=[
                    {"name": "HQ", "access_paths": ["JD"]},
                    "EX",
                    "MG",
                ],
                edges=["HQ.value=EX.value", "HQ.value=MG.value"],
            ),
        ),
        (
            "theta-out-of-range",
            variant(
                relations=[
                    {"name": "HQ", "thetas": [1.7]},
                    "EX",
                    "MG",
                ],
                edges=["HQ.value=EX.value", "HQ.value=MG.value"],
            ),
        ),
        ("relations-not-a-list", variant(relations="HQ")),
        ("edges-not-a-list", variant(edges={"a": 1})),
    ]


def _probe_graph_defects() -> Dict[str, Any]:
    """Every defect payload must raise ValueError from the request parse."""
    from ..service.service import JoinRequest

    defects = _graph_defects()
    failures: List[Dict[str, str]] = []
    for name, payload in defects:
        try:
            JoinRequest.from_payload(payload)
        except ValueError:
            continue
        except Exception as error:  # noqa: BLE001 — wrong error type
            failures.append(
                {
                    "trial": name,
                    "error": f"{type(error).__name__}: {error}",
                    "payload": json.dumps(payload, default=repr)[:400],
                }
            )
        else:
            failures.append(
                {
                    "trial": name,
                    "error": "accepted a structurally defective graph",
                    "payload": json.dumps(payload, default=repr)[:400],
                }
            )
    return {
        "target": "planner-graph-defects",
        "trials": len(defects),
        "failures": failures,
    }


_SNAPSHOT_CACHE: Optional[Dict[str, Any]] = None


def _checkpoint_payload() -> Dict[str, Any]:
    """A real (small) IDJN snapshot, built once per process."""
    global _SNAPSHOT_CACHE
    if _SNAPSHOT_CACHE is None:
        from ..joins.base import Budgets
        from ..robustness.checkpoint import checkpoint_execution

        executor = _fresh_executor()
        executor.run(budgets=Budgets(max_documents1=8, max_documents2=8))
        _SNAPSHOT_CACHE = checkpoint_execution(executor)
    return _SNAPSHOT_CACHE


@functools.lru_cache(maxsize=None)
def _fuzz_task():
    """The canonical join task, bound once per process: binding retrains
    classifiers and re-profiles databases, which no trial changes."""
    from ..experiments.testbed import TestbedConfig, build_testbed

    return build_testbed(TestbedConfig()).task()


def _fresh_executor():
    """A new IDJN executor (and retrievers) over the shared task."""
    from ..joins.idjn import IndependentJoin
    from ..retrieval.scan import ScanRetriever

    task = _fuzz_task()
    inputs = task.inputs(0.4, 0.4)
    return IndependentJoin(
        inputs,
        ScanRetriever(task.database1),
        ScanRetriever(task.database2),
        costs=task.costs,
    )


def _probe_checkpoint(mutated: Any) -> None:
    from ..robustness.checkpoint import restore_execution

    restore_execution(_fresh_executor(), mutated)


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------


def run_fuzz(
    seed: int = 11, trials: int = MUTATIONS_PER_TARGET
) -> Dict[str, Any]:
    """Fuzz every JSON surface; returns a JSON-ready result summary."""
    from ..robustness.checkpoint import CheckpointError

    results = [
        _run_target(
            "store-payload",
            _store_payload,
            _probe_store,
            allowed=(),
            seed=seed,
            trials=trials,
        ),
        _probe_store_text(seed=seed, trials=trials),
        _run_target(
            "join-request",
            _request_payload,
            _probe_request,
            allowed=(ValueError,),
            seed=seed,
            trials=trials,
        ),
        _run_target(
            "planner-graph",
            _graph_payload,
            _probe_request,
            allowed=(ValueError,),
            seed=seed,
            trials=trials,
        ),
        _probe_graph_defects(),
        _run_target(
            "checkpoint-snapshot",
            _checkpoint_payload,
            _probe_checkpoint,
            allowed=(CheckpointError,),
            seed=seed,
            trials=trials,
        ),
    ]
    return {
        "trials_total": sum(r["trials"] for r in results),
        "failures_total": sum(len(r["failures"]) for r in results),
        "targets": results,
    }


__all__ = ["MUTATIONS_PER_TARGET", "mutate", "run_fuzz"]
