"""On-disk format of the statistics store: shards, journal records, tearing.

:class:`~repro.service.store.StatisticsStore` persists its records under
``<root>/shards/`` as ``<key>.json`` snapshot + ``<key>.journal``
write-ahead-log pairs.  This module holds the pieces of that format that
do not need the store itself:

* **Shard keys** — a side record lives in the shard named by the first
  two hex characters of its corpus fingerprint; task and curve records
  in the shard named by a digest of their fingerprint list.  Independent
  corpora land in independent files.
* **Journal records** — one line per save of a shard: the shard's full
  payload (generation, sides, tasks, curves) plus a CRC32 of its
  canonical encoding.  A single flipped or missing byte fails the check,
  so recovery can tell a torn append from a committed one.
* **Tearing** — :func:`tear_journal` truncates one journal inside its
  last record, the only damage a ``kill -9`` mid-append can do; the
  chaos harness and tests use it to exercise recovery.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import zlib
from typing import Any, Dict, Optional

#: directory under the store root that holds every shard file
SHARD_DIR = "shards"

#: shard filename suffixes: `<key>.json` snapshot + `<key>.journal` WAL
SNAPSHOT_SUFFIX = ".json"
JOURNAL_SUFFIX = ".journal"

#: hex characters of fingerprint used as the shard key (256 shards max)
SHARD_KEY_WIDTH = 2

#: the keys of every journal record's body (the CRC covers all of them)
_BODY_KEYS = ("generation", "sides", "tasks", "curves")


def side_shard(record: Dict[str, Any]) -> str:
    """The shard key of a side record (its corpus fingerprint prefix)."""
    return str(record["fingerprint"])[:SHARD_KEY_WIDTH]


def task_shard(record: Dict[str, Any]) -> str:
    """The shard key of a task or curve record (digest of its fingerprints)."""
    joined = "|".join(str(f) for f in record["fingerprints"])
    return hashlib.blake2b(joined.encode(), digest_size=16).hexdigest()[
        :SHARD_KEY_WIDTH
    ]


def canonical(value: Any) -> str:
    """Key-sorted, whitespace-free JSON: the form CRCs are computed over."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def encode_journal_record(
    generation: int,
    sides: Dict[str, Any],
    tasks: Dict[str, Any],
    curves: Dict[str, Any],
) -> bytes:
    """One self-checking journal line: full shard payload + CRC32."""
    body = {
        "generation": generation,
        "sides": sides,
        "tasks": tasks,
        "curves": curves,
    }
    crc = zlib.crc32(canonical(body).encode("utf-8"))
    return canonical({**body, "crc": crc}).encode("utf-8") + b"\n"


def decode_journal_record(line: bytes) -> Optional[Dict[str, Any]]:
    """Parse one journal line; None for anything torn or corrupted.

    The CRC is recomputed over the canonical re-encoding of the parsed
    body — JSON round-trips ints and floats exactly, so a single flipped
    or missing byte anywhere in the line fails the check.
    """
    try:
        record = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(record, dict) or set(record) != {*_BODY_KEYS, "crc"}:
        return None
    body = {key: record[key] for key in _BODY_KEYS}
    generation = body["generation"]
    if not isinstance(generation, int) or isinstance(generation, bool):
        return None
    if not all(isinstance(body[key], dict) for key in _BODY_KEYS[1:]):
        return None
    if record["crc"] != zlib.crc32(canonical(body).encode("utf-8")):
        return None
    return body


def tear_journal(
    root: str, seed: int = 0
) -> Optional[Dict[str, Any]]:
    """Chaos helper: truncate one shard journal inside its *last* record.

    Simulates a crash mid-append (the only region a real ``kill -9`` can
    tear, since every earlier record was fsynced before the next append
    started).  Returns what was done, or None when no journal has bytes.
    """
    rng = random.Random(f"tear|{seed}")
    directory = pathlib.Path(root) / SHARD_DIR
    if not directory.is_dir():
        return None
    journals = sorted(
        path
        for path in directory.glob(f"*{JOURNAL_SUFFIX}")
        if path.stat().st_size > 0
    )
    if not journals:
        return None
    target = rng.choice(journals)
    raw = target.read_bytes()
    last_start = raw.rstrip(b"\n").rfind(b"\n") + 1
    cut = rng.randrange(last_start, len(raw)) if len(raw) > last_start else 0
    with open(target, "rb+") as handle:
        handle.truncate(cut)
    return {
        "path": str(target),
        "original_size": len(raw),
        "truncated_to": cut,
    }


def __getattr__(name: str) -> Any:
    # perfbench/layers.py wraps the store's methods by looking the class
    # up here under its former name; resolve it lazily, since store.py
    # imports this module.
    if name == "ShardedStatisticsStore":
        from .store import StatisticsStore

        return StatisticsStore
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "JOURNAL_SUFFIX",
    "SHARD_DIR",
    "SNAPSHOT_SUFFIX",
    "canonical",
    "decode_journal_record",
    "encode_journal_record",
    "side_shard",
    "task_shard",
    "tear_journal",
]
