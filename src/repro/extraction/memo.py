"""A serving-scoped memo of per-document extraction and classification.

The paper treats an IE system as a blackbox whose output on a document
depends only on that document and the knob θ (Section III-A); the FS
classifier's verdict depends only on the document.  Here the knob is a
threshold on a θ-independent score (the threshold contract of
:meth:`~repro.extraction.base.Extractor.with_theta`), so the output at
any θ is the θ=0 output filtered by ``confidence >= θ``.  A service
answers many execute requests over the same immutable databases, so it
extracts each document once, at θ=0, and serves every θ from an
:class:`ExtractionMemo` by filtering on read.  The cost model still
charges tE for every processed document: the memo saves wall time, not
simulated time.

The contract:

* **Purity.**  Only functions of one document are memoized: an
  extractor's θ=0 pass and a trained classifier.  An extraction system
  is named by ``(name, relation)``, as the statistics store names it; a
  classifier by its relation and rule set.  An extractor that breaks the
  threshold contract is refused with a ``ValueError``, by the same check
  :func:`~repro.extraction.characterization.characterize` makes.
* **One table per system.**  A (database, system) table serves every θ in
  [0, 1]: a multiway client may name any θ, and it is served from, and
  fills, the same table.  :meth:`MemoizedExtractor.with_theta` returns a
  wrapper over that table without consulting the memo.
* **Identity.**  A table belongs to one :class:`TextDatabase`, and an
  entry is stored and served only for the very document object that
  database holds.  A different object with the same ``doc_id`` -- a
  payload truncated by fault injection -- is computed fresh and never
  stored.
* **Scope.**  Only the wrappers handed out by :meth:`ExtractionMemo.extractor`
  and :meth:`ExtractionMemo.classifier` fill the memo; the service binds
  them to its execute environments alone.  Set-up (knob characterization,
  classifier training and measurement) uses the bare systems.
* **No aliasing.**  An extraction read returns a fresh list; callers
  append its tuples into their join state.
* **Threads.**  Tables are plain dicts whose reads and writes are atomic
  under the GIL.  Two workers racing on one document may both compute it
  and both store it, but a stored value is always the output for that
  very document.

Memory is bounded by the documents of the served databases times their
extraction systems (plus one bool per classified document); tuples are
shared with no copy, since :class:`~repro.core.types.ExtractedTuple` is
frozen.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Dict, Hashable, List, Optional, Tuple

from ..core.types import ExtractedTuple
from ..textdb.database import TextDatabase
from ..textdb.document import Document
from .base import Extractor
from .oracle import require_threshold_contract

if TYPE_CHECKING:
    from ..retrieval.classifier import RuleClassifier


class _DocumentTable:
    """Memoized output of one pure per-document function on one database."""

    __slots__ = ("database", "entries")

    def __init__(self, database: TextDatabase) -> None:
        self.database = database
        #: doc_id -> (the database's own document object, output)
        self.entries: Dict[int, Tuple[Document, Any]] = {}

    def get(self, document: Document) -> Any:
        """The stored output for *document*, or None."""
        entry = self.entries.get(document.doc_id)
        if entry is not None and entry[0] is document:
            return entry[1]
        return None

    def put(self, document: Document, value: Any) -> None:
        """Store *value* if *document* is the object the database holds."""
        doc_id = document.doc_id
        database = self.database
        if doc_id in database and database.get(doc_id) is document:
            self.entries[doc_id] = (document, value)


class MemoizedExtractor(Extractor):
    """An extractor at θ reading its system's θ=0 output from a memo."""

    def __init__(
        self, inner: Extractor, table: _DocumentTable, theta: float
    ) -> None:
        super().__init__(inner.schema, theta)
        #: the system (at any θ); its copy at θ=0 fills the table
        self.inner = inner
        self._table = table

    @property
    def name(self) -> str:
        return self.inner.name

    def extract(self, document: Document) -> List[ExtractedTuple]:
        stored = self._table.get(document)
        if stored is None:
            stored = tuple(self.inner.with_theta(0.0).extract(document))
            self._table.put(document, stored)
        if not stored:  # most documents: skip the filter's set-up
            return []
        theta = self.theta
        return [tup for tup in stored if tup.confidence >= theta]

    def with_theta(self, theta: float) -> Extractor:
        return MemoizedExtractor(self.inner, self._table, theta)


class MemoizedClassifier:
    """A document classifier whose verdicts are read from a memo."""

    def __init__(self, inner: "RuleClassifier", table: _DocumentTable) -> None:
        self.inner = inner
        self.relation: str = inner.relation
        self._table = table

    def classify(self, document: Document) -> bool:
        verdict = self._table.get(document)
        if verdict is None:
            verdict = self.inner.classify(document)
            self._table.put(document, verdict)
        return verdict


class ExtractionMemo:
    """Per-(database, system) tables of per-document output: one per
    extraction system, filtered by θ on read, and one per classifier."""

    def __init__(self) -> None:
        self._tables: Dict[Tuple[Hashable, ...], _DocumentTable] = {}
        self._lock = threading.Lock()

    def _table(
        self, database: TextDatabase, key: Tuple[Hashable, ...]
    ) -> _DocumentTable:
        if not isinstance(database, TextDatabase):
            raise TypeError(
                "memo tables bind to an immutable TextDatabase, "
                f"not {type(database).__name__}"
            )
        with self._lock:
            table = self._tables.get((database,) + key)
            if table is None:
                table = _DocumentTable(database)
                self._tables[(database,) + key] = table
            return table

    def extractor(
        self, extractor: Extractor, database: TextDatabase
    ) -> MemoizedExtractor:
        """*extractor*, at its θ, reading and filling this memo for
        *database*."""
        require_threshold_contract(extractor, "memoize")
        key = ("extract", extractor.name, extractor.relation)
        return MemoizedExtractor(
            extractor, self._table(database, key), extractor.theta
        )

    def classifier(
        self, classifier: Optional["RuleClassifier"], database: TextDatabase
    ) -> Optional[MemoizedClassifier]:
        """*classifier* reading and filling this memo (None stays None)."""
        if classifier is None:
            return None
        key = ("classify", classifier.relation, classifier.rules)
        return MemoizedClassifier(classifier, self._table(database, key))

    @property
    def tables(self) -> int:
        """Tables opened so far (one per database and system)."""
        with self._lock:
            return len(self._tables)

    def __len__(self) -> int:
        """Stored entries over every table."""
        with self._lock:
            tables = list(self._tables.values())
        return sum(len(table.entries) for table in tables)
