"""Filtered Scan (FS): scan plus a document classifier.

Retrieves documents sequentially like Scan but only *processes* the ones a
trained classifier accepts, skipping most empty/bad documents at filter
cost tF per retrieved document instead of extraction cost tE.  Since the
classifier also rejects some good documents (its true-positive rate Ctp is
below one), FS trades reachable recall for speed and cleanliness
(Section III-B).

Failure semantics under a resilience context match
:class:`~repro.retrieval.scan.ScanRetriever`: permanently unreachable
documents are skipped and counted as lost, never as retrieved or rejected.
"""

from __future__ import annotations

from typing import List, Optional

from ..robustness.context import AccessFailedError, ResilienceContext
from ..textdb.database import TextDatabase
from ..textdb.document import Document
from .base import DocumentRetriever
from .classifier import RuleClassifier


class FilteredScanRetriever(DocumentRetriever):
    """Sequential cursor that consults a classifier before processing."""

    filters_documents = True

    def __init__(
        self,
        database: TextDatabase,
        classifier: RuleClassifier,
        resilience: Optional[ResilienceContext] = None,
        observability=None,
    ) -> None:
        super().__init__(database, resilience, observability)
        self.classifier = classifier
        self._order: List[int] = database.scan_order()
        self._position = 0

    @property
    def exhausted(self) -> bool:
        return self._position >= len(self._order)

    @property
    def position(self) -> int:
        return self._position

    def restore_position(self, position: int) -> None:
        """Move the cursor (checkpoint restore)."""
        if not 0 <= position <= len(self._order):
            raise ValueError(f"scan position {position} out of range")
        self._position = position

    def next_document(self) -> Optional[Document]:
        """Next accepted document; rejected ones are counted, not returned."""
        # Most fetched documents are rejected, so the loop runs several
        # times per returned document: its lookups are hoisted.
        order = self._order
        counters = self.counters
        classify = self.classifier.classify
        while self._position < len(order):
            doc_id = order[self._position]
            try:
                doc = self._fetch(doc_id)
            except AccessFailedError:
                self._position += 1
                if self.resilience is not None:
                    self.resilience.documents_lost += 1
                continue
            self._position += 1
            counters.retrieved += 1
            if classify(doc):
                return doc
            counters.rejected += 1
        return None
