"""Scan (SC): sequential retrieval of every database document.

Guaranteed to eventually process all good documents — maximal reachable
recall — but also processes every bad and empty document, paying their
retrieval/extraction time and admitting every extractable bad tuple
(Section III-B).

Under a resilience context, a document whose fetch fails permanently is
*skipped* (counted as lost, never as retrieved) so a flaky store degrades
recall instead of aborting the scan; an open circuit propagates as
:class:`~repro.robustness.context.AccessPathUnavailable` without advancing
the cursor, so a later resume retries the same document.
"""

from __future__ import annotations

from typing import List, Optional

from ..robustness.context import AccessFailedError, ResilienceContext
from ..textdb.database import TextDatabase
from ..textdb.document import Document
from .base import DocumentRetriever


class ScanRetriever(DocumentRetriever):
    """Sequential cursor over the database's scan order."""

    def __init__(
        self,
        database: TextDatabase,
        resilience: Optional[ResilienceContext] = None,
        observability=None,
    ) -> None:
        super().__init__(database, resilience, observability)
        self._order: List[int] = database.scan_order()
        self._position = 0

    @property
    def exhausted(self) -> bool:
        return self._position >= len(self._order)

    @property
    def position(self) -> int:
        """How many documents have been retrieved so far."""
        return self._position

    def restore_position(self, position: int) -> None:
        """Move the cursor (checkpoint restore)."""
        if not 0 <= position <= len(self._order):
            raise ValueError(f"scan position {position} out of range")
        self._position = position

    def next_document(self) -> Optional[Document]:
        while self._position < len(self._order):
            doc_id = self._order[self._position]
            try:
                doc = self._fetch(doc_id)
            except AccessFailedError:
                # Unreachable document: skip it without counting it as
                # retrieved — a failed access must never masquerade as a
                # successful (or empty) one.
                self._position += 1
                if self.resilience is not None:
                    self.resilience.documents_lost += 1
                continue
            self._position += 1
            self.counters.retrieved += 1
            return doc
        return None
