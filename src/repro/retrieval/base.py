"""Document-retrieval strategy interface (Section III-B).

A retriever hands an extraction pipeline the next database document to
*process*, while transparently accounting for the work done to find it:
documents retrieved, documents rejected by a filter, queries issued.  The
execution-time models charge each of these events separately (tR, tF, tQ),
so retrievers expose them as monotone counters.  Per-access work is
counted there, not traced: a retriever opens no span per database call,
and executors report the totals once per run (DESIGN §6.3).

The three concrete strategies — :class:`~repro.retrieval.scan.ScanRetriever`,
:class:`~repro.retrieval.filtered_scan.FilteredScanRetriever`, and
:class:`~repro.retrieval.aqg.AQGRetriever` — serve IDJN for both relations
and OIJN for its outer relation.  The query-driven retrieval of OIJN's
inner relation and of ZGJN is managed by the join algorithms themselves via
:class:`~repro.retrieval.queries.QueryProbe`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

from ..observability.context import ObservabilityContext, ensure_observability
from ..robustness.context import ResilienceContext
from ..robustness.degradation import FETCH, access_path
from ..textdb.database import TextDatabase
from ..textdb.document import Document

if TYPE_CHECKING:
    from .queries import QueryProbe


@dataclass
class RetrievalCounters:
    """Work performed by a retriever so far."""

    retrieved: int = 0
    #: Documents the strategy decided not to process (FS rejections).
    rejected: int = 0
    queries_issued: int = 0
    #: Database calls attempted (fetches, and an AQG probe's searches;
    #: retries inside one call count once).  Not checkpointed: it counts
    #: this retriever object's own calls.
    accesses: int = 0


class DocumentRetriever(abc.ABC):
    """Pull-based supplier of documents for one extraction task."""

    #: Whether every retrieved document passes through a classifier (and so
    #: is charged filtering time tF by the execution-time model).
    filters_documents: bool = False

    #: The keyword-query probe the strategy searches through (AQG only);
    #: executors publish its query counts once per run.
    probe: Optional["QueryProbe"] = None

    def __init__(
        self,
        database: TextDatabase,
        resilience: Optional[ResilienceContext] = None,
        observability: Optional[ObservabilityContext] = None,
    ) -> None:
        self.database = database
        self.counters = RetrievalCounters()
        #: optional fault-handling context; when None, database calls go
        #: through raw (the original zero-overhead path)
        self.resilience = resilience
        #: tracing/metrics context; defaults to the no-op context
        self.observability = ensure_observability(observability)
        self._fetch_path = access_path(database.name, FETCH)

    def _fetch(self, doc_id: int) -> Document:
        """Fetch one document, via the resilience context when present.

        With a context, a retryable fault may surface as
        :class:`~repro.robustness.context.AccessFailedError` (retries
        exhausted — the caller skips or requeues the unit of work) or
        :class:`~repro.robustness.context.AccessPathUnavailable` (circuit
        open — propagates so the optimizer can degrade gracefully).
        The call is counted in :attr:`counters`, never spanned.
        """
        self.counters.accesses += 1
        if self.resilience is None:
            return self.database.get(doc_id)
        return self.resilience.call(self._fetch_path, self.database.get, doc_id)

    @abc.abstractmethod
    def next_document(self) -> Optional[Document]:
        """The next document to process, or None when exhausted.

        Implementations update :attr:`counters` for every piece of work
        they do, including work on documents they end up not returning.
        """

    @property
    @abc.abstractmethod
    def exhausted(self) -> bool:
        """Whether the strategy can supply no further documents."""

    def __iter__(self) -> Iterator[Document]:
        while True:
            doc = self.next_document()
            if doc is None:
                return
            yield doc
