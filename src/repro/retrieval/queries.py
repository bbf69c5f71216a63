"""Keyword queries: measurement and probing.

Queries are the retrieval currency of AQG, OIJN, and ZGJN.  This module
provides the query value type, offline measurement of the per-query
statistics the models need — hit count ``H(q)`` and precision ``P(q)``
(fraction of matching documents that are good, Sections V-C/V-D) — and
:class:`QueryProbe`, the stateful issuer that join algorithms use to fetch
*unseen* matching documents through the database's top-k search interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple,
)

from ..core.types import DocumentClass
from ..observability.metrics import MetricsRegistry
from ..robustness.context import AccessFailedError, ResilienceContext
from ..robustness.degradation import FETCH, SEARCH, access_path
from ..textdb.database import TextDatabase
from ..textdb.document import Document


@dataclass(frozen=True)
class Query:
    """An immutable conjunctive keyword query."""

    tokens: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.tokens:
            raise ValueError("a query needs at least one token")

    @classmethod
    def of(cls, *tokens: str) -> "Query":
        return cls(tokens=tuple(tokens))

    def describe(self) -> str:
        return "[" + " ".join(self.tokens) + "]"


@dataclass(frozen=True)
class QueryStats:
    """Offline statistics of one query against one database.

    ``hits`` is H(q), the total number of matching documents; ``precision``
    is P(q), the good fraction among *all* matches (the top-k truncation is
    rank-random, so the returned sample has the same expected precision).
    ``bad_fraction`` is the bad-document share of the matches; the empty
    share is the remainder.  The class split lets the AQG model predict not
    only good-document reach (Equation 2) but also how many bad and empty
    documents the strategy drags in — which drives both bad-tuple counts
    and wasted extraction time.
    """

    query: Query
    hits: int
    precision: float
    bad_fraction: float = 0.0

    @property
    def good_hits(self) -> float:
        """|Hg(q)| = H(q) · P(q)."""
        return self.hits * self.precision

    @property
    def bad_hits(self) -> float:
        return self.hits * self.bad_fraction

    @property
    def empty_fraction(self) -> float:
        return max(0.0, 1.0 - self.precision - self.bad_fraction)


def measure_query(
    database: TextDatabase, query: Query, relation: str
) -> QueryStats:
    """Measure H(q), P(q), and the class split exactly (no truncation)."""
    match_ids = database.index.search(query.tokens)
    if not match_ids:
        return QueryStats(query=query, hits=0, precision=0.0, bad_fraction=0.0)
    good = bad = 0
    for doc_id in match_ids:
        klass = database.get(doc_id).classify(relation)
        if klass is DocumentClass.GOOD:
            good += 1
        elif klass is DocumentClass.BAD:
            bad += 1
    return QueryStats(
        query=query,
        hits=len(match_ids),
        precision=good / len(match_ids),
        bad_fraction=bad / len(match_ids),
    )


class QueryProbe:
    """Issues queries against a database, returning only unseen documents.

    Join algorithms share one probe per database so that a document
    retrieved by an earlier query (or by a scan cursor, when mixed) is
    never charged or processed twice.  ``queries_issued`` counts every
    issue — including ones that return nothing new — because the time
    model charges tQ per issued query regardless of its yield.

    Failure semantics (with a resilience context): a search whose access
    fails raises — it is *not* an empty result, is not counted as issued,
    and is not remembered in :meth:`already_issued`, so callers can retry
    the query later without skewing the s(a) sample frequencies the MLE
    estimator reads.  A matching document whose fetch fails is skipped and
    left out of ``seen`` so a later query may reach it.
    """

    def __init__(
        self,
        database: TextDatabase,
        resilience: Optional[ResilienceContext] = None,
    ) -> None:
        self.database = database
        self.seen: Set[int] = set()
        self.queries_issued = 0
        self.documents_retrieved = 0
        #: matches already seen or whose fetch failed (not checkpointed)
        self.duplicates = 0
        #: database calls attempted, searches and fetches (not checkpointed)
        self.accesses = 0
        self.resilience = resilience
        self._issued: Set[Tuple[str, ...]] = set()
        self._search_path = access_path(database.name, SEARCH)
        self._fetch_path = access_path(database.name, FETCH)

    def already_issued(self, query: Query) -> bool:
        return query.tokens in self._issued

    @property
    def issued_queries(self) -> FrozenSet[Tuple[str, ...]]:
        """Token tuples of every successfully issued query (checkpointing)."""
        return frozenset(self._issued)

    def restore_issued(self, issued: Iterable[Tuple[str, ...]]) -> None:
        """Replace the issued-query memory (checkpoint restore)."""
        self._issued = {tuple(tokens) for tokens in issued}

    def _access(self, path: str, fn: Callable[[Any], Any], arg: Any) -> Any:
        """``fn(arg)``, via the resilience context when present."""
        self.accesses += 1
        if self.resilience is None:
            return fn(arg)
        return self.resilience.call(path, fn, arg)

    def issue(self, query: Query) -> List[Document]:
        """Issue *query*; return the unseen documents among its top-k.

        Raises :class:`~repro.robustness.context.AccessFailedError` or
        :class:`~repro.robustness.context.AccessPathUnavailable` when the
        search access fails — deliberately distinct from returning ``[]``
        (a successful query that matched nothing new).
        """
        match_ids = self._access(
            self._search_path, self.database.search, query.tokens
        )
        # Only a search that actually answered counts as issued.
        self.queries_issued += 1
        self._issued.add(query.tokens)
        fresh: List[Document] = []
        for doc_id in match_ids:
            if doc_id in self.seen:
                continue
            try:
                doc = self._access(self._fetch_path, self.database.get, doc_id)
            except AccessFailedError:
                if self.resilience is not None:
                    self.resilience.documents_lost += 1
                continue
            self.seen.add(doc_id)
            self.documents_retrieved += 1
            fresh.append(doc)
        self.duplicates += len(match_ids) - len(fresh)
        return fresh


#: a probe's (queries issued, fresh documents, duplicate matches)
ProbeTally = Dict[QueryProbe, Tuple[int, int, int]]


def probe_tally(probes: Iterable[Optional[QueryProbe]]) -> ProbeTally:
    """Each probe's counts now; ``None`` entries (no probe) are skipped."""
    return {
        probe: (probe.queries_issued, probe.documents_retrieved, probe.duplicates)
        for probe in probes
        if probe is not None
    }


def publish_probe_work(metrics: MetricsRegistry, before: ProbeTally) -> None:
    """Add what each probe did since *before* to the query counters.

    Called once per executor run (DESIGN §6.3): a keyword query is
    counted here, not spanned.
    """
    for probe, (queries, fresh, duplicates) in before.items():
        database = probe.database.name
        if probe.queries_issued > queries:
            metrics.counter(
                "repro_queries_issued_total", database=database
            ).inc(probe.queries_issued - queries)
        for result, now, then in (
            ("fresh", probe.documents_retrieved, fresh),
            ("duplicate", probe.duplicates, duplicates),
        ):
            if now > then:
                metrics.counter(
                    "repro_probe_documents_total",
                    database=database,
                    result=result,
                ).inc(now - then)
