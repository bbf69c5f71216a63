"""Automatic Query Generation (AQG): query-based document retrieval.

Stands in for QXtract [2]: machine-learned keyword queries that retrieve
documents rich in target tuples.  Training ranks tokens of a labelled
training database by how well the single-token query separates good
documents from the rest (precision-weighted F-beta, as the paper's setup
trains QXtract to match *good* documents specifically, avoiding bad and
empty ones); at execution time the learned queries are issued in order
against the (unseen) target database through its top-k search interface.

AQG avoids scanning the whole database but cannot reach good documents no
learned query matches — the recall ceiling Equation 2 models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.types import DocumentClass
from ..robustness.context import AccessFailedError, ResilienceContext
from ..textdb.database import TextDatabase
from ..textdb.document import Document
from .base import DocumentRetriever
from .queries import Query, QueryProbe, QueryStats, measure_query


@dataclass(frozen=True)
class LearnedQuery:
    """A query with its training-time statistics."""

    query: Query
    training_precision: float
    training_hits: int
    training_bad_fraction: float = 0.0


def learn_queries(
    database: TextDatabase,
    relation: str,
    max_queries: int = 40,
    min_df: int = 3,
    beta: float = 0.25,
) -> List[LearnedQuery]:
    """Learn single-token queries targeting good documents.

    Tokens are scored by F-beta between the precision of the query's match
    set toward good documents and its recall of the good-document set, then
    the *max_queries* best are kept (best first).  Greedy coverage-style
    selection (as in set-cover query learners) is deliberately avoided: the
    AQG quality model assumes queries are biased toward Dg but otherwise
    conditionally independent, which plain per-query ranking preserves.
    """
    docs = list(database.documents)
    good_ids = {
        doc.doc_id
        for doc in docs
        if doc.classify(relation) is DocumentClass.GOOD
    }
    if not good_ids:
        raise RuntimeError(f"training database has no good documents for {relation!r}")
    index = database.index
    bad_ids = {
        doc.doc_id
        for doc in docs
        if doc.classify(relation) is DocumentClass.BAD
    }
    scored: List[Tuple[float, str, float, float, int]] = []
    b2 = beta * beta
    for token in index.tokens():
        postings = index.postings(token)
        if len(postings) < min_df:
            continue
        good_matches = sum(1 for doc_id in postings if doc_id in good_ids)
        if good_matches == 0:
            continue
        bad_matches = sum(1 for doc_id in postings if doc_id in bad_ids)
        precision = good_matches / len(postings)
        recall = good_matches / len(good_ids)
        score = (1 + b2) * precision * recall / (b2 * precision + recall)
        scored.append(
            (score, token, precision, bad_matches / len(postings), len(postings))
        )
    scored.sort(reverse=True)
    return [
        LearnedQuery(
            query=Query.of(token),
            training_precision=precision,
            training_hits=hits,
            training_bad_fraction=bad_fraction,
        )
        for _, token, precision, bad_fraction, hits in scored[:max_queries]
    ]


def measure_learned_queries(
    queries: Sequence[LearnedQuery],
    database: TextDatabase,
    relation: str,
) -> List[QueryStats]:
    """Offline H(q)/P(q) measurement of learned queries on a target database."""
    return [measure_query(database, lq.query, relation) for lq in queries]


def offline_query_stats(
    queries: Sequence[LearnedQuery],
    database: TextDatabase,
) -> List[QueryStats]:
    """Label-free query statistics for an *unseen* target database.

    A query's hit count H(q) is observable on any database (search engines
    report it), while its class precision is not — so precision and the
    bad fraction are carried over from training, the offline-estimation
    step the paper describes for retrieval-specific parameters.
    """
    return [
        QueryStats(
            query=lq.query,
            hits=database.match_count(lq.query.tokens),
            precision=lq.training_precision,
            bad_fraction=lq.training_bad_fraction,
        )
        for lq in queries
    ]


class AQGRetriever(DocumentRetriever):
    """Issues learned queries in order; yields unseen matching documents.

    Under a resilience context, a learned query whose search access fails
    permanently is dropped (the context records the failure) and the
    retriever moves on to the next query — the failed attempt never counts
    as an issued query, so it cannot masquerade as "matched nothing".
    """

    def __init__(
        self,
        database: TextDatabase,
        queries: Sequence[LearnedQuery],
        resilience: Optional[ResilienceContext] = None,
        observability=None,
    ) -> None:
        super().__init__(database, resilience, observability)
        if not queries:
            raise ValueError("AQG needs at least one learned query")
        self._queries: List[Query] = [lq.query for lq in queries]
        self._probe = QueryProbe(database, resilience=resilience)
        self._buffer: List[Document] = []
        self._next_query = 0

    @property
    def next_query_index(self) -> int:
        """Index of the next learned query to issue (checkpointing)."""
        return self._next_query

    @property
    def probe(self) -> QueryProbe:
        """The underlying query probe (checkpointing, query metrics)."""
        return self._probe

    def buffered_ids(self) -> List[int]:
        """Doc ids retrieved but not yet handed out (checkpointing)."""
        return [doc.doc_id for doc in self._buffer]

    def restore_progress(
        self, next_query: int, buffer: Sequence[Document]
    ) -> None:
        """Reset cursor and pending buffer (checkpoint restore)."""
        if not 0 <= next_query <= len(self._queries):
            raise ValueError(f"query cursor {next_query} out of range")
        self._next_query = next_query
        self._buffer = list(buffer)

    @property
    def exhausted(self) -> bool:
        return not self._buffer and self._next_query >= len(self._queries)

    def next_document(self) -> Optional[Document]:
        while not self._buffer and self._next_query < len(self._queries):
            query = self._queries[self._next_query]
            self._next_query += 1
            accesses = self._probe.accesses
            try:
                fresh = self._probe.issue(query)
            except AccessFailedError:
                # The query could not be asked; move on to the next one.
                continue
            finally:
                self.counters.accesses += self._probe.accesses - accesses
            self.counters.queries_issued += 1
            self.counters.retrieved += len(fresh)
            self._buffer.extend(fresh)
        if not self._buffer:
            return None
        return self._buffer.pop(0)
