"""Text databases: scan access plus a top-k keyword-search interface.

A :class:`TextDatabase` models what the paper assumes of a real text
collection (Section III-B, IV):

* **scan access** — documents can be retrieved sequentially, in an order
  that carries no information about document quality;
* **search access** — conjunctive keyword queries return matching
  documents, but only up to ``max_results`` per query (the search-interface
  limit that caps what OIJN/ZGJN can reach, shown as the grey region of
  Figure 6).

Search results are ranked by a deterministic per-(query, document) hash:
each query's top-k behaves like an independent random sample of its match
set with respect to document quality — the assumption behind the paper's
``k · P(q)`` expectation and the conditional-independence step of its AQG
model (Equation 2).  A *global* static rank would instead hand every
correlated query the same document prefix, which no ranked search engine
does for distinct queries.  The seeded scan permutation is still used for
sequential (Scan/Filtered-Scan) access.
"""

from __future__ import annotations

import functools
import hashlib
import random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .document import Document
from .index import InvertedIndex


class TextDatabase:
    """An immutable document collection with scan and search interfaces."""

    def __init__(
        self,
        name: str,
        documents: Sequence[Document],
        max_results: int = 100,
        rank_seed: int = 0,
    ) -> None:
        if max_results <= 0:
            raise ValueError("max_results must be positive")
        self.name = name
        self._documents: Dict[int, Document] = {}
        for doc in documents:
            if doc.doc_id in self._documents:
                raise ValueError(f"duplicate document id {doc.doc_id}")
            self._documents[doc.doc_id] = doc
        self.max_results = max_results
        self._scan_order: List[int] = sorted(self._documents)
        rng = random.Random(rank_seed)
        rng.shuffle(self._scan_order)
        self._rank_seed = rank_seed
        self.index = InvertedIndex(self._documents.values())
        #: (query tokens, limit) -> ranked top-k ids; see :meth:`search`
        self._search_memo: Dict[Tuple[Tuple[str, ...], int], Tuple[int, ...]] = {}

    @property
    def rank_seed(self) -> int:
        """Seed of the scan permutation and per-query rankings."""
        return self._rank_seed

    def _query_rank(self, tokens: Tuple[str, ...], doc_id: int) -> int:
        """Deterministic per-(query, document) rank for top-k truncation."""
        payload = f"{self._rank_seed}|{'|'.join(tokens)}|{doc_id}".encode()
        return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")

    @functools.cached_property
    def fingerprint(self) -> str:
        """A stable digest of the corpus's identity and contents.

        Covers the database name, search-interface cap, scan/rank seed, and
        each document's (id, token count) pair — any regeneration that
        changes the document set, their sizes, or the scan order produces
        a different digest.  Computed once: the database is immutable.
        """
        digest = hashlib.blake2b(digest_size=16)
        digest.update(
            f"{self.name}|{len(self)}|{self.max_results}|"
            f"{self.rank_seed}".encode()
        )
        for document in self.documents:
            n_tokens = sum(len(sentence) for sentence in document.sentences)
            digest.update(f"|{document.doc_id}:{n_tokens}".encode())
        return digest.hexdigest()

    def __len__(self) -> int:
        return len(self._documents)

    def __contains__(self, doc_id: int) -> bool:
        return doc_id in self._documents

    def get(self, doc_id: int) -> Document:
        return self._documents[doc_id]

    @property
    def documents(self) -> Iterator[Document]:
        for doc_id in sorted(self._documents):
            yield self._documents[doc_id]

    # -- scan interface -----------------------------------------------------

    def scan_order(self) -> List[int]:
        """Document ids in the database's sequential-retrieval order."""
        return list(self._scan_order)

    def scan(self, start: int = 0, count: Optional[int] = None) -> List[Document]:
        """Retrieve ``count`` documents sequentially starting at *start*."""
        if count is None:
            ids = self._scan_order[start:]
        else:
            ids = self._scan_order[start : start + count]
        return [self._documents[i] for i in ids]

    # -- search interface ---------------------------------------------------

    def match_count(self, tokens: Sequence[str]) -> int:
        """Total number of documents matching a query (no truncation).

        This is the ``H(q)`` statistic of Section V-D; real search engines
        expose it as the reported hit count.
        """
        return len(self.index.search(tokens))

    def search(
        self, tokens: Sequence[str], max_results: Optional[int] = None
    ) -> List[int]:
        """Top-k document ids matching all query tokens.

        ``max_results`` overrides the interface default (but can never
        exceed it — the interface is the hard limit).

        The ranking is a pure function of the query and this immutable
        database, so each (query, limit) is ranked once and served from a
        memo afterwards; every call returns a fresh list.  The memo sits
        below the fault layer: a
        :class:`~repro.robustness.faults.FaultInjectingDatabase` draws its
        faults before it asks this method, so faults replay the same.
        It holds at most one entry per distinct query the callers issue,
        each at most ``max_results`` ids.  Two threads racing on one query
        may both rank it; both store the same ids.
        """
        limit = self.max_results if max_results is None else min(
            max_results, self.max_results
        )
        query = tuple(tokens)
        hits = self._search_memo.get((query, limit))
        if hits is None:
            matches = self.index.search(tokens)
            matches.sort(key=lambda doc_id: self._query_rank(query, doc_id))
            hits = tuple(matches[:limit])
            self._search_memo[query, limit] = hits
        return list(hits)
