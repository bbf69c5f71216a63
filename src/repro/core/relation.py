"""Extracted relations and the good/bad composition of their joins.

This module implements the bookkeeping of Section III-C and V-A of the
paper: extracted relations hold good and bad tuples; attribute-value
*occurrences* inherit tuple labels; and a natural join composes good join
tuples only out of good base tuples.  For a join attribute value ``a`` with
``gr1(a)`` good occurrences observed in R1 and ``gr2(a)`` in R2, the join
contributes ``gr1(a) * gr2(a)`` good tuples (Equation 1), and analogous
cross products for the three bad combinations (good×bad, bad×good,
bad×bad).  The incremental join every executor maintains is
:class:`~repro.core.join_state.TreeJoinState`; a binary report's split
comes from :func:`compose_join`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Set, Tuple

from .types import ExtractedTuple, RelationSchema


class ExtractedRelation:
    """A (growing) relation of tuples produced by an extraction system.

    The relation deduplicates exact ``(values, document_id)`` repeats: the
    paper's models count an attribute value at most once per document
    (footnote 2), and the corpus generator plants mentions accordingly, so a
    duplicate extraction from the same document carries no new information.
    """

    def __init__(self, schema: RelationSchema) -> None:
        self.schema = schema
        self._tuples: List[ExtractedTuple] = []
        self._seen: Set[Tuple[Tuple[str, ...], int]] = set()

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[ExtractedTuple]:
        return iter(self._tuples)

    def add(self, tup: ExtractedTuple) -> bool:
        """Add *tup*; return True if it was new (not a per-document dup)."""
        if tup.relation != self.schema.name:
            raise ValueError(
                f"tuple of relation {tup.relation!r} added to {self.schema.name!r}"
            )
        if len(tup.values) != self.schema.arity:
            raise ValueError(
                f"tuple arity {len(tup.values)} != schema arity {self.schema.arity}"
            )
        key = (tup.values, tup.document_id)
        if key in self._seen:
            return False
        self._seen.add(key)
        self._tuples.append(tup)
        return True

    def extend(self, tuples: Iterable[ExtractedTuple]) -> int:
        """Add many tuples; return how many were new."""
        return sum(1 for t in tuples if self.add(t))

    @property
    def tuples(self) -> Tuple[ExtractedTuple, ...]:
        return tuple(self._tuples)

    def since(self, start: int) -> List[ExtractedTuple]:
        """Tuples added at or after position *start*.

        The relation is append-only, so an incremental consumer (a quality
        estimator called once per retrieval step) keeps a cursor instead of
        re-reading everything.
        """
        return self._tuples[start:]

    # -- attribute-value occurrence accounting (Section V-A) ---------------

    def occurrence_counts(
        self, attribute_index: int, end: Optional[int] = None
    ) -> Tuple[Counter, Counter]:
        """Per-value counts of good and bad occurrences of an attribute.

        Returns ``(good, bad)`` Counters mapping attribute value -> number
        of occurrences, where each tuple contributes one occurrence of its
        value, labelled by the tuple's own label.  These are the observed
        ``gr_i(a)`` and ``br_i(a)`` quantities of the analysis.  *end*
        counts only the first *end* tuples (the relation as it was then).
        """
        tuples = self._tuples if end is None else self._tuples[:end]
        good = Counter([t.values[attribute_index] for t in tuples if t.is_good])
        bad = Counter([t.values[attribute_index] for t in tuples if not t.is_good])
        return good, bad


@dataclass(frozen=True)
class JoinComposition:
    """The good/bad breakdown of a join result (Section V-A notation).

    ``n_good`` is |Tgood⋈|; the three bad components correspond to the value
    classes Agb, Abg, Abb (plus cross-label occurrences of shared values).
    """

    n_good: int = 0
    n_good_bad: int = 0
    n_bad_good: int = 0
    n_bad_bad: int = 0

    @property
    def n_bad(self) -> int:
        """|Tbad⋈| = Jgb + Jbg + Jbb."""
        return self.n_good_bad + self.n_bad_good + self.n_bad_bad

    @property
    def n_total(self) -> int:
        return self.n_good + self.n_bad


@dataclass(frozen=True)
class MultiJoinComposition:
    """Good/bad breakdown of an n-way join result.

    A result is good iff every constituent tuple is; an n-way join has no
    single good x bad split, so bad results are counted as one total.
    """

    n_good: int = 0
    n_bad: int = 0

    @property
    def n_total(self) -> int:
        return self.n_good + self.n_bad


def compose_join(
    left: ExtractedRelation,
    right: ExtractedRelation,
    join_attribute: str,
    prefix: Tuple[Optional[int], Optional[int]] = (None, None),
) -> JoinComposition:
    """One-shot good/bad composition of ``left ⋈ right`` (Figure 2).

    Computes the composition directly from occurrence counts rather than by
    materializing join tuples:

        |Tgood⋈| = Σ_{a ∈ Agg} gr1(a) · gr2(a)

    and analogously for the bad components over Agb, Abg, Abb — the
    closed-form Equation 1 that the analytical models estimate.  *prefix*
    joins only the first that many tuples of each relation (a recorded
    run's relations at an earlier point).
    """
    li = left.schema.index_of(join_attribute)
    ri = right.schema.index_of(join_attribute)
    g1, b1 = left.occurrence_counts(li, prefix[0])
    g2, b2 = right.occurrence_counts(ri, prefix[1])
    gg = gb = bg = bb = 0
    for a in set(g1) | set(b1):
        gg += g1.get(a, 0) * g2.get(a, 0)
        gb += g1.get(a, 0) * b2.get(a, 0)
        bg += b1.get(a, 0) * g2.get(a, 0)
        bb += b1.get(a, 0) * b2.get(a, 0)
    return JoinComposition(n_good=gg, n_good_bad=gb, n_bad_good=bg, n_bad_bad=bb)
