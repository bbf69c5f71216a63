"""Joint key profiles for multiway composition.

:func:`repro.textdb.stats.profile_database` keys every frequency on a
single attribute, which is all a binary join needs.  A chain-interior
relation participates in joins on *two* (or more) attributes at once,
so the planner's composition model needs document frequencies of the
joint key — the tuple of join-attribute values.  :func:`profile_keys`
computes exactly the profile_database statistics, but keyed on a value
tuple, with the same per-document deduplication semantics.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence, Tuple

from ..core.types import DocumentClass
from ..textdb.database import TextDatabase

Key = Tuple[str, ...]


@dataclass(frozen=True)
class KeyProfile:
    """Ground-truth joint-key statistics of one (database, relation) pair.

    The three mappings mirror :class:`DatabaseProfile` exactly, keyed on
    the tuple of values at ``attribute_indexes`` instead of one value:

    * ``good_frequency[key]`` — good documents with a good occurrence;
    * ``bad_frequency[key]`` — any documents with a bad occurrence;
    * ``bad_in_good_frequency[key]`` — good documents with a bad occurrence.
    """

    relation: str
    attribute_indexes: Tuple[int, ...]
    good_frequency: Mapping[Key, int]
    bad_frequency: Mapping[Key, int]
    bad_in_good_frequency: Mapping[Key, int]

    def bad_in_bad(self, key: Key) -> int:
        return self.bad_frequency.get(key, 0) - self.bad_in_good_frequency.get(key, 0)


def profile_keys(
    database: TextDatabase,
    relation: str,
    attribute_indexes: Sequence[int],
) -> KeyProfile:
    """Joint-key analogue of :func:`profile_database`."""
    indexes = tuple(attribute_indexes)
    if not indexes:
        raise ValueError("profile_keys needs at least one attribute index")
    good_frequency: Counter = Counter()
    bad_frequency: Counter = Counter()
    bad_in_good: Counter = Counter()
    for doc in database.documents:
        mentions = doc.mentions_of(relation)
        if not mentions:
            continue
        doc_class = doc.classify(relation)
        seen_good: set = set()
        seen_bad: set = set()
        for mention in mentions:
            key = tuple(mention.fact.value_of(i) for i in indexes)
            if mention.fact.is_true:
                if key not in seen_good:
                    good_frequency[key] += 1
                    seen_good.add(key)
            else:
                if key not in seen_bad:
                    bad_frequency[key] += 1
                    if doc_class is DocumentClass.GOOD:
                        bad_in_good[key] += 1
                    seen_bad.add(key)
    return KeyProfile(
        relation=relation,
        attribute_indexes=indexes,
        good_frequency=dict(good_frequency),
        bad_frequency=dict(bad_frequency),
        bad_in_good_frequency=dict(bad_in_good),
    )

