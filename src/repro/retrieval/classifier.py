"""Rule-based document classifier for Filtered Scan.

Stands in for the Ripper classifier [5] the paper trains: a disjunction of
single-token rules ("process the document if it contains any learned
trigger term").  Training selects, from a labelled training database, the
tokens whose presence best separates good documents from the rest by an
F-beta criterion; the measured true/false-positive rates (Ctp, Cfp) on held
data feed the Filtered-Scan quality model of Section V-C.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Tuple

from ..core.types import DocumentClass
from ..textdb.database import TextDatabase
from ..textdb.document import Document


@dataclass(frozen=True)
class ClassifierProfile:
    """Measured operating characteristics of a document classifier.

    ``c_tp``: fraction of good documents classified as good.
    ``c_fp``: fraction of bad documents (mis)classified as good.
    ``c_ep``: fraction of empty documents (mis)classified as good — not in
    the paper's quality model (empty documents yield no tuples) but needed
    by the execution-time model, since FS pays extraction time for every
    document that survives the filter.
    """

    c_tp: float
    c_fp: float
    c_ep: float

    def __post_init__(self) -> None:
        for name in ("c_tp", "c_fp", "c_ep"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1]")


class RuleClassifier:
    """Accepts a document iff it contains any of the trigger rules."""

    def __init__(self, relation: str, rules: Iterable[str]) -> None:
        self.relation = relation
        self.rules: FrozenSet[str] = frozenset(rules)
        if not self.rules:
            raise ValueError("a classifier needs at least one rule token")

    def classify(self, document: Document) -> bool:
        """True when the document looks worth processing (stops at the
        first sentence holding a rule token)."""
        return any(not self.rules.isdisjoint(s) for s in document.sentences)

    # -- training & evaluation ------------------------------------------------

    @classmethod
    def train(
        cls,
        database: TextDatabase,
        relation: str,
        max_rules: int = 10,
        beta: float = 0.5,
        min_df: int = 3,
    ) -> "RuleClassifier":
        """Learn trigger rules from a labelled training database.

        Candidate tokens are ranked by F-beta of the single-token rule
        "token present => good document" (beta < 1 favours precision, as a
        filter should), and greedily added while they improve the rule
        set's F-beta on the training collection.

        Document sets are int bitmasks (bit *i* is the *i*-th document in
        id order): one mask per token, built in one pass, so an F-beta is
        two popcounts of an AND and a greedy trial is one OR.
        """
        good = not_good = 0
        token_masks: Dict[str, int] = {}
        for position, doc in enumerate(database.documents):
            bit = 1 << position
            if doc.classify(relation) is DocumentClass.GOOD:
                good |= bit
            else:
                not_good |= bit
            for token in doc.token_set():
                token_masks[token] = token_masks.get(token, 0) | bit
        n_good = _popcount(good)
        if n_good == 0:
            raise RuntimeError(
                f"training database has no good documents for {relation!r}"
            )

        def fbeta(accepted: int) -> float:
            tp = _popcount(accepted & good)
            fp = _popcount(accepted & not_good)
            if tp == 0:
                return 0.0
            precision = tp / (tp + fp)
            recall = tp / n_good
            b2 = beta * beta
            return (1 + b2) * precision * recall / (b2 * precision + recall)

        scored: List[Tuple[float, str]] = []
        for token in _candidate_tokens(database, min_df):
            score = fbeta(token_masks.get(token, 0))
            if score > 0:
                scored.append((score, token))
        scored.sort(reverse=True)

        rules: List[str] = []
        accepted = 0
        best = 0.0
        for _, token in scored[: max_rules * 5]:
            trial = accepted | token_masks.get(token, 0)
            trial_score = fbeta(trial)
            if trial_score > best:
                rules.append(token)
                accepted = trial
                best = trial_score
            if len(rules) >= max_rules:
                break
        if not rules:
            raise RuntimeError(f"no informative rule tokens found for {relation!r}")
        return cls(relation=relation, rules=rules)

    def measure(self, database: TextDatabase) -> ClassifierProfile:
        """Measure Ctp/Cfp/Cep on a labelled database."""
        counts = {DocumentClass.GOOD: 0, DocumentClass.BAD: 0, DocumentClass.EMPTY: 0}
        accepted = {
            DocumentClass.GOOD: 0,
            DocumentClass.BAD: 0,
            DocumentClass.EMPTY: 0,
        }
        for doc in database.documents:
            cls_ = doc.classify(self.relation)
            counts[cls_] += 1
            if self.classify(doc):
                accepted[cls_] += 1

        def rate(klass: DocumentClass) -> float:
            return accepted[klass] / counts[klass] if counts[klass] else 0.0

        return ClassifierProfile(
            c_tp=rate(DocumentClass.GOOD),
            c_fp=rate(DocumentClass.BAD),
            c_ep=rate(DocumentClass.EMPTY),
        )


def _popcount(mask: int) -> int:
    """Set bits of a non-negative int (``int.bit_count`` needs 3.10)."""
    return bin(mask).count("1")


def _candidate_tokens(database: TextDatabase, min_df: int) -> List[str]:
    """Tokens frequent enough to be stable rules (entity tokens included;
    training prunes them naturally since any single entity has low recall)."""
    index = database.index
    return [
        token
        for token in index.tokens()
        if index.document_frequency(token) >= min_df
    ]
