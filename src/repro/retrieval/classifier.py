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
from typing import FrozenSet, Iterable, List, Sequence, Tuple

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
        """
        docs = list(database.documents)
        labels = [doc.classify(relation) is DocumentClass.GOOD for doc in docs]
        n_good = sum(labels)
        if n_good == 0:
            raise RuntimeError(
                f"training database has no good documents for {relation!r}"
            )
        token_sets = [doc.token_set() for doc in docs]

        def fbeta(accepted: Sequence[bool]) -> float:
            tp = sum(1 for a, g in zip(accepted, labels) if a and g)
            fp = sum(1 for a, g in zip(accepted, labels) if a and not g)
            if tp == 0:
                return 0.0
            precision = tp / (tp + fp)
            recall = tp / n_good
            b2 = beta * beta
            return (1 + b2) * precision * recall / (b2 * precision + recall)

        scored: List[Tuple[float, str]] = []
        for token in _candidate_tokens(database, min_df):
            accepted = [token in ts for ts in token_sets]
            score = fbeta(accepted)
            if score > 0:
                scored.append((score, token))
        scored.sort(reverse=True)

        rules: List[str] = []
        accepted = [False] * len(docs)
        best = 0.0
        for _, token in scored[: max_rules * 5]:
            trial = [a or (token in ts) for a, ts in zip(accepted, token_sets)]
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


def _candidate_tokens(database: TextDatabase, min_df: int) -> List[str]:
    """Tokens frequent enough to be stable rules (entity tokens included;
    training prunes them naturally since any single entity has low recall)."""
    index = database.index
    return [
        token
        for token in index.tokens()
        if index.document_frequency(token) >= min_df
    ]
