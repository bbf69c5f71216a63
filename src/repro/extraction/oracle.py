"""A synthetic reference extractor with exactly known tp(θ)/fp(θ).

The Snowball substitute's knob curves *emerge* from corpus statistics and
must be measured.  For controlled experiments and model-validation tests it
is useful to have an extractor whose curves are known in closed form: the
:class:`OracleExtractor` extracts each planted mention independently with
probability ``tp(θ)`` (good mentions) or ``fp(θ)`` (bad mentions) — exactly
the per-document independence assumption of the Section V-C analysis.

Decisions are derived from a stable per-(document, fact) hash, so they are
deterministic across runs and *monotone in θ*: the mentions extracted at a
high threshold are a subset of those extracted at a lower one, as required
of any knob (see :mod:`repro.extraction.base`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, List, Tuple

from ..core.types import ExtractedTuple, RelationSchema
from ..textdb.document import Document
from .base import Extractor


@dataclass(frozen=True)
class LinearKnob:
    """A rate curve linear in θ: ``rate(θ) = at0 + (at1 - at0) · θ``.

    ``at0`` must be 1.0 for a well-formed knob: at the most permissive
    setting every extractable occurrence is extracted, which is what makes
    tp/fp fractions of the θ=0 output (Section III-A).
    """

    at0: float = 1.0
    at1: float = 0.3

    def __post_init__(self) -> None:
        if not 0.0 <= self.at1 <= self.at0 <= 1.0:
            raise ValueError("need 0 <= at1 <= at0 <= 1")

    def __call__(self, theta: float) -> float:
        return self.at0 + (self.at1 - self.at0) * theta


def _stable_uniform(doc_id: int, values: Tuple[str, ...], salt: str) -> float:
    """Deterministic uniform(0,1) draw keyed by (document, tuple)."""
    payload = f"{salt}|{doc_id}|{'|'.join(values)}".encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class OracleExtractor(Extractor):
    """Extracts planted mentions with closed-form knob curves."""

    def __init__(
        self,
        schema: RelationSchema,
        theta: float = 0.4,
        tp_curve: Callable[[float], float] = LinearKnob(1.0, 0.35),
        fp_curve: Callable[[float], float] = LinearKnob(1.0, 0.05),
        system_name: str = "oracle",
        salt: str = "oracle",
    ) -> None:
        super().__init__(schema, theta)
        self._tp_curve = tp_curve
        self._fp_curve = fp_curve
        self._system_name = system_name
        self._salt = salt

    @property
    def name(self) -> str:
        return self._system_name

    def true_positive_rate(self, theta: float) -> float:
        return self._tp_curve(theta)

    def false_positive_rate(self, theta: float) -> float:
        return self._fp_curve(theta)

    def with_theta(self, theta: float) -> "OracleExtractor":
        return OracleExtractor(
            schema=self.schema,
            theta=theta,
            tp_curve=self._tp_curve,
            fp_curve=self._fp_curve,
            system_name=self._system_name,
            salt=self._salt,
        )

    def extract(self, document: Document) -> List[ExtractedTuple]:
        tuples: List[ExtractedTuple] = []
        for mention in document.mentions_of(self.relation):
            fact = mention.fact
            rate = (
                self._tp_curve(self.theta)
                if fact.is_true
                else self._fp_curve(self.theta)
            )
            draw = _stable_uniform(document.doc_id, fact.values, self._salt)
            if draw < rate:
                tuples.append(
                    ExtractedTuple(
                        relation=self.relation,
                        values=fact.values,
                        document_id=document.doc_id,
                        confidence=1.0 - draw,
                        is_good=fact.is_true,
                    )
                )
        return tuples


def require_threshold_contract(extractor: Extractor, use: str) -> None:
    """Refuse (``ValueError``) to *use* an extractor from its θ=0 output.

    One θ=0 pass stands for every θ only under the threshold contract of
    :meth:`~repro.extraction.base.Extractor.with_theta`; the
    :class:`OracleExtractor` breaks it (it keeps a mention by a per-θ
    rate but reports an unrelated confidence).
    """
    if isinstance(extractor, OracleExtractor):
        raise ValueError(
            f"cannot {use} {extractor.name!r} from one θ=0 pass: its "
            "confidences do not decide what it extracts at each θ "
            "(the threshold contract of Extractor.with_theta)"
        )
