"""Measuring an extractor's tp(θ)/fp(θ) knob curves (Section III-A).

Per the paper, for a knob configuration θ:

* ``tp(θ)`` is the fraction of good tuple occurrences in the θ output over
  all good occurrences extractable *at any* configuration;
* ``fp(θ)`` is the same ratio for bad occurrences.

Because knobs are monotone (see :mod:`repro.extraction.base`), the
all-configurations reference set is exactly the θ=0 output.  Rates are
measured at *occurrence* granularity — one (document, tuple) pair counts
once — matching how the Section V models consume them (each retrieved
document yields an occurrence independently with probability tp(θ)).

The knob thresholds a θ-independent confidence (the threshold contract of
:meth:`Extractor.with_theta`), so an occurrence survives θ exactly when
its best confidence over the document is ≥ θ.  One θ=0 pass therefore
measures the whole curve: the per-θ extraction loop survives only as
``reference_characterize`` in :mod:`repro.validation.differential`.

This is the offline profiling step of the paper's setup: characterization
runs on the training database, and the resulting curves parameterize the
quality models for the (unseen) target databases.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..textdb.database import TextDatabase
from .base import Extractor
from .oracle import require_threshold_contract


@dataclass(frozen=True)
class ConfidenceReference:
    """Binned confidence distributions of good and bad occurrences.

    Measured on the training database at the most permissive setting
    (θ=0), these are the class-conditional score distributions the online
    estimator uses to split observed extractions into good and bad without
    a verification oracle (Section VI).  Bins partition [0, 1] uniformly.
    """

    n_bins: int
    good: Tuple[float, ...]
    bad: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.good) != self.n_bins or len(self.bad) != self.n_bins:
            raise ValueError("bin vectors must have length n_bins")

    def bin_of(self, confidence: float) -> int:
        index = int(confidence * self.n_bins)
        return min(max(index, 0), self.n_bins - 1)

    def _conditional(
        self, bins: Tuple[float, ...], theta: float
    ) -> Tuple[float, ...]:
        """Renormalize a class distribution to scores the knob θ admits.

        Valid when confidence is the knob's decision score (extraction at
        θ keeps exactly the occurrences scoring ≥ θ), which all extractors
        in this library satisfy.
        """
        cutoff = self.bin_of(theta)
        masked = [p if i >= cutoff else 0.0 for i, p in enumerate(bins)]
        total = sum(masked)
        if total <= 0:
            return tuple(1.0 / self.n_bins for _ in bins)
        return tuple(p / total for p in masked)

    def good_at(self, theta: float) -> Tuple[float, ...]:
        return self._conditional(self.good, theta)

    def bad_at(self, theta: float) -> Tuple[float, ...]:
        return self._conditional(self.bad, theta)

    @classmethod
    def from_samples(
        cls,
        good_confidences: Sequence[float],
        bad_confidences: Sequence[float],
        n_bins: int = 20,
        smoothing: float = 0.5,
    ) -> "ConfidenceReference":
        def histogram(samples: Sequence[float]) -> Tuple[float, ...]:
            counts = [smoothing] * n_bins
            for value in samples:
                index = min(max(int(value * n_bins), 0), n_bins - 1)
                counts[index] += 1.0
            total = sum(counts)
            return tuple(c / total for c in counts)

        return cls(
            n_bins=n_bins,
            good=histogram(good_confidences),
            bad=histogram(bad_confidences),
        )


@dataclass(frozen=True)
class KnobCharacterization:
    """Measured tp/fp curves over a θ grid for one extraction system."""

    system_name: str
    relation: str
    thetas: Tuple[float, ...]
    tp: Tuple[float, ...]
    fp: Tuple[float, ...]
    n_good_reference: int
    n_bad_reference: int
    confidences: Optional[ConfidenceReference] = None

    def __post_init__(self) -> None:
        if not (len(self.thetas) == len(self.tp) == len(self.fp)):
            raise ValueError("grid and curves must have equal length")
        if list(self.thetas) != sorted(self.thetas):
            raise ValueError("theta grid must be sorted ascending")

    def _interpolate(self, curve: Sequence[float], theta: float) -> float:
        thetas = self.thetas
        if theta <= thetas[0]:
            return curve[0]
        if theta >= thetas[-1]:
            return curve[-1]
        hi = bisect_left(thetas, theta)
        lo = hi - 1
        span = thetas[hi] - thetas[lo]
        if span == 0:
            return curve[lo]
        w = (theta - thetas[lo]) / span
        return curve[lo] * (1 - w) + curve[hi] * w

    def tp_at(self, theta: float) -> float:
        """Interpolated true-positive rate at θ."""
        return self._interpolate(self.tp, theta)

    def fp_at(self, theta: float) -> float:
        """Interpolated false-positive rate at θ."""
        return self._interpolate(self.fp, theta)


def characterize(
    extractor: Extractor,
    database: TextDatabase,
    thetas: Optional[Sequence[float]] = None,
    sample_size: Optional[int] = None,
) -> KnobCharacterization:
    """Measure tp(θ)/fp(θ) by running the extractor over *database*.

    ``sample_size`` restricts profiling to a prefix of the database's scan
    order — the cheap offline variant the optimizer uses.  The extractor
    runs once, at θ=0: its occurrences are the reference sets, and an
    occurrence counts at grid point θ when its best confidence is ≥ θ.
    That needs the threshold contract of
    :meth:`~repro.extraction.base.Extractor.with_theta`, which the
    :class:`~repro.extraction.oracle.OracleExtractor` breaks, so it is
    refused with a ``ValueError`` rather than given wrong curves.
    """
    require_threshold_contract(extractor, "characterize")
    if thetas is None:
        thetas = [i / 20 for i in range(21)]
    thetas = sorted(thetas)
    if not thetas or thetas[0] < 0 or thetas[-1] > 1:
        raise ValueError("thetas must lie within [0, 1]")
    documents = (
        database.scan(0, sample_size) if sample_size else list(database.documents)
    )
    reference = extractor.with_theta(0.0)
    #: (document, values) -> best confidence, one table per class
    good_best: Dict[Tuple[int, Tuple[str, ...]], float] = {}
    bad_best: Dict[Tuple[int, Tuple[str, ...]], float] = {}
    good_confidences: List[float] = []
    bad_confidences: List[float] = []
    for doc in documents:
        for tup in reference.extract(doc):
            key = (tup.document_id, tup.values)
            if tup.is_good:
                best, confidences = good_best, good_confidences
            else:
                best, confidences = bad_best, bad_confidences
            seen = best.get(key)
            if seen is None:
                confidences.append(tup.confidence)
                best[key] = tup.confidence
            elif tup.confidence > seen:
                best[key] = tup.confidence
    good_sorted = sorted(good_best.values())
    bad_sorted = sorted(bad_best.values())

    def surviving(ranked: List[float], theta: float) -> float:
        if not ranked:
            return 0.0
        return (len(ranked) - bisect_left(ranked, theta)) / len(ranked)

    confidences = None
    if good_confidences and bad_confidences:
        confidences = ConfidenceReference.from_samples(
            good_confidences, bad_confidences
        )
    return KnobCharacterization(
        system_name=extractor.name,
        relation=extractor.relation,
        thetas=tuple(thetas),
        tp=tuple(surviving(good_sorted, theta) for theta in thetas),
        fp=tuple(surviving(bad_sorted, theta) for theta in thetas),
        n_good_reference=len(good_best),
        n_bad_reference=len(bad_best),
        confidences=confidences,
    )
