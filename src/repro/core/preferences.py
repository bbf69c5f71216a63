"""User-specified quality preferences (Section III-C).

The paper's query model lets users request a minimum number ``τg`` of good
join tuples and a maximum number ``τb`` of tolerable bad join tuples.  The
paper notes that higher-level cost functions — minimum precision at top-k,
minimum recall, weighted precision/recall within a time budget — can be
mapped down to this lower-level (τg, τb) model; this module provides both
the base model and those mappings.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class QualityRequirement:
    """The (τg, τb) quality contract a join execution must meet.

    A join result with ``n_good`` good and ``n_bad`` bad tuples satisfies
    the requirement iff ``n_good >= tau_good`` and ``n_bad <= tau_bad``.
    """

    tau_good: int
    tau_bad: int

    def __post_init__(self) -> None:
        if self.tau_good < 0:
            raise ValueError("tau_good must be non-negative")
        if self.tau_bad < 0:
            raise ValueError("tau_bad must be non-negative")

    def satisfied_by(self, n_good: float, n_bad: float) -> bool:
        """Whether (n_good, n_bad) meets the contract."""
        return n_good >= self.tau_good and n_bad <= self.tau_bad

    def good_met(self, n_good: float) -> bool:
        return n_good >= self.tau_good

    def bad_exceeded(self, n_bad: float) -> bool:
        return n_bad > self.tau_bad

    def stops(self, est_good: float, est_bad: float) -> bool:
        """The Figures 3/5/7 stopping condition on estimated quality: the
        good tuples reach τg or the bad tuples exceed τb."""
        return self.good_met(est_good) or self.bad_exceeded(est_bad)


#: the requirement of a run with no quality target: it stops only on
#: budgets or exhaustion
UNLIMITED = QualityRequirement(tau_good=2**62, tau_bad=2**62)


def requirement_from_precision(
    min_precision: float, k: int
) -> QualityRequirement:
    """Map "precision ≥ p over the top-k results" onto (τg, τb).

    If at least ``ceil(p·k)`` of k results must be good, then the execution
    needs τg = ceil(p·k) good tuples while tolerating at most
    ``floor((1-p)·k)`` bad ones.
    """
    if not 0.0 < min_precision <= 1.0:
        raise ValueError("min_precision must be in (0, 1]")
    if k <= 0:
        raise ValueError("k must be positive")
    import math

    tau_good = math.ceil(min_precision * k)
    tau_bad = k - tau_good
    return QualityRequirement(tau_good=tau_good, tau_bad=tau_bad)


def requirement_from_recall(
    min_recall: float,
    total_good: int,
    max_bad: int,
) -> QualityRequirement:
    """Map "recall ≥ r of the ``total_good`` reachable good tuples" to (τg, τb).

    ``total_good`` is the (estimated) number of good join tuples that a
    complete execution could produce; the bad-tuple tolerance must still be
    stated explicitly since recall alone says nothing about errors.
    """
    if not 0.0 < min_recall <= 1.0:
        raise ValueError("min_recall must be in (0, 1]")
    if total_good < 0:
        raise ValueError("total_good must be non-negative")
    import math

    return QualityRequirement(
        tau_good=math.ceil(min_recall * total_good),
        tau_bad=max_bad,
    )
