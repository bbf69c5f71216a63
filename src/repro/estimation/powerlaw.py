"""Discrete (zeta-style) power laws for attribute-frequency distributions.

The paper verifies that attribute and document frequencies in its corpora
follow power laws and parameterizes its models with them (Sections V-B,
VII).  This module provides the truncated discrete power law

    Pr{f = k} = k^-β / H(β, k_max),   k = 1..k_max

with maximum-likelihood fitting of β, plus helpers to materialize expected
frequency histograms from a fitted model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence

import numpy as np

from ..textdb.stats import FrequencyHistogram
from .bounded import minimize_bounded


@dataclass(frozen=True)
class PowerLawModel:
    """A truncated discrete power law on support 1..k_max."""

    beta: float
    k_max: int

    def __post_init__(self) -> None:
        if self.k_max < 1:
            raise ValueError("k_max must be at least 1")

    def support(self) -> np.ndarray:
        return np.arange(1, self.k_max + 1)

    def pmf(self) -> np.ndarray:
        k = self.support().astype(float)
        weights = k ** (-self.beta)
        return weights / weights.sum()

    def mean(self) -> float:
        return float(np.sum(self.support() * self.pmf()))

    def probability(self, k: int) -> float:
        if not 1 <= k <= self.k_max:
            return 0.0
        return float(self.pmf()[k - 1])

    def expected_histogram(self, n_values: float) -> FrequencyHistogram:
        """Expected counts-per-frequency for *n_values* values.

        Counts are apportioned largest-remainder style so the histogram
        totals exactly ``round(n_values)`` — the models consume integral
        value counts.
        """
        n = int(round(n_values))
        if n <= 0:
            return FrequencyHistogram(counts={})
        raw = self.pmf() * n
        floors = np.floor(raw).astype(int)
        remainder = n - int(floors.sum())
        if remainder > 0:
            order = np.argsort(-(raw - floors))
            floors[order[:remainder]] += 1
        counts: Dict[int, int] = {
            int(k): int(c)
            for k, c in zip(self.support(), floors)
            if c > 0
        }
        return FrequencyHistogram(counts=counts)


def fit_power_law(
    frequencies: Mapping[int, float],
    k_max: int = 0,
    beta_bounds: tuple = (0.05, 4.0),
) -> PowerLawModel:
    """MLE fit of β to an observed {frequency: count} histogram.

    ``k_max`` defaults to the largest observed frequency.  The likelihood
    is the standard truncated-zeta form; optimization is bounded scalar
    minimization of the negative log-likelihood.
    """
    if not frequencies:
        raise ValueError("cannot fit a power law to an empty histogram")
    ks = np.array(sorted(frequencies), dtype=float)
    if ks[0] < 1:
        raise ValueError("frequencies must be >= 1")
    counts = np.array([frequencies[int(k)] for k in ks], dtype=float)
    if k_max <= 0:
        k_max = int(ks[-1])
    support = np.arange(1, k_max + 1, dtype=float)

    def negative_log_likelihood(beta: float) -> float:
        log_norm = np.log(np.sum(support ** (-beta)))
        return float(np.sum(counts * (beta * np.log(ks) + log_norm)))

    beta, _ = minimize_bounded(negative_log_likelihood, beta_bounds)
    return PowerLawModel(beta=float(beta), k_max=k_max)
