"""Seeded Monte-Carlo simulation of a multiway plan's composition.

The composition model predicts E[total]/E[good] by composing *expected*
per-key factors.  The simulator instead samples the generative story
those expectations summarize — each good-occurrence document survives
retrieval with probability ρg and extraction with probability tp
(Binomial thinning), bad occurrences analogously through fp — and runs
the *exact* tree DP on every sampled draw.  Because relations sample
independently and the DP is multilinear in the per-relation factors,
the sample mean is an unbiased estimator of the model prediction, so a
CLT band of a few standard errors makes a sharp differential check.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import FrozenSet, List, Mapping, Optional, Tuple

from .graph import JoinGraph
from .model import GraphCompositionModel, KeyFactors, compose_factors, subset_attributes
from .plan import RelationConfig


@dataclass(frozen=True)
class SimulationSummary:
    """Sample statistics of the simulated composition."""

    samples: int
    mean_good: float
    mean_total: float
    sd_good: float
    sd_total: float
    min_good: float
    max_good: float

    @property
    def stderr_good(self) -> float:
        return self.sd_good / math.sqrt(self.samples) if self.samples else 0.0

    @property
    def stderr_total(self) -> float:
        return self.sd_total / math.sqrt(self.samples) if self.samples else 0.0


def _binomial(rng: random.Random, n: int, p: float) -> int:
    if n <= 0 or p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    return sum(1 for _ in range(n) if rng.random() < p)


def simulate_composition(
    model: GraphCompositionModel,
    configs: Mapping[str, RelationConfig],
    efforts: Mapping[str, float],
    samples: int = 400,
    seed: int = 11,
    subset: Optional[FrozenSet[str]] = None,
) -> SimulationSummary:
    """Sample the joined composition *samples* times at fixed efforts."""
    if samples <= 0:
        raise ValueError("need at least one sample")
    graph: JoinGraph = model.graph
    names = subset if subset is not None else frozenset(graph.names)
    rng = random.Random(seed)
    # Pre-resolve the per-relation sampling ingredients once.
    ingredients = []
    for name in graph.names:
        if name not in names:
            continue
        config = configs[name]
        attributes = subset_attributes(graph, name, names)
        side = model.catalog.side(name, config.theta)
        profile = model.catalog.keys(name, attributes)
        retrieval = model.retrieval_model(config)
        rho_good = retrieval.good_fraction_processed(efforts[name])
        rho_bad = retrieval.bad_fraction_processed(efforts[name])
        ingredients.append((name, attributes, side, profile, rho_good, rho_bad))
    goods: List[float] = []
    totals: List[float] = []
    for _ in range(samples):
        sampled: dict = {}
        for name, attributes, side, profile, rho_good, rho_bad in ingredients:
            factors: KeyFactors = {}
            # Sorted, so the draws go to the same keys whatever the
            # string hash seed.
            keys = set(profile.good_frequency) | set(profile.bad_frequency)
            for key in sorted(keys):
                good = _binomial(
                    rng, int(profile.good_frequency.get(key, 0)), side.tp * rho_good
                )
                bad = _binomial(
                    rng,
                    int(profile.bad_in_good_frequency.get(key, 0)),
                    side.fp * rho_good,
                ) + _binomial(rng, int(profile.bad_in_bad(key)), side.fp * rho_bad)
                if good or bad:
                    factors[key] = (float(good + bad), float(good))
            sampled[(name, attributes)] = factors

        def factors_for(name: str, attributes: Tuple[str, ...]) -> KeyFactors:
            return sampled[(name, attributes)]

        total, good = compose_factors(graph, names, factors_for)
        totals.append(total)
        goods.append(good)
    return SimulationSummary(
        samples=samples,
        mean_good=_mean(goods),
        mean_total=_mean(totals),
        sd_good=_sd(goods),
        sd_total=_sd(totals),
        min_good=min(goods),
        max_good=max(goods),
    )


def _mean(values: List[float]) -> float:
    return sum(values) / len(values)


def _sd(values: List[float]) -> float:
    mean = _mean(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / max(len(values) - 1, 1))
