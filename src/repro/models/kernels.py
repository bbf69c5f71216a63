"""Array-backed model kernels: vectorized occurrence factors and composition.

The Section V models spend their time in two per-value walks:

1. **occurrence factors** — per value, the expected good/bad occurrence
   counts at an operating point (:func:`repro.models.scheme.occurrence_factors`);
2. **composition** — the cross-side sums of Equation 1 and its bad-side
   analogues (:func:`repro.models.scheme.compose_per_value`).

Both walks have fixed structure per statistics pair: the value sets, their
frequencies, and the cross-side value intersections never change with
effort — only four scalar coverage fractions (ρg1, ρb1, ρg2, ρb2) do.
This module precomputes that structure once per :class:`SideStatistics`
(pair) and answers any operating point with a handful of array — or, for
coverage-separable factors, purely scalar — operations:

    E[gr(a)]        = tp · g(a) · ρg                     (separable in ρg)
    Σ_a gr1·gr2     = tp1·tp2·ρg1·ρg2 · Σ_a g1(a)·g2(a)  (precomputed dot)

The models compose through these kernels only.  The scalar dict-walking
implementations in :mod:`repro.models.scheme` remain the reference, reached
from :mod:`repro.validation.differential`; golden tests and
``repro validate`` assert both agree within 1e-9.

Kernels are cached *on the statistics objects themselves* (via
``object.__setattr__`` on the frozen dataclasses), so every model and plan
evaluated over the same catalog entry shares one set of arrays.
"""

from __future__ import annotations

import weakref
from typing import Dict, Tuple

import numpy as np

from ..validation.invariants import active_checker
from .parameters import SideStatistics, ValueOverlapModel
from .scheme import (
    DEFAULT_FREQUENCY_CORRELATION,
    CompositionEstimate,
)


class SideKernel:
    """Frequency arrays for one side, in a fixed (sorted) value order."""

    __slots__ = (
        "tp",
        "fp",
        "good_values",
        "bad_values",
        "g",
        "bg",
        "bb",
        "_pairs",
        "__weakref__",
    )

    def __init__(self, side: SideStatistics) -> None:
        # The kernel keeps the values it reads, never the side itself: the
        # side caches its kernel, and a back reference would make every
        # statistics catalog a cycle that only the collector frees.
        self.tp = side.tp
        self.fp = side.fp
        self.good_values: Tuple[str, ...] = tuple(sorted(side.good_frequency))
        self.bad_values: Tuple[str, ...] = tuple(sorted(side.bad_frequency))
        self.g = np.array(
            [side.good_frequency[v] for v in self.good_values], dtype=float
        )
        self.bg = np.array(
            [side.bad_in_good_frequency.get(v, 0.0) for v in self.bad_values],
            dtype=float,
        )
        self.bb = (
            np.array(
                [side.bad_frequency[v] for v in self.bad_values], dtype=float
            )
            - self.bg
        )
        #: composition kernels against other sides, keyed by their identity;
        #: each entry holds a weak reference to that side's kernel, to tell
        #: a reused id from the same kernel without keeping it (or, in a
        #: self-join, this kernel) alive
        self._pairs: Dict[
            int, Tuple["weakref.ref[SideKernel]", "CompositionKernel"]
        ] = {}

    # -- factor arrays (aligned to good_values / bad_values) -------------------

    def good_factors(self, rho_good: float) -> np.ndarray:
        """E[gr(a)] = tp · g(a) · ρg for every good value."""
        return self.tp * rho_good * self.g

    def bad_factors(self, rho_good: float, rho_bad: float) -> np.ndarray:
        """E[br(a)] = fp · (b_good(a)·ρg + b_bad(a)·ρb) for every bad value."""
        return self.fp * (self.bg * rho_good + self.bb * rho_bad)


def side_kernel(side: SideStatistics) -> SideKernel:
    """The side's kernel, built once and attached to the instance."""
    kernel = getattr(side, "_kernel", None)
    if kernel is None:
        kernel = SideKernel(side)
        object.__setattr__(side, "_kernel", kernel)
    return kernel


def _align(
    values1: Tuple[str, ...], values2: Tuple[str, ...]
) -> Tuple[np.ndarray, np.ndarray]:
    """Index arrays (i1, i2) of the sorted intersection of two value lists."""
    index2 = {value: i for i, value in enumerate(values2)}
    pairs = [
        (i, index2[value])
        for i, value in enumerate(values1)
        if value in index2
    ]
    if not pairs:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    i1, i2 = zip(*pairs)
    return np.array(i1, dtype=int), np.array(i2, dtype=int)


def _moments_array(values: np.ndarray) -> Tuple[float, float]:
    """(mean, population standard deviation) — scheme._moments on arrays."""
    if values.size == 0:
        return 0.0, 0.0
    mean = float(values.sum() / values.size)
    variance = float(((values - mean) ** 2).sum() / values.size)
    return mean, variance**0.5


class CompositionKernel:
    """Precomputed cross-side structure for Section V-B composition.

    Holds the four class-intersection index arrays (for composing
    arbitrary factor arrays, e.g. OIJN's coverage-dependent inner factors)
    and the frequency dot products that make coverage-separable factors
    (IDJN, ZGJN) compose in O(1) scalar arithmetic.
    """

    __slots__ = (
        "tp1",
        "fp1",
        "tp2",
        "fp2",
        "gg1",
        "gg2",
        "gb1",
        "gb2",
        "bg1",
        "bg2",
        "bb1",
        "bb2",
        "s_gg",
        "s_g_bg",
        "s_g_bb",
        "s_bg_g",
        "s_bb_g",
        "s_bgbg",
        "s_bgbb",
        "s_bbbg",
        "s_bbbb",
    )

    def __init__(self, k1: SideKernel, k2: SideKernel) -> None:
        self.tp1, self.fp1 = k1.tp, k1.fp
        self.tp2, self.fp2 = k2.tp, k2.fp
        self.gg1, self.gg2 = _align(k1.good_values, k2.good_values)
        self.gb1, self.gb2 = _align(k1.good_values, k2.bad_values)
        self.bg1, self.bg2 = _align(k1.bad_values, k2.good_values)
        self.bb1, self.bb2 = _align(k1.bad_values, k2.bad_values)
        # Frequency dot products over each intersection: with separable
        # factors the coverage scalars factor out of Equation 1 entirely.
        self.s_gg = float(k1.g[self.gg1] @ k2.g[self.gg2])
        self.s_g_bg = float(k1.g[self.gb1] @ k2.bg[self.gb2])
        self.s_g_bb = float(k1.g[self.gb1] @ k2.bb[self.gb2])
        self.s_bg_g = float(k1.bg[self.bg1] @ k2.g[self.bg2])
        self.s_bb_g = float(k1.bb[self.bg1] @ k2.g[self.bg2])
        self.s_bgbg = float(k1.bg[self.bb1] @ k2.bg[self.bb2])
        self.s_bgbb = float(k1.bg[self.bb1] @ k2.bb[self.bb2])
        self.s_bbbg = float(k1.bb[self.bb1] @ k2.bg[self.bb2])
        self.s_bbbb = float(k1.bb[self.bb1] @ k2.bb[self.bb2])

    # -- separable (coverage-only) composition ---------------------------------

    def compose_coverage(
        self,
        rho_good1: float,
        rho_bad1: float,
        rho_good2: float,
        rho_bad2: float,
    ) -> CompositionEstimate:
        """Per-value composition when both sides' factors are separable.

        Exactly :func:`~repro.models.scheme.compose_per_value` applied to
        :func:`~repro.models.scheme.occurrence_factors` of both sides,
        reduced to closed form in the coverage fractions.
        """
        tp1, fp1 = self.tp1, self.fp1
        tp2, fp2 = self.tp2, self.fp2
        good = tp1 * tp2 * rho_good1 * rho_good2 * self.s_gg
        good_bad = (
            tp1
            * fp2
            * rho_good1
            * (rho_good2 * self.s_g_bg + rho_bad2 * self.s_g_bb)
        )
        bad_good = (
            fp1
            * tp2
            * rho_good2
            * (rho_good1 * self.s_bg_g + rho_bad1 * self.s_bb_g)
        )
        bad_bad = fp1 * fp2 * (
            rho_good1 * rho_good2 * self.s_bgbg
            + rho_good1 * rho_bad2 * self.s_bgbb
            + rho_bad1 * rho_good2 * self.s_bbbg
            + rho_bad1 * rho_bad2 * self.s_bbbb
        )
        checker = active_checker()
        if checker.enabled:
            where = "kernels.compose_coverage"
            checker.check_coverages(
                where, rho_good1, rho_bad1, rho_good2, rho_bad2
            )
            checker.check_composition(where, good, good_bad, bad_good, bad_bad)
        return CompositionEstimate(
            good=good, good_bad=good_bad, bad_good=bad_good, bad_bad=bad_bad
        )

    # -- general per-value composition -----------------------------------------

    def compose_arrays(
        self,
        good1: np.ndarray,
        bad1: np.ndarray,
        good2: np.ndarray,
        bad2: np.ndarray,
    ) -> CompositionEstimate:
        """Equation 1 over arbitrary factor arrays (kernel value order)."""
        estimate = CompositionEstimate(
            good=float(good1[self.gg1] @ good2[self.gg2]),
            good_bad=float(good1[self.gb1] @ bad2[self.gb2]),
            bad_good=float(bad1[self.bg1] @ good2[self.bg2]),
            bad_bad=float(bad1[self.bb1] @ bad2[self.bb2]),
        )
        checker = active_checker()
        if checker.enabled:
            checker.check_composition(
                "kernels.compose_arrays",
                estimate.good,
                estimate.good_bad,
                estimate.bad_good,
                estimate.bad_bad,
            )
        return estimate


def composition_kernel(
    side1: SideStatistics, side2: SideStatistics
) -> CompositionKernel:
    """The pair's composition kernel, cached on side1's kernel."""
    k1, k2 = side_kernel(side1), side_kernel(side2)
    entry = k1._pairs.get(id(k2))
    if entry is None or entry[0]() is not k2:
        entry = (weakref.ref(k2), CompositionKernel(k1, k2))
        k1._pairs[id(k2)] = entry
    return entry[1]


def compose_aggregate_arrays(
    good1: np.ndarray,
    bad1: np.ndarray,
    good2: np.ndarray,
    bad2: np.ndarray,
    overlap: ValueOverlapModel,
    correlation: float = DEFAULT_FREQUENCY_CORRELATION,
) -> CompositionEstimate:
    """:func:`~repro.models.scheme.compose_aggregate` on factor arrays."""
    if not 0.0 <= correlation <= 1.0:
        raise ValueError("correlation must be within [0, 1]")
    mg1, sg1 = _moments_array(good1)
    mb1, sb1 = _moments_array(bad1)
    mg2, sg2 = _moments_array(good2)
    mb2, sb2 = _moments_array(bad2)

    def term(count: float, m1: float, s1: float, m2: float, s2: float) -> float:
        return max(0.0, count * (m1 * m2 + correlation * s1 * s2))

    estimate = CompositionEstimate(
        good=term(overlap.n_gg, mg1, sg1, mg2, sg2),
        good_bad=term(overlap.n_gb, mg1, sg1, mb2, sb2),
        bad_good=term(overlap.n_bg, mb1, sb1, mg2, sg2),
        bad_bad=term(overlap.n_bb, mb1, sb1, mb2, sb2),
    )
    checker = active_checker()
    if checker.enabled:
        checker.check_composition(
            "kernels.compose_aggregate_arrays",
            estimate.good,
            estimate.good_bad,
            estimate.bad_good,
            estimate.bad_bad,
        )
    return estimate
