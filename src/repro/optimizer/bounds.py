"""Guaranteed plan-quality bounds for optimizer pruning (DESIGN §6.7).

The Section V models are expensive because they evaluate a plan at a
*specific* operating point.  But every model's good/bad compositions are
built from per-value occurrence factors that are pointwise capped by
their full-retrieval values — coverage fractions never exceed 1, OIJN's
per-value issue coverage ``own + (1-own)·ρ_rest`` never exceeds 1, and
ZGJN's document reach never exceeds its occupancy ceiling.  Pushing those
caps through the composition algebra yields *guaranteed* upper bounds on
E[|Tgood⋈|] and E[|Tbad⋈|] at **any** effort level, computable from the
cached :class:`~repro.models.kernels.CompositionKernel` dot products in
microseconds — no model construction, no effort probes.

The optimizer uses ``good_upper`` to discard plans that provably cannot
reach ``τg`` before paying for a single model prediction (tier A of the
pruning layer; tier B — bracket dominance during bisection descent —
lives in :mod:`.optimizer`).  Bound tightness is reported q-error style
(``bound / actual`` at full effort) next to ``BENCH_perf.json``.

Soundness notes, per mode:

* **per-value**: Equation 1's good term is ``Σ_v f1(v)·f2(v)`` with
  ``f(v) ≤ tp·g(v)`` pointwise for every model (coverages ≤ 1), so
  ``good ≤ tp1·tp2·s_gg`` — exact for scan/scan IDJN at full effort.
  For ZGJN the coverage fractions are further capped by the reachable-
  document occupancy ceiling (computed from the hypergeometric
  full-retrieval tail, :func:`~repro.models.distributions.issue_probability_ceiling`),
  which tightens the bound by the same factor the model itself is capped.
* **aggregate**: the composed term is ``count·(m1·m2 + corr·s1·s2)``
  with means and *population standard deviations* of the factor arrays.
  The std is **not** pointwise-monotone under factor shrinking, so the
  cap-array moments alone are unsound; instead ``s² ≤ E[f²] ≤ E[f_cap²]``
  bounds the std by the cap array's root mean square.  Means and RMS are
  taken over the nonzero-cap subset, which dominates both the full-array
  moments (dropping zeros raises nonnegative means) and the masked
  moments the OIJN aggregate path uses (its masks *are* the nonzero-cap
  subsets).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp
from typing import Optional, Tuple

import numpy as np

from ..core.plan import JoinKind, JoinPlanSpec
from ..models.distributions import issue_probability_ceiling
from ..models.kernels import composition_kernel, side_kernel
from ..models.parameters import (
    JoinStatistics,
    SideStatistics,
    ValueOverlapModel,
)
from .catalog import StatisticsCatalog

#: relative slack applied before any prune decision: the models evaluate
#: the same products in a different association order (and the scalar
#: references in repro.validation.differential differ from the
#: vectorized models by ~1e-9 relative), so
#: a bound is only trusted to separate values that differ by more than
#: float-rounding noise.
BOUND_SLACK = 1.0 + 1e-9


@dataclass(frozen=True)
class PlanBounds:
    """Guaranteed effort-independent quality ceilings for one plan."""

    plan: JoinPlanSpec
    #: E[|Tgood⋈|] at any operating point is ≤ this
    good_upper: float
    #: E[|Tbad⋈|] at any operating point is ≤ this
    bad_upper: float

    def cannot_reach(self, target_good: float) -> bool:
        """True when no operating point can produce *target_good* tuples."""
        return self.good_upper * BOUND_SLACK < target_good


def _good_share(side: SideStatistics) -> float:
    """Good-document share among query-matchable documents (ZGJN model)."""
    good_docs = side.total_good_occurrences + sum(
        side.bad_in_good_frequency.values()
    )
    all_docs = side.total_good_occurrences + side.total_bad_occurrences
    if all_docs <= 0:
        return 0.0
    return good_docs / all_docs


def _zgjn_reachable_ceiling(
    side: SideStatistics, other: SideStatistics
) -> float:
    """ZGJN's occupancy ceiling on documents of *side* reachable by queries.

    Mirrors ``ZGJNModel._compute_reachable`` (per-value, dedup-corrected —
    the configuration the optimizer always constructs): a document is only
    reachable through queries for values it contains, a value is only
    queried if the other side's extractor can emit it at all, and the
    extraction ceiling is the full-retrieval hypergeometric tail.  The
    model's ``cap(raw, ceiling) ≤ ceiling`` guarantees its document reach
    never exceeds this number at any query budget.
    """
    non_empty = float(side.n_good_docs + side.n_bad_docs)
    if non_empty <= 0:
        return 0.0
    values = sorted(set(side.good_frequency) | set(side.bad_frequency))
    if not values:
        return 0.0
    g_other = np.array([other.good_frequency.get(v, 0.0) for v in values])
    b_other = np.array([other.bad_frequency.get(v, 0.0) for v in values])
    mask = (g_other != 0) | (b_other != 0)
    p_queryable = issue_probability_ceiling(
        g_other, b_other, other.tp, other.fp
    )
    hits = np.array(
        [side.good_frequency.get(v, 0.0) for v in values]
    ) + np.array([side.bad_frequency.get(v, 0.0) for v in values])
    slots = float(np.sum((p_queryable * np.minimum(hits, side.top_k))[mask]))
    return non_empty * (1.0 - exp(-slots / non_empty))


def _zgjn_coverage_caps(
    statistics: JoinStatistics,
) -> Tuple[Tuple[float, float], Tuple[float, float]]:
    """((ρg1, ρb1), (ρg2, ρb2)) ceilings on ZGJN's coverage fractions."""
    caps = []
    for side, other in (
        (statistics.side1, statistics.side2),
        (statistics.side2, statistics.side1),
    ):
        reach = _zgjn_reachable_ceiling(side, other)
        share = _good_share(side)
        rho_good = min(reach * share / max(side.n_good_docs, 1), 1.0)
        rho_bad = min(reach * (1.0 - share) / max(side.n_bad_docs, 1), 1.0)
        caps.append((rho_good, rho_bad))
    return caps[0], caps[1]


def _per_value_bounds(
    plan: JoinPlanSpec, statistics: JoinStatistics
) -> PlanBounds:
    side1, side2 = statistics.side1, statistics.side2
    kernel = composition_kernel(side1, side2)
    tp1, fp1 = side1.tp, side1.fp
    tp2, fp2 = side2.tp, side2.fp
    if plan.join is JoinKind.ZGJN:
        (rho_g1, rho_b1), (rho_g2, rho_b2) = _zgjn_coverage_caps(statistics)
    else:
        rho_g1 = rho_b1 = rho_g2 = rho_b2 = 1.0
    good = tp1 * tp2 * rho_g1 * rho_g2 * kernel.s_gg
    good_bad = (
        tp1 * fp2 * rho_g1 * (rho_g2 * kernel.s_g_bg + rho_b2 * kernel.s_g_bb)
    )
    bad_good = (
        fp1 * tp2 * rho_g2 * (rho_g1 * kernel.s_bg_g + rho_b1 * kernel.s_bb_g)
    )
    bad_bad = fp1 * fp2 * (
        rho_g1 * rho_g2 * kernel.s_bgbg
        + rho_g1 * rho_b2 * kernel.s_bgbb
        + rho_b1 * rho_g2 * kernel.s_bbbg
        + rho_b1 * rho_b2 * kernel.s_bbbb
    )
    return PlanBounds(
        plan=plan,
        good_upper=good,
        bad_upper=good_bad + bad_good + bad_bad,
    )


def _cap_moments(cap: np.ndarray) -> Tuple[float, float]:
    """(mean, RMS) of a cap array over its nonzero subset.

    Dominates the (mean, std) of *any* factor array that is pointwise
    within ``[0, cap]``, whether the composition takes moments over the
    full array or over the nonzero-cap mask.
    """
    nonzero = cap[cap > 0]
    if nonzero.size == 0:
        return 0.0, 0.0
    mean = float(nonzero.mean())
    rms = float(np.sqrt((nonzero**2).mean()))
    return mean, rms


def _aggregate_bounds(
    plan: JoinPlanSpec,
    statistics: JoinStatistics,
    overlap: Optional[ValueOverlapModel],
    correlation: float,
) -> PlanBounds:
    side1, side2 = statistics.side1, statistics.side2
    if overlap is None:
        overlap = ValueOverlapModel.from_side_values(side1, side2)
    k1, k2 = side_kernel(side1), side_kernel(side2)
    mg1, rg1 = _cap_moments(side1.tp * k1.g)
    mb1, rb1 = _cap_moments(side1.fp * (k1.bg + k1.bb))
    mg2, rg2 = _cap_moments(side2.tp * k2.g)
    mb2, rb2 = _cap_moments(side2.fp * (k2.bg + k2.bb))

    def term(count: float, m1: float, r1: float, m2: float, r2: float) -> float:
        return max(0.0, count * (m1 * m2 + correlation * r1 * r2))

    return PlanBounds(
        plan=plan,
        good_upper=term(overlap.n_gg, mg1, rg1, mg2, rg2),
        bad_upper=(
            term(overlap.n_gb, mg1, rg1, mb2, rb2)
            + term(overlap.n_bg, mb1, rb1, mg2, rg2)
            + term(overlap.n_bb, mb1, rb1, mb2, rb2)
        ),
    )


def plan_bounds(
    catalog: StatisticsCatalog,
    plan: JoinPlanSpec,
    correlation: Optional[float] = None,
) -> Optional[PlanBounds]:
    """Guaranteed quality ceilings for *plan*, or None when unavailable.

    Never raises: a catalog that cannot build statistics for the plan's
    operating point simply yields no bound (the caller falls back to the
    unpruned evaluation path, which reports such plans infeasible).
    """
    from ..models.scheme import DEFAULT_FREQUENCY_CORRELATION

    try:
        statistics = catalog.at(
            plan.extractor1.theta, plan.extractor2.theta
        )
        if catalog.per_value:
            return _per_value_bounds(plan, statistics)
        return _aggregate_bounds(
            plan,
            statistics,
            catalog.overlap,
            DEFAULT_FREQUENCY_CORRELATION
            if correlation is None
            else correlation,
        )
    except (ValueError, KeyError, ZeroDivisionError, OverflowError):
        return None
