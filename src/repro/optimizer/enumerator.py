"""Join-plan space enumeration.

Generates the candidate plan space of Section VII: per relation, each knob
setting is combined with each document retrieval strategy, and the
single-relation configurations are composed under the three join
algorithms (IDJN uses explicit strategies on both sides; OIJN an explicit
strategy on its outer side only; ZGJN none).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..core.plan import (
    ExtractorConfig,
    JoinPlanSpec,
    RetrievalKind,
    idjn_plan,
    oijn_plan,
    zgjn_plan,
)

EXPLICIT_KINDS: Tuple[RetrievalKind, ...] = (
    RetrievalKind.SCAN,
    RetrievalKind.FILTERED_SCAN,
    RetrievalKind.AQG,
)


def enumerate_plans(
    extractor1: str,
    extractor2: str,
    thetas1: Sequence[float] = (0.4, 0.8),
    thetas2: Sequence[float] = (0.4, 0.8),
) -> List[JoinPlanSpec]:
    """All candidate join execution plans over the configuration space.

    Per (θ1, θ2) pair: the 9 IDJN plans over every pair of explicit
    retrieval strategies, the 6 OIJN plans (either side outer, with each
    strategy on it), and the one ZGJN plan.
    """
    plans: List[JoinPlanSpec] = []
    configs1 = [ExtractorConfig(extractor1, theta) for theta in thetas1]
    configs2 = [ExtractorConfig(extractor2, theta) for theta in thetas2]
    for e1 in configs1:
        for e2 in configs2:
            for x1 in EXPLICIT_KINDS:
                for x2 in EXPLICIT_KINDS:
                    plans.append(idjn_plan(e1, e2, x1, x2))
            for outer in (1, 2):
                for kind in EXPLICIT_KINDS:
                    plans.append(
                        oijn_plan(e1, e2, outer_retrieval=kind, outer=outer)
                    )
            plans.append(zgjn_plan(e1, e2))
    return plans
