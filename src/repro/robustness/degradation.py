"""Graceful degradation: mapping downed access paths to excluded plans.

When a circuit breaker declares an access path down
(:class:`~repro.robustness.context.AccessPathUnavailable`), the adaptive
optimizer re-enters its optimize step with every plan that depends on the
path removed from the plan space, then re-picks the fastest feasible
surviving plan — e.g. falling back from AQG to Scan when a search
interface keeps failing.  This module holds the pure mapping from an
access path (``"<database>:fetch"`` / ``"<database>:search"``) to the plan
specs that need it.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from ..core.plan import JoinKind, JoinPlanSpec, RetrievalKind

#: the two access-path operations a database exposes
FETCH = "fetch"
SEARCH = "search"


def access_path(database_name: str, operation: str) -> str:
    """Canonical breaker key of one database operation."""
    return f"{database_name}:{operation}"


def split_path(path: str) -> Tuple[str, str]:
    """Inverse of :func:`access_path`: ``(database_name, operation)``."""
    name, _, operation = path.rpartition(":")
    if operation not in (FETCH, SEARCH) or not name:
        raise ValueError(f"malformed access path {path!r}")
    return name, operation


def plan_uses_path(plan: JoinPlanSpec, side: int, operation: str) -> bool:
    """Whether executing *plan* touches (*side*, *operation*).

    ``fetch`` is used by every strategy that retrieves document bodies on
    that side — which is all of them, whenever the side participates at
    all.  ``search`` is used by AQG retrieval, by OIJN probing its inner
    side, and by ZGJN on both sides.
    """
    if operation == FETCH:
        # Every join algorithm fetches documents on both sides.
        return True
    if operation != SEARCH:
        raise ValueError(f"unknown access-path operation {operation!r}")
    if plan.join is JoinKind.ZGJN:
        return True
    if plan.join is JoinKind.OIJN:
        if side != plan.outer:
            return True  # inner side is probed via search
        return plan.outer_retrieval is RetrievalKind.AQG
    # IDJN: search is only used by an AQG strategy on that side.
    kind = plan.retrieval1 if side == 1 else plan.retrieval2
    return kind is RetrievalKind.AQG


def surviving_plans(
    plans: Iterable[JoinPlanSpec], side: int, operation: str
) -> List[JoinPlanSpec]:
    """The plans that stay executable with (*side*, *operation*) down."""
    return [p for p in plans if not plan_uses_path(p, side, operation)]


def side_of_path(path: str, database_names: Sequence[str]) -> int:
    """Which join side (1 to n, in *database_names* order) *path*
    belongs to, by its database name."""
    name, _ = split_path(path)
    for side, database_name in enumerate(database_names, start=1):
        if name == database_name:
            return side
    raise ValueError(f"access path {path!r} matches no joined database")


def plans_without(
    plans: Iterable[JoinPlanSpec],
    paths: Iterable[str],
    database_names: Sequence[str],
) -> List[JoinPlanSpec]:
    """The plans that stay executable with every access path in *paths*
    down, over the databases named *database_names* (side order)."""
    survivors = list(plans)
    for path in paths:
        _, operation = split_path(path)
        survivors = surviving_plans(
            survivors, side_of_path(path, database_names), operation
        )
    return survivors
