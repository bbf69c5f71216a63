"""N-ary joins over an acyclic join graph — the paper's future work.

Generalizes the binary machinery: a ripple-style n-way IDJN executor with
a time-interleaved variant, both on the binary executors' skeleton
(:class:`~repro.joins.base.JoinAlgorithm`) and the one join state
(:class:`~repro.core.join_state.TreeJoinState`, re-exported here), which
maintains the composition of any join tree (stars and chains included)
by the exact delta rule.  The analytical model lives in
:mod:`repro.planner.model`.
"""

from ..core.join_state import TreeEdge, TreeJoinState, TreeJoinTuple
from ..core.relation import MultiJoinComposition
from .executor import (
    InterleavedNaryJoin,
    MultiwayIndependentJoin,
    MultiwaySide,
)

__all__ = [
    "InterleavedNaryJoin",
    "MultiJoinComposition",
    "MultiwayIndependentJoin",
    "MultiwaySide",
    "TreeEdge",
    "TreeJoinState",
    "TreeJoinTuple",
]
