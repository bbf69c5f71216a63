"""N-ary joins over an acyclic join graph — the paper's future work.

Generalizes the binary machinery: one incremental n-ary join state with
exact delta-rule composition maintenance for any join tree (stars and
chains included), and a ripple-style n-way IDJN executor with a
time-interleaved variant.  The analytical model lives in
:mod:`repro.planner.model`.
"""

from .executor import (
    ActualMultiQuality,
    InterleavedNaryJoin,
    MultiwayExecution,
    MultiwayIndependentJoin,
    MultiwaySide,
)
from .state import MultiJoinComposition, TreeEdge, TreeJoinState, TreeJoinTuple

__all__ = [
    "ActualMultiQuality",
    "InterleavedNaryJoin",
    "MultiJoinComposition",
    "MultiwayExecution",
    "MultiwayIndependentJoin",
    "MultiwaySide",
    "TreeEdge",
    "TreeJoinState",
    "TreeJoinTuple",
]
