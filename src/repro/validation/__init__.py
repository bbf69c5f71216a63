"""Validation: runtime invariants, differential checks, and JSON fuzzing.

Three layers of self-checking on top of the reproduction:

* :mod:`repro.validation.invariants` — an :class:`InvariantChecker`
  threaded through the model kernels, the plan-evaluation engine, the
  executors, the MLE estimator, and the statistics store.  Off by
  default (null object: one attribute test per call site, results
  byte-identical to an unchecked run); enabled with ``--selfcheck`` or
  ``REPRO_SELFCHECK=1``.
* :mod:`repro.validation.differential` — model-vs-simulation and
  model-vs-executor cross-checks over a seeded grid, with tolerances
  derived from the Monte-Carlo sampling distribution (CLT bands and
  empirical quantile bands), emitting ``validation_report.json``.
* :mod:`repro.validation.fuzz` — a deterministic mutation fuzzer for the
  JSON surfaces (checkpoint snapshots, statistics-store shard snapshots
  and journals, HTTP request bodies) asserting that malformed input
  degrades cleanly instead of crashing.

Only the invariant layer is imported here; the differential harness and
the fuzzer pull in models and executors, so they are imported explicitly
(``repro.validation.differential`` / ``repro.validation.fuzz``) by the
CLI and the tests that use them.
"""

from .invariants import (
    ENV_FLAG,
    InvariantChecker,
    InvariantViolation,
    Violation,
    active_checker,
    disable_selfcheck,
    enable_selfcheck,
    install_checker,
)

__all__ = [
    "ENV_FLAG",
    "InvariantChecker",
    "InvariantViolation",
    "Violation",
    "active_checker",
    "disable_selfcheck",
    "enable_selfcheck",
    "install_checker",
]
