"""Runtime invariant enforcement for models, optimizer, executors, and store.

The analytical models, the plan-evaluation engine, and the estimator all
rest on invariants that nothing enforced at runtime: probabilities stay in
``[0, 1]``, compositions are non-negative, effort curves are monotone,
document counts are conserved, class mixes live on the simplex.  This
module makes those invariants *checkable in production code paths* without
taxing the default hot path:

* the module-level **active checker** defaults to a disabled instance;
  every instrumented call site guards with ``if checker.enabled:`` so an
  unchecked run performs one attribute test per site and is byte-identical
  to the pre-instrumentation code;
* ``--selfcheck`` (any CLI command) or ``REPRO_SELFCHECK=1`` installs an
  enabled checker that raises :class:`InvariantViolation` on the first
  broken invariant;
* the differential harness installs a *collecting* checker
  (``raise_on_violation=False``) and reports every violation in
  ``validation_report.json``.

This module deliberately imports nothing from the rest of the package so
any layer (models, optimizer, joins, estimation, service) can depend on it
without cycles.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: environment variable that enables the layer process-wide ("1", "true", ...)
ENV_FLAG = "REPRO_SELFCHECK"

#: absolute slack for float comparisons; invariants are mathematical
#: identities up to rounding of vectorized vs scalar evaluation order (the
#: scalar references live in repro.validation.differential)
ATOL = 1e-9


class InvariantViolation(AssertionError):
    """A runtime invariant did not hold."""


@dataclass(frozen=True)
class Violation:
    """One recorded invariant violation."""

    where: str
    message: str

    def to_dict(self) -> Dict[str, str]:
        return {"where": self.where, "message": self.message}


class InvariantChecker:
    """Records (and optionally raises on) broken invariants.

    ``enabled=False`` instances are pure null objects: instrumented call
    sites test :attr:`enabled` and skip every check, so the disabled
    checker costs one attribute read and changes no numerics.
    """

    def __init__(
        self, enabled: bool = True, raise_on_violation: bool = True
    ) -> None:
        self.enabled = enabled
        self.raise_on_violation = raise_on_violation
        self.violations: List[Violation] = []
        self.checks_run = 0
        #: fit-input fingerprint -> best log-likelihood seen, for the
        #: refit-monotonicity invariant (same data can never fit worse)
        self._refit_likelihoods: Dict[str, float] = {}

    # -- core -----------------------------------------------------------------

    def violation(self, where: str, message: str) -> None:
        """Record one broken invariant; raise when configured to."""
        entry = Violation(where=where, message=message)
        self.violations.append(entry)
        if self.raise_on_violation:
            raise InvariantViolation(f"{where}: {message}")

    def check(self, condition: bool, where: str, message: str) -> None:
        """Generic invariant: *condition* must hold."""
        self.checks_run += 1
        if not condition:
            self.violation(where, message)

    def reset(self) -> None:
        self.violations.clear()
        self.checks_run = 0
        self._refit_likelihoods.clear()

    # -- scalar helpers -------------------------------------------------------

    def check_finite(self, where: str, name: str, value: float) -> None:
        self.check(
            math.isfinite(value), where, f"{name} is not finite: {value!r}"
        )

    def check_unit(
        self, where: str, name: str, value: float, slack: float = ATOL
    ) -> None:
        """*value* must be a probability/fraction in ``[0, 1]``."""
        self.check(
            math.isfinite(value) and -slack <= value <= 1.0 + slack,
            where,
            f"{name} must lie in [0, 1], got {value!r}",
        )

    def check_non_negative(
        self, where: str, name: str, value: float, slack: float = ATOL
    ) -> None:
        self.check(
            math.isfinite(value) and value >= -slack,
            where,
            f"{name} must be non-negative, got {value!r}",
        )

    def check_monotone(
        self,
        where: str,
        name: str,
        previous: float,
        current: float,
        slack: float = 0.0,
    ) -> None:
        """*current* must not regress below *previous* (e.g. generations)."""
        self.check(
            current >= previous - slack,
            where,
            f"{name} regressed: {previous!r} -> {current!r}",
        )

    # -- model kernels --------------------------------------------------------

    def check_composition(
        self,
        where: str,
        good: float,
        good_bad: float,
        bad_good: float,
        bad_bad: float,
    ) -> None:
        """Expected join-class counts are non-negative and finite."""
        for name, value in (
            ("good", good),
            ("good_bad", good_bad),
            ("bad_good", bad_good),
            ("bad_bad", bad_bad),
        ):
            self.check_non_negative(where, name, value, slack=1e-6)

    def check_coverages(self, where: str, *rhos: float) -> None:
        for i, rho in enumerate(rhos):
            self.check_unit(where, f"rho[{i}]", rho, slack=1e-6)

    # -- plan evaluation engine -----------------------------------------------

    def check_curve(
        self,
        where: str,
        n_good: Sequence[float],
        n_bad: Sequence[float],
        time: Sequence[float],
    ) -> None:
        """Effort curves are non-decreasing in effort (the model contract)."""
        for name, values in (("n_good", n_good), ("n_bad", n_bad), ("time", time)):
            previous = None
            for value in values:
                self.check_finite(where, name, float(value))
                if previous is not None:
                    scale = 1e-9 * (1.0 + abs(previous))
                    self.check(
                        float(value) >= previous - scale,
                        where,
                        f"{name} decreases along the effort grid "
                        f"({previous!r} -> {value!r})",
                    )
                previous = float(value)

    # -- executors ------------------------------------------------------------

    def check_conservation(
        self,
        where: str,
        documents_processed: int,
        productive: int,
        unproductive: int,
        yields_total: int,
    ) -> None:
        """Processed documents split exactly into productive + unproductive."""
        self.check(
            min(documents_processed, productive, unproductive) >= 0,
            where,
            "negative document count in the observation collector",
        )
        self.check(
            productive + unproductive == documents_processed,
            where,
            f"document conservation broken: {productive} productive + "
            f"{unproductive} unproductive != {documents_processed} processed",
        )
        self.check(
            yields_total == productive,
            where,
            f"yield histogram covers {yields_total} documents but "
            f"{productive} were productive",
        )

    # -- MLE estimator --------------------------------------------------------

    def check_estimate(
        self, where: str, parameters: Any, database_size: int
    ) -> None:
        """An estimate is finite, non-negative, and simplex-consistent."""
        for name in ("n_good_values", "n_bad_values", "n_good_docs", "n_bad_docs"):
            self.check_non_negative(
                where, name, float(getattr(parameters, name)), slack=1e-6
            )
        self.check_unit(
            where,
            "good_occurrence_share",
            float(parameters.good_occurrence_share),
            slack=1e-6,
        )
        self.check_finite(
            where, "log_likelihood", float(parameters.log_likelihood)
        )
        for name in ("beta_good", "beta_bad"):
            self.check_finite(where, name, float(getattr(parameters, name)))
        self.check(
            parameters.k_max_good >= 1 and parameters.k_max_bad >= 1,
            where,
            "power-law support caps must be at least 1",
        )
        docs = float(parameters.n_good_docs) + float(parameters.n_bad_docs)
        self.check(
            docs <= database_size + 0.5 + 1e-6 * database_size,
            where,
            f"estimated document classes ({docs:.1f}) exceed the database "
            f"size ({database_size})",
        )

    def check_refit(
        self, where: str, key: str, log_likelihood: float
    ) -> None:
        """Refitting the same observations can never fit them worse.

        *key* fingerprints the fit inputs (observations + context + grid);
        across EM-style refit rounds the data grows — and the fingerprint
        changes — so likelihoods are compared only between fits of
        identical inputs, where the grid search is deterministic and the
        achieved likelihood must not decrease.
        """
        self.check_finite(where, "log_likelihood", log_likelihood)
        previous = self._refit_likelihoods.get(key)
        if previous is not None:
            self.check(
                log_likelihood >= previous - 1e-6 * (1.0 + abs(previous)),
                where,
                f"refit of identical observations ({key[:16]}…) reached "
                f"log-likelihood {log_likelihood!r}, below the earlier "
                f"{previous!r}",
            )
        if previous is None or log_likelihood > previous:
            self._refit_likelihoods[key] = log_likelihood

    # -- reporting ------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        return {
            "enabled": self.enabled,
            "checks_run": self.checks_run,
            "violations": [v.to_dict() for v in self.violations],
        }


def _env_enabled() -> bool:
    return os.environ.get(ENV_FLAG, "").strip().lower() not in (
        "",
        "0",
        "false",
        "off",
        "no",
    )


#: the process-wide checker consulted by every instrumented call site
_ACTIVE: InvariantChecker = InvariantChecker(
    enabled=_env_enabled(), raise_on_violation=True
)


def active_checker() -> InvariantChecker:
    """The checker instrumented call sites consult (possibly disabled)."""
    return _ACTIVE


def install_checker(checker: InvariantChecker) -> InvariantChecker:
    """Swap the active checker; returns the previous one (for restoring)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = checker
    return previous


def enable_selfcheck(raise_on_violation: bool = True) -> InvariantChecker:
    """Install and return an enabled checker (the ``--selfcheck`` path)."""
    return_value = InvariantChecker(
        enabled=True, raise_on_violation=raise_on_violation
    )
    install_checker(return_value)
    return return_value


def disable_selfcheck() -> InvariantChecker:
    """Install and return a disabled (null) checker."""
    return_value = InvariantChecker(enabled=False)
    install_checker(return_value)
    return return_value


__all__ = [
    "ATOL",
    "ENV_FLAG",
    "InvariantChecker",
    "InvariantViolation",
    "Violation",
    "active_checker",
    "disable_selfcheck",
    "enable_selfcheck",
    "install_checker",
]
