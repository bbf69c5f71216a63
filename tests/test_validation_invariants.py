"""Tests for the runtime invariant layer (`repro.validation.invariants`).

Covers the checker's null-object contract (disabled → no behavioural
change), the raise/collect modes, each domain-specific check, and the
install/restore protocol the differential harness relies on.
"""

import math

import pytest

from repro.joins import Budgets, IndependentJoin, JoinInputs
from repro.retrieval import ScanRetriever
from repro.validation.invariants import (
    InvariantChecker,
    InvariantViolation,
    active_checker,
    disable_selfcheck,
    enable_selfcheck,
    install_checker,
)


@pytest.fixture(autouse=True)
def _restore_active_checker():
    previous = active_checker()
    yield
    install_checker(previous)


class TestCheckerModes:
    def test_default_active_checker_disabled(self):
        # The suite does not set REPRO_SELFCHECK, so the process-wide
        # checker must be a null object.
        assert active_checker().enabled is False

    def test_raising_mode(self):
        checker = InvariantChecker(enabled=True, raise_on_violation=True)
        with pytest.raises(InvariantViolation, match="broke"):
            checker.check(False, "here", "broke")
        assert len(checker.violations) == 1

    def test_collecting_mode(self):
        checker = InvariantChecker(enabled=True, raise_on_violation=False)
        checker.check(False, "a", "first")
        checker.check(True, "a", "fine")
        checker.check(False, "b", "second")
        assert checker.checks_run == 3
        assert [v.message for v in checker.violations] == ["first", "second"]

    def test_install_returns_previous(self):
        original = active_checker()
        mine = InvariantChecker(enabled=True, raise_on_violation=False)
        previous = install_checker(mine)
        assert previous is original
        assert active_checker() is mine

    def test_enable_and_disable_selfcheck(self):
        checker = enable_selfcheck()
        assert active_checker() is checker and checker.enabled
        null = disable_selfcheck()
        assert active_checker() is null and not null.enabled

    def test_reset_clears_state(self):
        checker = InvariantChecker(enabled=True, raise_on_violation=False)
        checker.check(False, "x", "boom")
        checker.check_refit("x", "key", -10.0)
        checker.reset()
        assert checker.checks_run == 0
        assert checker.violations == []
        # After reset, a worse likelihood for the same key passes again.
        checker.check_refit("x", "key", -20.0)
        assert checker.violations == []

    def test_summary_is_json_ready(self):
        checker = InvariantChecker(enabled=True, raise_on_violation=False)
        checker.check(False, "w", "m")
        summary = checker.summary()
        assert summary["enabled"] is True
        assert summary["checks_run"] == 1
        assert summary["violations"] == [{"where": "w", "message": "m"}]


class TestScalarChecks:
    @pytest.fixture
    def checker(self):
        return InvariantChecker(enabled=True, raise_on_violation=False)

    def test_check_finite(self, checker):
        checker.check_finite("w", "x", 1.0)
        checker.check_finite("w", "x", math.inf)
        checker.check_finite("w", "x", math.nan)
        assert len(checker.violations) == 2

    def test_check_unit(self, checker):
        for value in (0.0, 0.5, 1.0, 1.0 + 1e-12):
            checker.check_unit("w", "p", value)
        assert checker.violations == []
        checker.check_unit("w", "p", 1.01)
        checker.check_unit("w", "p", -0.01)
        assert len(checker.violations) == 2

    def test_check_non_negative(self, checker):
        checker.check_non_negative("w", "n", 0.0)
        checker.check_non_negative("w", "n", -1e-12)
        assert checker.violations == []
        checker.check_non_negative("w", "n", -0.5)
        assert len(checker.violations) == 1

    def test_check_composition_and_coverages(self, checker):
        checker.check_composition("w", 1.0, 0.0, 2.5, 0.0)
        checker.check_coverages("w", 0.0, 0.3, 1.0)
        assert checker.violations == []
        checker.check_composition("w", -1.0, 0.0, 0.0, 0.0)
        checker.check_coverages("w", 1.2)
        assert len(checker.violations) == 2


class TestStructuralChecks:
    @pytest.fixture
    def checker(self):
        return InvariantChecker(enabled=True, raise_on_violation=False)

    def test_check_curve_accepts_monotone(self, checker):
        checker.check_curve("w", [0, 1, 2], [0, 0, 1], [0.0, 0.5, 0.5])
        assert checker.violations == []

    def test_check_curve_rejects_decrease(self, checker):
        checker.check_curve("w", [0, 2, 1], [0, 0, 0], [0, 0, 0])
        assert any("decreases" in v.message for v in checker.violations)

    def test_check_conservation(self, checker):
        checker.check_conservation("w", 10, 6, 4, 6)
        assert checker.violations == []
        checker.check_conservation("w", 10, 6, 5, 6)
        checker.check_conservation("w", 10, 6, 4, 7)
        assert len(checker.violations) == 2

    def test_check_refit_monotone(self, checker):
        checker.check_refit("w", "fit-a", -100.0)
        checker.check_refit("w", "fit-a", -99.0)
        assert checker.violations == []
        checker.check_refit("w", "fit-a", -120.0)
        assert any("below the earlier" in v.message for v in checker.violations)

    def test_check_refit_distinct_keys_independent(self, checker):
        checker.check_refit("w", "fit-a", -10.0)
        checker.check_refit("w", "fit-b", -999.0)
        assert checker.violations == []


class TestSelfcheckTransparency:
    """With selfcheck enabled, instrumented paths change no numerics."""

    def _run(self, db1, db2, ex1, ex2):
        inputs = JoinInputs(
            database1=db1, database2=db2, extractor1=ex1, extractor2=ex2
        )
        executor = IndependentJoin(
            inputs, ScanRetriever(db1), ScanRetriever(db2)
        )
        result = executor.run(
            budgets=Budgets(max_documents1=120, max_documents2=120)
        )
        return (
            sorted(t.values for t in result.state.relation(1)),
            sorted(t.values for t in result.state.relation(2)),
            result.observations.side(1).documents_processed,
            result.observations.side(2).documents_processed,
        )

    def test_execution_identical_with_selfcheck(
        self, mini_db1, mini_db2, mini_extractor1, mini_extractor2
    ):
        disable_selfcheck()
        baseline = self._run(mini_db1, mini_db2, mini_extractor1, mini_extractor2)
        enable_selfcheck()
        checked = self._run(mini_db1, mini_db2, mini_extractor1, mini_extractor2)
        assert checked == baseline

    def test_selfcheck_run_executes_invariant_checks(
        self, mini_db1, mini_db2, mini_extractor1, mini_extractor2
    ):
        checker = enable_selfcheck(raise_on_violation=False)
        self._run(mini_db1, mini_db2, mini_extractor1, mini_extractor2)
        assert checker.checks_run > 0
        assert checker.violations == []
