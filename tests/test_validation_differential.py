"""Tests for the differential validation harness.

The harness's own machinery (band math, report structure, pass/fail
aggregation) is pinned here, plus an end-to-end run on the small seeded
testbed asserting the repo's models, simulator, and executors agree
within the derived tolerances — the PR's central acceptance criterion.
"""

import json

import pytest

from repro.experiments.testbed import TestbedConfig, build_testbed
from repro.validation.differential import (
    ABS_SLACK,
    CheckResult,
    ValidationReport,
    _band_check,
    check_aqg_reach_differential,
    check_kernel_differential,
    check_mle_fit_differential,
    check_model_vs_simulation,
    check_multiway_differential,
    check_pruning_differential,
    run_validation,
)
from repro.validation.invariants import active_checker

SCALE = 0.4
SEED = 11


@pytest.fixture(scope="module")
def small_task():
    # Same config as the CLI tests — build_testbed memoizes per config.
    return build_testbed(TestbedConfig(seed=SEED, scale=SCALE)).task()


class TestBandCheck:
    def test_inside_band_passes(self):
        report = ValidationReport()
        result = _band_check(report, "x", observed=10.0, expected=10.5, band=1.0)
        assert result.ok and report.checks == [result]

    def test_outside_band_fails(self):
        report = ValidationReport()
        result = _band_check(report, "x", observed=10.0, expected=12.0, band=1.0)
        assert not result.ok
        assert report.failures == [result]

    def test_abs_slack_absorbs_rounding_only(self):
        report = ValidationReport()
        assert _band_check(
            report, "x", observed=1.0 + ABS_SLACK / 2, expected=1.0, band=0.0
        ).ok
        assert not _band_check(
            report, "x", observed=1.0 + 10 * ABS_SLACK, expected=1.0, band=0.0
        ).ok

    def test_non_finite_observed_fails(self):
        report = ValidationReport()
        assert not _band_check(
            report, "x", observed=float("nan"), expected=0.0, band=1e9
        ).ok
        assert not _band_check(
            report, "x", observed=float("inf"), expected=0.0, band=1e9
        ).ok


class TestValidationReport:
    def test_passed_requires_no_failures_and_no_violations(self):
        report = ValidationReport()
        report.add(CheckResult("a", True, 1.0, 1.0, 0.0))
        assert report.passed
        report.invariants["violations"] = [{"where": "w", "message": "m"}]
        assert not report.passed

    def test_to_dict_and_write_round_trip(self, tmp_path):
        report = ValidationReport(config={"scale": 0.4})
        report.add(CheckResult("a", True, 1.0, 1.0, 0.0, detail="d"))
        path = report.write(str(tmp_path / "sub" / "report.json"))
        payload = json.loads((tmp_path / "sub" / "report.json").read_text())
        assert payload["passed"] is True
        assert payload["checks_total"] == 1
        assert payload["checks"][0]["name"] == "a"
        assert payload["config"] == {"scale": 0.4}
        assert path.endswith("report.json")


class TestDifferentialFamilies:
    """Each family individually, on the small testbed, must pass."""

    def test_model_vs_simulation_within_clt_bands(self, small_task):
        report = ValidationReport()
        check_model_vs_simulation(
            report, small_task, n_samples=600, seed=0
        )
        assert report.checks and not report.failures

    def test_kernel_differential_exact(self, small_task):
        report = ValidationReport()
        check_kernel_differential(report, small_task)
        assert report.checks and not report.failures

    def test_aqg_reach_differential_exact(self, small_task):
        report = ValidationReport()
        check_aqg_reach_differential(report, small_task)
        assert report.checks and not report.failures

    def test_mle_fit_differential_exact(self):
        report = ValidationReport()
        check_mle_fit_differential(report, seed=3)
        assert len(report.checks) == 12 and not report.failures

    def test_pruning_differential_exact(self, small_task):
        report = ValidationReport()
        check_pruning_differential(report, small_task)
        assert report.checks and not report.failures
        irrelevance = [
            c for c in report.checks if c.name.endswith("pruned-irrelevance")
        ]
        assert len(irrelevance) == 1 and irrelevance[0].ok


class TestMultiwayDifferential:
    """The n-ary planner's family over both seeded scenarios."""

    @pytest.fixture(scope="class")
    def multiway_report(self):
        report = ValidationReport()
        check_multiway_differential(report, n_samples=300, seed=0)
        return report

    def test_family_passes(self, multiway_report):
        assert multiway_report.checks and not multiway_report.failures

    def test_both_scenarios_and_all_subfamilies_covered(
        self, multiway_report
    ):
        names = [c.name for c in multiway_report.checks]
        assert all(n.startswith("multiway-diff/") for n in names)
        for scenario in ("star3", "chain3"):
            for family in (
                "kernel-vs-reference",
                "chain-vs-tree",
                "dp-vs-brute",
                "pruned-irrelevance",
                "model-vs-sim",
                "executor-vs-sim",
                "executor-vs-realized-dp",
            ):
                assert any(
                    scenario in n and family in n for n in names
                ), (scenario, family)

    def test_kernel_matches_reference_bit_for_bit(self, multiway_report):
        checks = [
            c for c in multiway_report.checks if "kernel-vs-reference" in c.name
        ]
        assert sorted(c.name for c in checks) == [
            f"multiway-diff/{scenario}/kernel-vs-reference/{channel}"
            for scenario in ("chain3", "star3")
            for channel in ("good", "total")
        ]
        for check in checks:
            assert check.ok and check.observed == check.expected

    def test_executor_identity_is_exact(self, multiway_report):
        identities = [
            c
            for c in multiway_report.checks
            if "executor-vs-realized-dp" in c.name
        ]
        assert len(identities) == 6
        for check in identities:
            assert check.band == 0.0
            assert check.observed == check.expected


class TestRunValidation:
    def test_end_to_end_passes_on_seeded_grid(self, tmp_path):
        out = tmp_path / "validation_report.json"
        report = run_validation(
            scale=SCALE,
            seed=SEED,
            n_samples=400,
            out_path=str(out),
            fuzz=False,
        )
        assert report.passed, [c.name for c in report.failures] + report.invariants.get("violations", [])
        assert report.invariants["checks_run"] > 0
        assert report.invariants["violations"] == []
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert payload["checks_failed"] == 0

    def test_restores_previous_checker(self):
        before = active_checker()
        run_validation(scale=SCALE, seed=SEED, n_samples=50, fuzz=False,
                       tasks=(), multiway=False)
        assert active_checker() is before
