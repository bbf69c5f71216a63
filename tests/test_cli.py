"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def scale_args():
    # Tiny testbed keeps CLI tests fast; build_testbed memoizes per config.
    return ["--scale", "0.4", "--seed", "11"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nonsense"])

    def test_optimize_requires_taus(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["optimize"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "--tau-good", "50", "--tau-bad", "1000"],
            ["optimize", "--scenario", "star3", "--tau-good", "40",
             "--tau-bad", "120"],
            ["frontier"],
            ["frontier", "--scenario", "star3"],
        ],
    )
    def test_no_prune_flag_is_gone(self, argv, capsys):
        # The bound-pruned descent is the only evaluation path.
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv + ["--no-prune"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCommands:
    def test_characterize(self, capsys, scale_args):
        assert main(["characterize", *scale_args]) == 0
        out = capsys.readouterr().out
        assert "tp(θ)" in out
        assert "EX" in out and "HQ" in out and "MG" in out

    def test_figures_single(self, capsys, scale_args):
        assert main(["figures", "--figure", "9", "--step", "50", *scale_args]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out
        assert "est good" in out

    def test_figure12(self, capsys, scale_args):
        assert main(["figures", "--figure", "12", "--step", "50", *scale_args]) == 0
        assert "est |Dr1|" in capsys.readouterr().out

    def test_table2_limited(self, capsys, scale_args):
        assert main(["table2", "--rows", "2", *scale_args]) == 0
        out = capsys.readouterr().out
        assert "chosen plan" in out

    def test_optimize(self, capsys, scale_args):
        code = main(
            ["optimize", "--tau-good", "20", "--tau-bad", "5000", *scale_args]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Chosen:" in out

    def test_optimize_infeasible(self, capsys, scale_args):
        code = main(
            [
                "optimize",
                "--tau-good",
                "99999999",
                "--tau-bad",
                "0",
                *scale_args,
            ]
        )
        assert code == 1

    def test_frontier(self, capsys, scale_args):
        assert main(["frontier", *scale_args]) == 0
        out = capsys.readouterr().out
        assert "frontier" in out.lower()
        assert "precision" in out

    def test_budget(self, capsys, scale_args):
        code = main(["budget", "--time", "1500", *scale_args])
        assert code == 0
        assert "precision" in capsys.readouterr().out

    def test_report(self, capsys, scale_args, tmp_path):
        output = tmp_path / "report.md"
        code = main(
            ["report", "--output", str(output), "--rows", "2", *scale_args]
        )
        assert code == 0
        text = output.read_text()
        assert "# Experiment report" in text
        assert "Figure 9" in text
        assert "Table II" in text
        assert "frontier" in text.lower()
        assert "calibration" in text.lower()

    def test_adaptive(self, capsys):
        # Runs at the standard test scale (0.6): estimation from a small
        # pilot is too noisy on the tiny 0.4-scale corpus to be a stable
        # test target (see EXPERIMENTS.md, estimation calibration).
        code = main(
            [
                "adaptive",
                "--tau-good",
                "40",
                "--tau-bad",
                "99999",
                "--pilot",
                "100",
                "--scale",
                "0.6",
                "--seed",
                "11",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Chosen:" in out
        assert "Requirement met" in out


class TestMultiwayCommands:
    def test_optimize_scenario_plans_and_executes(self, capsys):
        code = main(
            [
                "optimize",
                "--scenario",
                "star3",
                "--tau-good",
                "40",
                "--tau-bad",
                "120",
                "--execute",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Graph: HQ.Company=EX.Company" in out
        assert "Candidates: 64" in out
        assert "Chosen: PIPE" in out
        assert "Requirement met: True" in out

    def test_optimize_scenario_execute_applies_the_fault_profile(self, capsys):
        code = main(
            [
                "optimize",
                "--scenario",
                "star3",
                "--tau-good",
                "40",
                "--tau-bad",
                "120",
                "--execute",
                "--fault-profile",
                "0.1",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "Requirement met:" in captured.out
        (line,) = [
            line
            for line in captured.err.splitlines()
            if line.startswith("Resilience:")
        ]
        faults = int(line.split()[1])
        assert faults > 0, line

    def test_optimize_scenario_execute_prints_no_binary_split(self, capsys):
        code = main(
            [
                "optimize",
                "--scenario",
                "star3",
                "--tau-good",
                "40",
                "--tau-bad",
                "120",
                "--execute",
            ]
        )
        assert code == 0
        (line,) = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("Actual:")
        ]
        # An n-way join's bad tuples have no good x bad split to print.
        assert line.startswith("Actual:    good=42 bad=36 time=642.0s "), line
        assert "gb=" not in line

    def test_optimize_scenario_reports_pruning(self, capsys):
        # τg far above what weak assignments can ever compose: the tier-A
        # bound prunes them, and the pruning shows in the CLI accounting.
        code = main(
            [
                "optimize",
                "--scenario",
                "chain3",
                "--tau-good",
                "1000",
                "--tau-bad",
                "1000000000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "subplans pruned:" in out

    def test_optimize_scenario_infeasible_exits_nonzero(self, capsys):
        code = main(
            [
                "optimize",
                "--scenario",
                "star3",
                "--tau-good",
                "99999999",
                "--tau-bad",
                "0",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "No multiway plan" in out

    def test_frontier_scenario_sweeps(self, capsys):
        assert main(["frontier", "--scenario", "chain3"]) == 0
        out = capsys.readouterr().out
        assert "Multiway frontier for chain3" in out
        assert "yes" in out
        assert "PIPE" in out or "ILJN" in out


class TestIntrospectionCommands:
    def _served(self, hq_ex_task, tmp_path):
        from repro.service import JoinService
        from repro.service.asyncio_frontend import serve_async

        service = JoinService(
            hq_ex_task,
            str(tmp_path / "store"),
            workers=1,
            pilot_documents=60,
            trace_sample=1,
        )
        server = serve_async(service)
        return service, server

    def test_top_and_tail_against_a_live_service(
        self, capsys, hq_ex_task, tmp_path
    ):
        from repro.service import JoinRequest
        from repro.service.asyncio_frontend import shutdown_async

        service, server = self._served(hq_ex_task, tmp_path)
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            service.execute(JoinRequest(tau_good=40, tau_bad=10**6))
            assert main(["top", "--url", base, "--iterations", "1"]) == 0
            top_out = capsys.readouterr().out
            assert "repro top" in top_out
            assert "admission:" in top_out
            assert "slo (" in top_out
            assert "flight recorder:" in top_out
            assert "#1" in top_out, "the executed request shows in recents"

            assert main(["tail", "--url", base]) == 0
            tail_out = capsys.readouterr().out
            assert "#1" in tail_out
            assert "ok" in tail_out
            assert "priority=normal" in tail_out

            assert (
                main(["tail", "--url", base, "--since-id", "1"]) == 0
            )
            assert capsys.readouterr().out == ""

            assert (
                main(["submit", "--url", base, "--endpoint", "debug/slo"])
                == 0
            )
            slo_out = capsys.readouterr().out
            assert '"burn_rate"' in slo_out
        finally:
            shutdown_async(server)

    def test_tail_unreachable_server_fails_cleanly(self):
        assert main(["tail", "--url", "http://127.0.0.1:9"]) == 1

    def test_loadtest_slo_flag_round_trips(self, capsys, tmp_path):
        import json as _json

        out = tmp_path / "bench.json"
        code = main(
            [
                "loadtest",
                "--requests",
                "4",
                "--concurrency",
                "2",
                "--scale",
                "0.05",
                "--slo",
                "p90=30s,availability=50",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "SLO (p90=30s,availability=50):" in printed
        payload = _json.loads(out.read_text())
        assert payload["slo"]["spec"] == "p90=30s,availability=50"
        assert "priorities" in payload["slo"]

    def test_serve_parser_accepts_multiway_scenario(self):
        args = build_parser().parse_args(
            ["serve", "--multiway-scenario", "star3"]
        )
        assert args.multiway_scenario == "star3"

    def test_serve_parser_accepts_observability_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            [
                "serve",
                "--slo",
                "p99=2s",
                "--flight-capacity",
                "128",
                "--flight-spill",
                "/tmp/spill.jsonl",
                "--trace-sample",
                "5",
            ]
        )
        assert args.slo == "p99=2s"
        assert args.flight_capacity == 128
        assert args.trace_sample == 5

    @pytest.mark.parametrize(
        "flag", ["--trace-dir", "--trace-keep", "--trace-grace"]
    )
    def test_serve_has_no_trace_file_flags(self, flag, capsys):
        # A served request's spans live only on its kept wide event.
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["serve", flag, "1"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
