"""Tests for the command-line interface (using only fast experiments)."""

import pytest

import repro.experiments.cli as cli
from repro.experiments.ablations import plan_compaction
from repro.experiments.pool import ExperimentPool, RunSpec
from repro.experiments.runner import ExperimentRegistry, Plan
from repro.experiments.tables import plan_table4


def _crashing_plan():
    spec = RunSpec("tests.obs_helpers:crashing_point", {}, "crash/point")
    return Plan([spec], lambda results: pytest.fail("rendered a crashed plan"))


def _only(monkeypatch, **planners):
    """Point the CLI at a registry holding just ``planners``."""
    registry = ExperimentRegistry()
    for name, planner in planners.items():
        registry.register(name, planner)
    monkeypatch.setattr(cli, "registry", registry)


class TestCli:
    def test_list(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out and "table4" in out

    def test_default_is_list(self, capsys):
        assert cli.main([]) == 0
        assert "fig5" in capsys.readouterr().out

    def test_run_single_experiment(self, capsys):
        assert cli.main(["table4"]) == 0
        out = capsys.readouterr().out
        assert "32.8" in out
        assert "[PASS]" in out

    def test_unknown_experiment(self, capsys):
        assert cli.main(["fig99"]) == 2  # usage error, not a traceback
        assert (
            "unknown experiment 'fig99'; run 'leviathan-repro list'"
            in capsys.readouterr().err
        )

    def test_bench_is_not_a_subcommand(self, capsys):
        # Host-time measurement lives in perfbench/, not in the CLI.
        assert cli.main(["bench"]) == 2
        assert "unknown experiment 'bench'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            pytest.param("--run-retries", "0", "--run-retries must be >= 1", id="0"),
            pytest.param("--run-retries", "-1", "--run-retries must be >= 1", id="-1"),
            pytest.param("--jobs", "0", "--jobs must be >= 1", id="jobs=0"),
            pytest.param("--jobs", "-3", "--jobs must be >= 1", id="jobs=-3"),
            pytest.param(
                "--flight-recorder", "-5", "--flight-recorder must be >= 1",
                id="flight-recorder=-5",
            ),
            pytest.param(
                "--flight-recorder", "0", "--flight-recorder must be >= 1",
                id="flight-recorder=0",
            ),
            pytest.param(
                "--run-timeout", "-1", "--run-timeout must be > 0", id="run-timeout=-1"
            ),
            pytest.param(
                "--run-timeout", "0", "--run-timeout must be > 0", id="run-timeout=0"
            ),
        ],
    )
    def test_bad_run_retries_is_a_usage_error(self, flag, value, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["table4", flag, value])
        assert excinfo.value.code == 2  # argparse usage error, not a traceback
        assert message in capsys.readouterr().err

    def test_markdown_output(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert cli.main(["table1", "--markdown", str(target)]) == 0
        text = target.read_text()
        assert text.startswith("# Reproduced tables and figures")
        assert "| paradigm |" in text
        assert "leviathan-repro table1" in text

    def test_failed_expectations_exit_nonzero(self, monkeypatch, capsys):
        from repro.experiments.runner import Experiment

        def failing(results):
            exp = Experiment(name="doomed", paper_reference="-")
            exp.expect("impossible", "greater", 0.0, 1.0)
            return exp

        _only(monkeypatch, **{"doomed-test": lambda: Plan([], failing)})
        assert cli.main(["doomed-test"]) == 1
        assert cli.main(["doomed-test", "--no-check"]) == 0

    def test_one_pool_submission_per_invocation(self, tmp_path, monkeypatch, capsys):
        calls = []
        real_run = ExperimentPool.run

        def recording_run(pool, specs):
            calls.append([spec.label for spec in specs])
            return real_run(pool, specs)

        monkeypatch.setattr(ExperimentPool, "run", recording_run)
        # Two experiments with the same specs, plus an analytic table.
        _only(monkeypatch, a=plan_compaction, b=plan_compaction, t=plan_table4)
        assert cli.main(["all", "--cache-dir", str(tmp_path / "cache")]) == 0
        assert len(calls) == 1
        assert calls[0] == ["compaction/on", "compaction/off"] * 2
        out = capsys.readouterr().out
        # The shared specs execute once; both experiments still render.
        assert "pool: 2 executed, 0 cached" in out
        assert out.count("== DRAM object compaction") == 2
        assert "Hardware overhead per LLC bank" in out

    def test_interrupted_sweep_exits_130(self, tmp_path, monkeypatch, capsys):
        from repro.experiments.pool import SweepInterrupted

        def interrupted(pool, specs):
            raise SweepInterrupted("SIGINT", 0, len(specs))

        monkeypatch.setattr(ExperimentPool, "run", interrupted)
        assert cli.main(["ablation-compaction", "--cache-dir", str(tmp_path)]) == 130
        assert "--resume" in capsys.readouterr().err

    def test_speedup_chart_printed(self, capsys):
        assert cli.main(["ablation-compaction"]) == 0
        # compaction rows carry no speedup -> no chart, still fine
        out = capsys.readouterr().out
        assert "fragmentation_pct" in out


class TestTelemetryCli:
    def test_telemetry_out_captures_artifacts(self, tmp_path, capsys):
        from repro.sim.telemetry import load_and_validate
        from repro.sim.telemetry.session import active_session

        outdir = tmp_path / "telem"
        assert cli.main(["ablation-mc-cache", "--no-check",
                         "--telemetry-out", str(outdir)]) == 0
        assert "telemetry:" in capsys.readouterr().out
        # The session must not leak past the run.
        assert active_session() is None
        # One artifact directory per simulation run, machine dirs inside.
        runs = sorted((outdir / "runs").glob("*/machine-*"))
        assert runs
        for run in runs:
            assert (run / "metrics.json").exists()
            assert (run / "metrics.prom").exists()
            _trace, problems = load_and_validate(str(run / "trace.json"))
            assert problems == []

    def test_telemetry_report_command(self, tmp_path, capsys):
        outdir = tmp_path / "telem"
        assert cli.main(["ablation-mc-cache", "--no-check",
                         "--telemetry-out", str(outdir)]) == 0
        capsys.readouterr()
        assert cli.main(["telemetry", str(outdir)]) == 0
        out = capsys.readouterr().out
        assert "trace: VALID" in out
        assert "ui.perfetto.dev" in out

    def test_telemetry_command_requires_dir(self, capsys):
        assert cli.main(["telemetry"]) == 2

    def test_telemetry_report_empty_dir(self, tmp_path, capsys):
        assert cli.main(["telemetry", str(tmp_path)]) == 1
        assert "no telemetry runs" in capsys.readouterr().out


class TestFaultsCli:
    def test_faults_flag_arms_a_plan(self, tmp_path, capsys):
        import json

        from repro.sim.faults import active_session

        outdir = tmp_path / "chaos"
        assert (
            cli.main(
                [
                    "ablation-mc-cache",
                    "--no-check",
                    "--faults",
                    "noc-delay:0.05@20; seed:3",
                    "--telemetry-out",
                    str(outdir),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "faults:" in out
        # The session must not leak past the run.
        assert active_session() is None
        report_paths = sorted(outdir.glob("runs/*/fault_report.json"))
        assert report_paths
        for report_path in report_paths:
            report = json.loads(report_path.read_text())
            assert report["seed"] == 3
            assert report["machines"]

    def test_faults_without_telemetry_dir(self, capsys):
        assert (
            cli.main(
                ["ablation-mc-cache", "--no-check", "--faults", "noc-delay:0.01@10"]
            )
            == 0
        )
        assert "faults:" in capsys.readouterr().out

    def test_bad_fault_spec_rejected(self, capsys):
        for spec, message in [
            ("meteor:1", "--faults: unknown fault clause 'meteor:1'"),
            ("crash:x@2000", "--faults: bad fault clause 'crash:x@2000'"),
        ]:
            assert cli.main(["ablation-mc-cache", "--no-check", "--faults", spec]) == 2
            assert capsys.readouterr().err.startswith(message)

    def test_crashing_workload_exits_nonzero(self, tmp_path, monkeypatch, capsys):
        import json

        _only(monkeypatch, **{"crash-test": _crashing_plan, "table4": plan_table4})
        outdir = tmp_path / "crash"
        assert (
            cli.main(
                ["all", "--cache-dir", str(tmp_path / "cache"),
                 "--telemetry-out", str(outdir)]
            )
            == 1
        )
        captured = capsys.readouterr()
        assert "CRASHED: crash-test" in captured.err
        assert "chaos took the machine down" in captured.err
        # The experiment beside the crashed one still renders.
        assert "Hardware overhead per LLC bank" in captured.out
        error_path = outdir / "crash-test" / "error.json"
        assert error_path.exists()
        saved = json.loads(error_path.read_text())
        assert saved["error"] == "IncompleteSweepError"
        assert "crash/point: RuntimeError: chaos took the machine down" in saved["message"]
        assert "Traceback" in saved["traceback"]
        assert not (outdir / "table4").exists()

    def test_crash_does_not_leak_sessions(self, tmp_path, monkeypatch, capsys):
        from repro.sim.faults import active_session as fault_session
        from repro.sim.telemetry.session import active_session as telemetry_session

        _only(monkeypatch, **{"crash-test-2": _crashing_plan})
        assert (
            cli.main(
                ["crash-test-2", "--faults", "seed:1",
                 "--cache-dir", str(tmp_path / "cache")]
            )
            == 1
        )
        assert fault_session() is None
        assert telemetry_session() is None
        capsys.readouterr()
