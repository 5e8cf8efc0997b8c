"""Command-line interface."""

import json

import pytest

from repro.campaigns import registry
from repro.cli import build_parser, main


class TestParser:
    def test_known_experiments(self):
        parser = build_parser()
        for name in ("table1", "figure3", "ablations", "all"):
            args = parser.parse_args([name])
            assert args.experiment == name

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure99"])

    def test_trace_override(self):
        args = build_parser().parse_args(["table2", "--traces", "500"])
        assert args.traces == 500

    def test_experiments_enumerate_the_registry(self):
        parser = build_parser()
        for name in registry.names():
            assert parser.parse_args([name]).experiment == name

    def test_streaming_flags(self):
        args = build_parser().parse_args(
            ["figure3", "--chunk-size", "250", "--jobs", "4", "--seed", "9"]
        )
        assert args.chunk_size == 250
        assert args.jobs == 4
        assert args.seed == 9
        assert args.format == "text"

    def test_backend_choices_match_the_published_cli_subset(self):
        from repro.backends import CLI_BACKEND_CHOICES

        parser = build_parser()
        for choice in CLI_BACKEND_CHOICES:
            assert parser.parse_args(["figure3", "--backend", choice]).backend == choice
        action = next(a for a in parser._actions if a.dest == "backend")
        assert tuple(action.choices) == CLI_BACKEND_CHOICES
        with pytest.raises(SystemExit):
            parser.parse_args(["figure3", "--backend", "threads"])

    def test_backend_numba_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure3", "--backend", "numba"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_backend_spawn_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure3", "--backend", "spawn"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_format_choices(self):
        assert build_parser().parse_args(["table1", "--format", "json"]).format == "json"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--format", "xml"])

    def test_grid_flag_is_repeatable(self):
        args = build_parser().parse_args(
            ["sweep", "--grid", "dual_issue=true,false", "--grid", "load_latency=2,3"]
        )
        assert args.grid == ["dual_issue=true,false", "load_latency=2,3"]
        assert build_parser().parse_args(["sweep"]).grid is None

    @pytest.mark.parametrize(
        "flags",
        (
            ["--traces", "-5"],
            ["--traces", "0"],
            ["--chunk-size", "0"],
            ["--chunk-size", "-1"],
            ["--jobs", "0"],
            ["--seed", "-1"],
            ["--retries", "-1"],
            ["--chunk-timeout", "0"],
            ["--chunk-timeout", "-2.5"],
        ),
    )
    def test_nonpositive_knobs_rejected_cleanly(self, flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure3", *flags])
        # Parse-time rejection: argparse usage errors exit 2 and name
        # the offending flag, before any scenario work starts.
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "must be" in err
        assert flags[0] in err

    def test_resilience_flags_parse(self):
        args = build_parser().parse_args(
            [
                "figure3",
                "--retries", "3",
                "--chunk-timeout", "2.5",
                "--checkpoint", "/tmp/ckpt",
                "--resume",
            ]
        )
        assert args.retries == 3
        assert args.chunk_timeout == 2.5
        assert args.checkpoint == "/tmp/ckpt"
        assert args.resume is True
        # All default to off.
        bare = build_parser().parse_args(["figure3"])
        assert bare.retries is None
        assert bare.chunk_timeout is None
        assert bare.checkpoint is None
        assert bare.resume is False

    def test_retries_zero_means_fail_fast_not_an_error(self):
        assert build_parser().parse_args(["figure3", "--retries", "0"]).retries == 0

    def test_resume_without_checkpoint_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure3", "--resume"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--resume requires --checkpoint" in err


class TestExecution:
    def test_figure2_runs_end_to_end(self, capsys):
        assert main(["figure2", "--reps", "40"]) == 0
        out = capsys.readouterr().out
        assert "Inferred pipeline structure" in out
        assert "==== figure2" in out

    def test_table2_with_reduced_traces(self, capsys):
        assert main(["table2", "--traces", "800"]) == 0
        assert "Table 2 (reproduced)" in capsys.readouterr().out

    def test_json_format_is_machine_readable(self, capsys):
        assert main(["figure2", "--reps", "40", "--format", "json"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert len(reports) == 1
        report = reports[0]
        assert report["scenario"] == "figure2"
        assert "Inferred pipeline structure" in report["output"]
        assert isinstance(report["matches_paper"], bool)
        assert report["seconds"] >= 0

    def test_json_records_are_schema_valid_envelopes(self, capsys):
        from repro.api import ENVELOPE_SCHEMA, validate_envelope

        assert main(["figure2", "--reps", "40", "--format", "json"]) == 0
        reports = json.loads(capsys.readouterr().out)
        for report in reports:
            assert validate_envelope(report) is report
            assert report["schema"] == ENVELOPE_SCHEMA

    def test_chunked_run_through_the_engine(self, capsys):
        assert main(["table2", "--traces", "400", "--chunk-size", "150"]) == 0
        assert "Table 2 (reproduced)" in capsys.readouterr().out

    def test_backend_fork_json_is_byte_identical_to_serial(self, capsys):
        from repro.backends import fork_available

        if not fork_available():
            pytest.skip("fork unavailable")

        def run(backend):
            argv = [
                "figure3",
                "--traces", "150",
                "--chunk-size", "60",
                "--precision", "float32",
                "--backend", backend,
                "--format", "json",
            ]
            if backend != "serial":
                argv += ["--jobs", "2"]
            assert main(argv) == 0
            records = json.loads(capsys.readouterr().out)
            for record in records:
                record.pop("seconds", None)  # wall time is the one volatile field
            return json.dumps(records, sort_keys=True)

        assert run("fork") == run("serial")

    def test_sweep_grid_end_to_end(self, capsys):
        assert main(["sweep", "--grid", "dual_issue=true,false", "--traces", "128"]) == 0
        out = capsys.readouterr().out
        assert "Design-space sweep" in out
        assert "cortex-a7+dual_issue=false" in out


class TestCapabilityErrors:
    """Knobs a scenario cannot honor are hard usage errors (exit 2)."""

    @pytest.mark.parametrize(
        ("argv", "flag"),
        (
            (["figure2", "--grid", "dual_issue=true,false"], "--grid"),
            (["figure2", "--precision", "float32"], "--precision"),
            (["figure2", "--chunk-size", "100"], "--chunk-size"),
            (["figure2", "--jobs", "4"], "--jobs"),
            (["figure2", "--backend", "fork"], "--backend"),
            (["table1", "--traces", "500"], "--traces"),
            (["figure3", "--reps", "50"], "--reps"),
            (["success-curves", "--chunk-size", "64"], "--chunk-size"),
            (["table1", "--retries", "2"], "--retries"),
            (["table1", "--chunk-timeout", "5"], "--chunk-timeout"),
            (["figure2", "--checkpoint", "/tmp/ckpt"], "--checkpoint"),
        ),
    )
    def test_unsupported_knob_exits_2_with_message(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"does not support {flag}" in err
        assert argv[0] in err
        assert "declared capabilities" in err

    def test_jobs_1_is_not_a_demand(self, capsys):
        # --jobs 1 means "single process" and must not require the JOBS
        # capability (it is the do-nothing value).
        assert main(["figure2", "--reps", "40", "--jobs", "1"]) == 0
        assert "Inferred pipeline structure" in capsys.readouterr().out

    def test_all_narrows_with_a_note_instead_of_erroring(self, capsys, monkeypatch):
        from repro.campaigns import registry

        monkeypatch.setattr(registry, "names", lambda: ["figure2"])
        assert main(["all", "--traces", "200", "--reps", "40"]) == 0
        captured = capsys.readouterr()
        assert "note: figure2 does not support --traces; ignoring it" in captured.err
        assert "Inferred pipeline structure" in captured.out


class TestResilienceExecution:
    def test_retries_do_not_change_the_json_output(self, capsys):
        def run(extra):
            argv = [
                "figure3", "--traces", "96", "--chunk-size", "48",
                "--format", "json", *extra,
            ]
            assert main(argv) == 0
            records = json.loads(capsys.readouterr().out)
            for record in records:
                record.pop("seconds", None)
            return json.dumps(records, sort_keys=True)

        assert run(["--retries", "2"]) == run([])

    def test_checkpoint_then_resume_round_trips(self, tmp_path, capsys):
        argv = [
            "figure3", "--traces", "96", "--chunk-size", "48",
            "--checkpoint", str(tmp_path / "ckpt"), "--format", "json",
        ]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv + ["--resume"]) == 0
        resumed = json.loads(capsys.readouterr().out)
        for record in first + resumed:
            record.pop("seconds", None)
            # The resumed record carries checkpoint lifecycle events in
            # its fault_report; the payload itself must be identical.
            record.pop("fault_report", None)
        assert resumed == first


class TestScenarioFailureIsolation:
    """A crashing scenario must not silence the other reports."""

    @pytest.fixture()
    def crashing_scenario(self):
        from repro.campaigns.registry import Scenario, _REGISTRY, register

        def runner(_options):
            raise RuntimeError("synthetic scenario failure")

        register(
            Scenario(
                name="crash-test",
                title="always fails",
                description="test fixture",
                runner=runner,
            )
        )
        yield "crash-test"
        _REGISTRY.pop("crash-test", None)

    def test_json_emits_error_record_and_nonzero_exit(self, crashing_scenario, capsys):
        assert main([crashing_scenario, "--format", "json"]) == 1
        captured = capsys.readouterr()
        reports = json.loads(captured.out)
        assert len(reports) == 1
        record = reports[0]
        assert record["scenario"] == crashing_scenario
        assert "synthetic scenario failure" in record["error"]
        assert record["matches_paper"] is None
        assert "synthetic scenario failure" in captured.err

    def test_render_crash_also_becomes_an_error_record(self, capsys):
        # run() succeeding but render()/to_json() raising must be
        # isolated the same way as a runner crash.
        from repro.campaigns.registry import Scenario, _REGISTRY, register

        class BadResult:
            def render(self):
                raise ValueError("broken renderer")

        register(
            Scenario(
                name="render-crash-test",
                title="renders badly",
                description="test fixture",
                runner=lambda _options: BadResult(),
            )
        )
        try:
            assert main(["render-crash-test", "--format", "json"]) == 1
            reports = json.loads(capsys.readouterr().out)
            assert "broken renderer" in reports[0]["error"]
        finally:
            _REGISTRY.pop("render-crash-test", None)

    def test_text_mode_reports_error_and_nonzero_exit(self, crashing_scenario, capsys):
        assert main([crashing_scenario]) == 1
        captured = capsys.readouterr()
        assert "ERROR: RuntimeError: synthetic scenario failure" in captured.out

    def test_all_keeps_reports_collected_before_the_crash(
        self, crashing_scenario, capsys, monkeypatch
    ):
        # Shrink 'all' to a healthy scenario followed by the crasher:
        # the healthy report must survive in the emitted JSON.
        from repro.campaigns.registry import Scenario, _REGISTRY, register
        from repro.campaigns import registry

        register(
            Scenario(
                name="aaa-ok",
                title="healthy",
                description="test fixture",
                runner=lambda _options: type(
                    "R", (), {"render": lambda self: "healthy output"}
                )(),
            )
        )
        monkeypatch.setattr(registry, "names", lambda: ["aaa-ok", crashing_scenario])
        try:
            assert main(["all", "--format", "json"]) == 1
            reports = json.loads(capsys.readouterr().out)
            assert [r["scenario"] for r in reports] == ["aaa-ok", crashing_scenario]
            assert reports[0]["output"] == "healthy output"
            assert "error" in reports[1]
        finally:
            _REGISTRY.pop("aaa-ok", None)
