"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_arguments(self):
        args = build_parser().parse_args(["run", "V8", "gab",
                                          "--frames", "32"])
        assert args.video == "V8"
        assert args.scheme == "gab"
        assert args.frames == 32

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "V8", "turbo"])


class TestCommands:
    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "V1" in out and "V16" in out
        assert "SES Astra" in out

    def test_run(self, capsys):
        assert main(["run", "V8", "gab", "--frames", "24"]) == 0
        out = capsys.readouterr().out
        assert "mJ/frame" in out
        assert "MACH" in out

    def test_run_baseline_has_no_mach_line(self, capsys):
        assert main(["run", "V8", "baseline", "--frames", "24"]) == 0
        assert "MACH:" not in capsys.readouterr().out

    def test_census(self, capsys):
        assert main(["census", "--videos", "V8", "--frames", "24"]) == 0
        out = capsys.readouterr().out
        assert "intra" in out

    def test_compare(self, capsys):
        assert main(["compare", "--videos", "V8", "--frames", "24"]) == 0
        out = capsys.readouterr().out
        assert "GAB" in out
        assert "Normalized energy" in out

    def test_trace_roundtrip(self, capsys, tmp_path):
        path = str(tmp_path / "t.npz")
        assert main(["trace", "capture", path, "--video", "V8",
                     "--frames", "12"]) == 0
        assert main(["trace", "census", path]) == 0
        assert main(["trace", "run", path, "--scheme", "gab"]) == 0
        out = capsys.readouterr().out
        assert "captured 12 frames" in out
        assert "baseline energy" in out


class TestErrors:
    """Bad input exits 2 with one ``repro: error:`` line on stderr."""

    @pytest.mark.parametrize("argv, fragment", [
        (["run", "V99", "gab"], "unknown workload 'V99'"),
        (["run", "V8", "gab", "--frames", "0"], "need at least one frame"),
        (["network", "--bandwidth", "-1"], "bandwidth must be positive"),
    ])
    def test_repro_error_is_one_line(self, capsys, argv, fragment):
        self._assert_one_line_error(capsys, argv, fragment)

    @pytest.mark.parametrize("argv, fragment", [
        (["network", "--trace-file", "{missing}"], "No such file"),
        (["fleet", "--spec", "{missing}"], "No such file"),
        (["trace", "run", "{missing}"], "No such file"),
        (["trace", "run", "{corrupt}"], "not a frame trace"),
        (["fleet", "--spec", "{corrupt}"], "cannot read"),
        (["fleet", "--spec", "{typo}"], "no field 'device_classess'"),
        (["fleet", "--spec", "{bad}"], "no field 'bad'"),
        (["fleet", "--spec", "{deep}"],
         "no field 'regions[0].bandwidth[0].sigmaa'"),
        (["fleet", "--spec", "{array}"], "is a JSON object"),
        (["network", "--trace-file", "{badrow}"],
         "badrow.csv:2: expected 'timestamp,bytes_per_sec'"),
    ])
    def test_bad_input_file_is_one_line(self, capsys, tmp_path, argv,
                                        fragment):
        """Missing, corrupt or misspelt user-named files are input
        problems too, not tracebacks."""
        files = {
            "missing": tmp_path / "missing",
            "corrupt": tmp_path / "corrupt.npz",
            "typo": tmp_path / "typo.json",
            "bad": tmp_path / "bad.json",
            "deep": tmp_path / "deep.json",
            "array": tmp_path / "array.json",
            "badrow": tmp_path / "badrow.csv",
        }
        files["corrupt"].write_text("not a zip archive")
        files["typo"].write_text('{"device_classess": []}')
        files["bad"].write_text('{"bad": 1}')
        files["array"].write_text("[1, 2]")
        files["badrow"].write_text("0,1e6\n1,fast\n")
        files["deep"].write_text(
            '{"regions": [{"name": "r", "bandwidth": '
            '[{"median": 1e6, "sigmaa": 0.5}]}]}')
        argv = [arg.format(**files) for arg in argv]
        self._assert_one_line_error(capsys, argv, fragment)

    @pytest.mark.parametrize("argv, fragment", [
        (["fleet", "--shards", "0"], "need at least one shard"),
        (["fleet", "--sessions", "0"], "need at least one session"),
        (["fleet", "--workers", "-1"], "workers must be >= 0"),
    ])
    def test_bad_fleet_argument_fails_before_calibration(
            self, capsys, monkeypatch, argv, fragment):
        import repro.fleet

        def refuse(*args, **kwargs):
            raise AssertionError("calibrated before checking arguments")

        monkeypatch.setattr(repro.fleet, "calibrate", refuse)
        self._assert_one_line_error(capsys, argv, fragment)

    @staticmethod
    def _assert_one_line_error(capsys, argv, fragment):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro: error: ")
        assert fragment in lines[0]

    def test_multiline_message_is_flattened(self, capsys, monkeypatch):
        from repro import cli
        from repro.errors import ConfigError

        def broken(_key):
            raise ConfigError("first\nsecond")

        monkeypatch.setattr(cli, "workload", broken)
        assert main(["run", "V8", "gab"]) == 2
        assert capsys.readouterr().err == "repro: error: first second\n"

    def test_other_exceptions_propagate(self, monkeypatch):
        """Only the simulator's typed errors are user input problems;
        anything else is a bug and keeps its traceback."""
        from repro import cli

        def broken(_key):
            raise RuntimeError("bug")

        monkeypatch.setattr(cli, "workload", broken)
        with pytest.raises(RuntimeError):
            main(["run", "V8", "gab"])
