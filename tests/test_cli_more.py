"""CLI flag coverage and experiment-result formatting details."""

import inspect
from types import SimpleNamespace

import pytest

from repro.bench.experiments import ALL_EXPERIMENTS
from repro.bench.run import build_parser, main as bench_main
from repro.bench.tables import ExperimentResult, fmt


class TestCliFlags:
    def test_bricks_flag_reaches_table7(self, capsys):
        assert bench_main(["table7", "--quick", "--bricks", "5"]) == 0
        out = capsys.readouterr().out
        assert "Table 7" in out

    def test_all_expands(self):
        parser = build_parser()
        args = parser.parse_args(["all", "--quick"])
        assert args.experiments == ["all"]
        assert args.quick

    def test_queries_flag_parsed(self):
        args = build_parser().parse_args(["table7", "--queries", "3"])
        assert args.queries == 3

    @pytest.mark.parametrize("name", sorted(ALL_EXPERIMENTS))
    def test_options_reach_exactly_the_matching_parameters(self, name, monkeypatch):
        """--quick reaches every experiment whose run() takes ``quick``
        (and so on for each option), and no other."""
        signature = inspect.signature(ALL_EXPERIMENTS[name].run)
        seen: dict = {}

        def run(**kwargs):  # a no-op stand-in with the real signature
            seen.update(kwargs)
            return ExperimentResult(name, ["x"])

        run.__signature__ = signature
        monkeypatch.setitem(ALL_EXPERIMENTS, name, SimpleNamespace(run=run))
        argv = [name, "--quick", "--bricks", "5", "--queries", "2", "--backend", "opencv"]
        assert bench_main(argv) == 0
        given = {"quick": True, "n_bricks": 5, "queries_per_brick": 2, "backends": ["opencv"]}
        assert seen == {k: v for k, v in given.items() if k in signature.parameters}

    def test_device_sweep_runs(self, capsys):
        assert bench_main(["device-sweep"]) == 0
        assert "Device sweep" in capsys.readouterr().out


class TestFormatting:
    def test_fmt_variants(self):
        assert fmt(None) == "None"
        assert fmt(True) == "True"
        assert fmt(12345) == "12,345"
        assert fmt(12345.6) == "12,346"
        assert fmt(1.2345) == "1.23"
        assert fmt(0.0) == "0"
        assert fmt("text") == "text"

    def test_to_text_includes_notes_and_summary(self):
        result = ExperimentResult(
            "title", ["a"], [[1]], notes=["a note"], summary={"k": 2.0}
        )
        text = result.to_text()
        assert "note: a note" in text
        assert "summary: k=2.00" in text
