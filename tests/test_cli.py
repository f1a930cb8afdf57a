"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.strategy == "mcs"
        assert args.policy == "ordered-min-cost"
        assert args.transactions == 10

    def test_run_custom(self):
        args = build_parser().parse_args([
            "run", "--strategy", "total", "--policy", "youngest",
            "--transactions", "4", "--locks", "2", "3", "--scattered",
        ])
        assert args.strategy == "total"
        assert args.locks == [2, 3]
        assert args.scattered

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_bad_strategy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--strategy", "zzz"])

    @pytest.mark.parametrize("argv", [
        "run --transactions 0",
        "run --entities 0",
        "overload --transactions 0",
        "trace --sample-every -1",
        "compare --transactions 1 --entities 1",
        "top --follow",
        "top --connect host:abc",
    ])
    def test_bad_workload_flag_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv.split())
        captured = capsys.readouterr()
        assert exit_info.value.code == 2
        assert captured.out == ""
        errors = [
            line for line in captured.err.splitlines() if "error:" in line
        ]
        assert len(errors) == 1 and errors[0].startswith("repro")


class TestCommands:
    def test_top_unreachable_server_is_one_line_and_exit_one(
        self, capsys, monkeypatch
    ):
        from repro.service import client

        class Unreachable:
            def __init__(self, host, port, name):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                pass

            def metrics(self):
                raise client.RetryBudgetExhausted(
                    "metrics gave up after 8 attempts", []
                )

        monkeypatch.setattr(client, "ServiceClient", Unreachable)
        code = main(["top", "--follow", "--connect", "127.0.0.1:9"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "repro top: cannot reach 127.0.0.1:9: "
            "[503] metrics gave up after 8 attempts"
        ]

    def test_run_exit_zero_and_summary(self, capsys):
        code = main(["run", "--transactions", "5", "--entities", "5",
                     "--seed", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "serializable: True" in out
        assert "commits: 5" in out

    def test_overload_livelock_prints_its_diagnosis(self, capsys):
        # requester never preempts, yet this run stops on the engine's
        # livelock window: the CLI says so and shows who waits on whom.
        code = main(["overload", "--policy", "requester", "--admission",
                     "none", "--deadline", "0", "--seed", "2"])
        out = capsys.readouterr().out
        assert code == 1
        assert "committed            17\n" in out
        assert "livelock detected: no commit for 20000 steps" in out
        assert "\nrunnable: T023\n" in out and "\nwaits-for:\n" in out

    def test_run_with_trace(self, capsys):
        code = main(["run", "--transactions", "2", "--entities", "3",
                     "--locks", "1", "2", "--trace"])
        out = capsys.readouterr().out
        assert code == 0
        assert "committed" in out

    def test_compare_lists_all_strategies(self, capsys):
        code = main(["compare", "--transactions", "6", "--entities", "5",
                     "--seed", "4"])
        out = capsys.readouterr().out
        assert code == 0
        for strategy in ("total", "mcs", "single-copy"):
            assert strategy in out

    def test_figures_reproduces_paper_numbers(self, capsys):
        code = main(["figures"])
        out = capsys.readouterr().out
        assert code == 0
        assert "rollback T2 -> lock state 2 (cost 4)" in out
        assert "livelock=True" in out          # Figure 2, min-cost
        assert "livelock=False" in out         # Figure 2, ordered
        assert "[0, 1, 4, 6]" in out           # Figure 4 without C<-K
        assert "[0, 1, 2, 3, 4, 5, 6]" in out  # Figure 5
