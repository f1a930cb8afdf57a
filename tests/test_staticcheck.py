"""The static-analysis subsystem: framework, rules RR001, RR002, RR004
and RR006, the CLI exit codes, and trace-based deadlock prediction.

The rule tests run the real checkers over seeded-violation fixtures in
``tests/fixtures/lint/`` (those files are parsed, never imported).  The
prediction tests use the checked-in regression corpus: the serial
seed-26 case of the ``clean_mcs_seed42`` workload family is recorded
deadlock-free, yet its lock-order graph contains an opposite-order pair
— the predictor must find that cycle, synthesize a witness schedule,
and the engine replay must confirm it.
"""

import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.core.rollback import (
    RollbackStrategy,
    available_strategies,
    make_strategy,
)
from repro.core.victim import VictimPolicy, available_policies, make_policy
from repro.staticcheck import (
    all_rules,
    default_checkers,
    harvest_case,
    predict_case,
    run_lint,
)
from repro.verification.regressions import load_case

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
REGRESSIONS = Path(__file__).parent / "regressions"


def lint_fixture(name, select=None):
    return run_lint([FIXTURES / name], default_checkers(), select=select)


# -- framework ---------------------------------------------------------------


def test_rule_catalogue_matches_checkers():
    assert [rule for rule, _ in all_rules()] == [
        "RR001", "RR002", "RR004", "RR006",
    ]


def test_findings_carry_severity():
    report = lint_fixture("rr001_hazards.py")
    assert {f.severity for f in report.findings} == {"error"}
    finding = report.findings[0]
    assert finding.to_dict()["severity"] == "error"
    assert "error" in finding.render()


def test_clean_fixture_has_no_findings():
    report = lint_fixture("clean.py")
    assert report.ok
    assert report.findings == []
    assert report.files_checked == 1


def test_select_restricts_rules():
    report = lint_fixture("rr001_hazards.py", select=["RR002"])
    assert report.findings == []


def test_findings_are_ordered_and_rendered():
    report = lint_fixture("rr001_hazards.py")
    lines = [f.line for f in report.findings]
    assert lines == sorted(lines)
    rendered = report.findings[0].render()
    assert "rr001_hazards.py" in rendered and "RR001" in rendered


# -- RR001: nondeterminism ---------------------------------------------------


def test_rr001_flags_every_planted_hazard():
    report = lint_fixture("rr001_hazards.py")
    assert {f.rule for f in report.findings} == {"RR001"}
    messages = " | ".join(f.message for f in report.findings)
    assert "shared global" in messages          # random.random()
    assert "time.time()" in messages            # wall clock
    assert "datetime" in messages               # datetime.now()
    assert "os.environ" in messages             # ambient env
    assert "os.getenv" in messages              # ambient env
    assert "id()" in messages                   # key=id
    assert "hash order" in messages             # set iteration
    assert len(report.findings) == 9


def test_rr001_is_quiet_on_the_real_tree():
    report = run_lint(
        [Path("src/repro")], default_checkers(), select=["RR001"]
    )
    assert report.findings == []


# -- RR002: lock discipline --------------------------------------------------


def test_rr002_flags_bypasses_but_not_reads():
    report = lint_fixture("rr002_locks.py")
    assert {f.rule for f in report.findings} == {"RR002"}
    messages = " | ".join(f.message for f in report.findings)
    assert "_locks" in messages
    assert ".table.request" in messages
    assert ".table.release(" in messages
    assert ".table.release_many" in messages
    assert "bare LockTable" in messages
    assert len(report.findings) == 5
    # the read-only holders() call on the last stanza stays unflagged
    last_line = max(f.line for f in report.findings)
    assert "holders" not in messages
    assert last_line < len(
        (FIXTURES / "rr002_locks.py").read_text().splitlines()
    )


# -- RR004: seeded-Random plumbing -------------------------------------------


def test_rr004_flags_unseeded_and_ambient_constructions():
    report = lint_fixture("rr004_seeding.py")
    assert {f.rule for f in report.findings} == {"RR004"}
    assert len(report.findings) == 2
    messages = " | ".join(f.message for f in report.findings)
    assert "without a seed" in messages
    assert "never passed in" in messages


# -- noqa pragmas ------------------------------------------------------------


def test_noqa_suppresses_matching_rule_only():
    report = lint_fixture("noqa.py")
    # line with noqa[RR002] does not cover the RR001 finding
    assert len(report.findings) == 1
    assert report.findings[0].rule == "RR001"
    # the four lines whose pragma names RR001 are suppressed
    assert len(report.suppressed) == 4
    # one of them carries no justification
    bare = report.bare_suppressions()
    assert len(bare) == 1
    assert bare[0][1].justification == ""


def test_noqa_survives_brackets_and_missing_commas():
    from repro.staticcheck.framework import _parse_suppressions

    suppressions = {
        s.line: s
        for s in _parse_suppressions(
            "\n".join(
                [
                    "x = 1  # repro: noqa[RR001 (coarse, see budget[0])] why",
                    "y = 2  # repro: noqa[RR001 RR002] two rules, no comma",
                    "z = 3  # repro: noqa[rr003,RR003, RR004] dupes fold",
                    "w = 4  # repro: noqa[] empty region names no rule",
                ]
            )
        )
    }
    # commentary inside the brackets must not kill the pragma
    assert suppressions[1].rules == ("RR001",)
    assert suppressions[1].justification == "why"
    # space separation waives both rules, not neither
    assert suppressions[2].rules == ("RR001", "RR002")
    # case-folded, order-preserving, deduplicated
    assert suppressions[3].rules == ("RR003", "RR004")
    # an empty bracket region is not a suppression at all
    assert 4 not in suppressions


# -- RR006: await discipline -------------------------------------------------


def test_rr006_flags_awaits_after_open_mutation_only():
    report = lint_fixture("rr006_await.py")
    assert [f.rule for f in report.findings] == ["RR006", "RR006", "RR006"]
    assert {f.severity for f in report.findings} == {"warning"}
    lines = (FIXTURES / "rr006_await.py").read_text().splitlines()
    for finding in report.findings:
        assert "violation" in lines[finding.line - 1]
    messages = " | ".join(f.message for f in report.findings)
    assert "handle(...)" in messages and "release(...)" in messages


def test_rr006_is_quiet_on_the_real_tree():
    report = run_lint(
        [Path("src/repro")], default_checkers(), select=["RR006"]
    )
    assert report.findings == []


# -- CLI exit codes ----------------------------------------------------------


def test_cli_lint_clean_tree_exits_zero(capsys):
    assert main(["lint", "src/repro"]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "fixture",
    ["rr001_hazards.py", "rr002_locks.py", "rr004_seeding.py",
     "rr006_await.py", "noqa.py"],
)
def test_cli_lint_fixture_exits_nonzero(fixture, capsys):
    assert main(["lint", str(FIXTURES / fixture)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        "src/repro --select RR999",
        "src/repro --select RR999 --json",
        "--predict --corpus /nonexistent",
        "/nonexistent",
        "--predict --journal /nonexistent.jsonl",
        "--predict --max-cycle-length 1",
        "--predict --max-cycle-length 0",
    ],
)
def test_cli_lint_bad_input_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["lint", *argv.split()])
    captured = capsys.readouterr()
    assert exit_info.value.code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("repro lint: error: ")


def test_cli_lint_unknown_rule_lists_the_valid_ones(capsys):
    with pytest.raises(SystemExit):
        main(["lint", "--select", "rr001,RR005"])
    error = capsys.readouterr().err.splitlines()[-1]
    # rule codes are case-insensitive, so only RR005 is unknown
    assert "RR005" in error and "rr001" not in error
    for rule, _ in all_rules():
        assert rule in error


def test_cli_lint_clean_fixture_exits_zero(capsys):
    assert main(["lint", str(FIXTURES / "clean.py")]) == 0
    capsys.readouterr()


def test_cli_lint_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule, _ in all_rules():
        assert rule in out


def test_cli_lint_json_output(capsys):
    import json

    assert main(["lint", "--json", str(FIXTURES / "rr004_seeding.py")]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["files_checked"] == 1
    assert {f["rule"] for f in document["findings"]} == {"RR004"}


# -- registries stay dynamic ------------------------------------------------


def _concrete_subclasses(root):
    """Every public, non-abstract ``repro`` subclass of *root*."""
    found, stack = set(), list(root.__subclasses__())
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if (
            cls.__module__.startswith("repro.")
            and not cls.__name__.startswith("_")
            and not inspect.isabstract(cls)
        ):
            found.add(cls)
    return found


def test_every_concrete_subclass_is_registered():
    # A class left out of its registry is unreachable from the CLI, the
    # fuzzer and the lint suite, yet every test still passes.
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)
    from repro.staticcheck import Checker
    from repro.verification.faults import FAULT_POLICIES
    from repro.verification.oracles import _ORACLE_TYPES, Oracle

    registered = {
        RollbackStrategy: {
            type(make_strategy(name)) for name in available_strategies()
        },
        VictimPolicy: {
            type(make_policy(name)) for name in available_policies()
        } | {type(build()) for build in FAULT_POLICIES.values()},
        Oracle: set(_ORACLE_TYPES.values()),
        Checker: {type(checker) for checker in default_checkers()},
    }
    for root, built in registered.items():
        found = _concrete_subclasses(root)
        assert found == built, sorted(cls.__name__ for cls in found ^ built)


def test_every_advertised_strategy_is_constructible():
    for name in available_strategies():
        assert make_strategy(name) is not None


def test_every_advertised_policy_is_constructible():
    for name in available_policies():
        assert make_policy(name) is not None


def test_help_epilogs_list_registries():
    from repro.cli import build_parser

    parser = build_parser()
    fuzz = next(
        a for a in parser._subparsers._group_actions[0].choices.values()
        if a.prog.endswith(" fuzz")
    )
    assert "registered strategies" in (fuzz.epilog or "")
    for name in available_strategies():
        assert name in fuzz.epilog


# -- deadlock prediction -----------------------------------------------------


def test_predict_finds_alternate_interleaving_deadlock():
    case, expect = load_case(REGRESSIONS / "clean_mcs_seed26_serial.json")
    assert expect == "clean"
    report = predict_case(case)
    # the recorded (serial) trace never deadlocked ...
    assert report.trace_deadlocks == 0
    # ... yet the lock-order graph exposes the T003/T004 inversion
    assert len(report.alternates) == 1
    predicted = report.alternates[0]
    assert set(predicted.txns) == {"T003", "T004"}
    assert set(predicted.entities) == {"e000", "e001"}
    assert predicted.confirmed and not predicted.observed_in_trace
    assert report.ok


def test_predicted_witness_replays_to_a_real_deadlock():
    # the witness, replayed as the case's own schedule over the whole
    # workload, makes the detector report exactly the predicted cycle
    case, _ = load_case(REGRESSIONS / "clean_mcs_seed26_serial.json")
    predicted = predict_case(case).alternates[0]
    trace = harvest_case(case.with_schedule(list(predicted.witness)))
    assert frozenset(predicted.txns) in trace.observed_deadlocks


def test_predict_respects_gate_locks():
    # In the seed-42 case every transaction acquires e000 first, so the
    # common gate serialises all pairs: no feasible cycle may be
    # reported even though opposite-order edges would arise without it.
    case, _ = load_case(REGRESSIONS / "clean_mcs_seed42.json")
    report = predict_case(case)
    assert report.edges > 0
    assert report.predicted == []


def test_predict_corpus_is_sound(predicted_corpus):
    for report in predicted_corpus:
        assert report.ok, report.case_path


def test_cli_lint_predict_reports_the_alternate(
    capsys, monkeypatch, predicted_corpus
):
    # the CLI prints what predict_corpus returns; the session's corpus
    # pass stands in for a second identical one, and the clean fixture
    # for the tree (test_cli_lint_clean_tree_exits_zero lints that)
    calls = []

    def corpus_pass(corpus, max_cycle_length):
        calls.append((corpus, max_cycle_length))
        return predicted_corpus

    monkeypatch.setattr(repro.staticcheck, "predict_corpus", corpus_pass)
    assert main(["lint", str(FIXTURES / "clean.py"), "--predict",
                 "--corpus", str(REGRESSIONS)]) == 0
    assert calls == [(str(REGRESSIONS), 4)]
    out = capsys.readouterr().out
    assert "alternate-interleaving deadlock" in out
    assert "confirmed" in out
    assert "UNCONFIRMED" not in out
