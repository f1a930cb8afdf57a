"""The static-analysis subsystem: framework, rules RR001–RR007, the CLI
exit codes, and trace-based deadlock prediction.

The rule tests run the real checkers over seeded-violation fixtures in
``tests/fixtures/lint/`` (those files are parsed, never imported).  The
prediction tests use the checked-in regression corpus: the serial
seed-26 case of the ``clean_mcs_seed42`` workload family is recorded
deadlock-free, yet its lock-order graph contains an opposite-order pair
— the predictor must find that cycle, synthesize a witness schedule,
and the engine replay must confirm it.
"""

from pathlib import Path

import pytest

from repro.cli import main
from repro.core.rollback import available_strategies, make_strategy
from repro.core.victim import available_policies, make_policy
from repro.staticcheck import (
    all_rules,
    default_checkers,
    predict_case,
    predict_corpus,
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
        "RR001", "RR002", "RR003", "RR004", "RR005", "RR006", "RR007",
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
    assert ".table.release" in messages
    assert "bare LockTable" in messages
    assert len(report.findings) == 4
    # the read-only holders() call on the last stanza stays unflagged
    last_line = max(f.line for f in report.findings)
    assert "holders" not in messages
    assert last_line < len(
        (FIXTURES / "rr002_locks.py").read_text().splitlines()
    )


# -- RR003: registration completeness ---------------------------------------


def test_rr003_flags_only_the_forgotten_subclass():
    report = lint_fixture("rr003_registration.py")
    assert [f.rule for f in report.findings] == ["RR003"]
    assert "ForgottenStrategy" in report.findings[0].message
    messages = " | ".join(f.message for f in report.findings)
    assert "RegisteredStrategy" not in messages
    assert "_PrivateHelperStrategy" not in messages


def test_rr003_is_quiet_on_the_real_tree():
    report = run_lint(
        [Path("src/repro")], default_checkers(), select=["RR003"]
    )
    assert report.findings == []


def test_rr003_covers_the_lint_rules_themselves(tmp_path):
    (tmp_path / "rules.py").write_text(
        "class Checker: ...\n"
        "class ListedRule(Checker): ...\n"
        "class ForgottenRule(Checker): ...\n"
        "def default_checkers():\n"
        "    return [ListedRule()]\n"
    )
    report = run_lint([tmp_path], default_checkers(), select=["RR003"])
    assert [f.rule for f in report.findings] == ["RR003"]
    assert "ForgottenRule" in report.findings[0].message


# -- RR004: seeded-Random plumbing -------------------------------------------


def test_rr004_flags_unseeded_and_ambient_constructions():
    report = lint_fixture("rr004_seeding.py")
    assert {f.rule for f in report.findings} == {"RR004"}
    assert len(report.findings) == 2
    messages = " | ".join(f.message for f in report.findings)
    assert "without a seed" in messages
    assert "never passed in" in messages


# -- RR005: metrics mutation discipline --------------------------------------


def test_rr005_flags_direct_counter_mutation_only():
    report = lint_fixture("rr005_metrics.py")
    assert {f.rule for f in report.findings} == {"RR005"}
    assert len(report.findings) == 3
    messages = " | ".join(f.message for f in report.findings)
    assert "'rollbacks'" in messages   # augmented assign on .metrics
    assert "'commits'" in messages     # plain assign on a bare name
    assert "'blocks'" in messages      # deep attribute chain
    # bump() calls, whole-object replacement, and reads stay unflagged
    lines = (FIXTURES / "rr005_metrics.py").read_text().splitlines()
    for finding in report.findings:
        assert "violation" in lines[finding.line - 1]


def test_rr005_is_quiet_on_the_real_tree():
    report = run_lint(
        [Path("src/repro")], default_checkers(), select=["RR005"]
    )
    assert report.findings == []


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


# -- RR007: status-mutation discipline ---------------------------------------


def test_rr007_flags_direct_status_assignment_only():
    report = lint_fixture("rr007_status.py")
    assert [f.rule for f in report.findings] == ["RR007"] * 3
    assert {f.severity for f in report.findings} == {"error"}
    messages = " | ".join(f.message for f in report.findings)
    for member in ("BLOCKED", "SHED", "READY"):
        assert f"TxnStatus.{member}" in messages
    # the sanctioned writer, comparisons, a non-transaction status and a
    # local variable named status stay unflagged
    lines = (FIXTURES / "rr007_status.py").read_text().splitlines()
    for finding in report.findings:
        assert "violation" in lines[finding.line - 1]


def test_rr007_exempts_only_the_two_owners(tmp_path):
    report = run_lint(
        [Path("src/repro")], default_checkers(), select=["RR007"]
    )
    assert report.findings == []
    # apply_rollback does assign a member: linted under another module
    # name the rule fires, so the quiet tree is the exemption at work,
    # not a blind spot.
    copy = tmp_path / "elsewhere.py"
    copy.write_text(Path("src/repro/core/transaction.py").read_text())
    report = run_lint([copy], default_checkers(), select=["RR007"])
    assert [f.rule for f in report.findings] == ["RR007"]


# -- CLI exit codes ----------------------------------------------------------


def test_cli_lint_clean_tree_exits_zero(capsys):
    assert main(["lint", "src/repro"]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "fixture",
    ["rr001_hazards.py", "rr002_locks.py", "rr003_registration.py",
     "rr004_seeding.py", "rr005_metrics.py", "rr006_await.py",
     "rr007_status.py", "noqa.py"],
)
def test_cli_lint_fixture_exits_nonzero(fixture, capsys):
    assert main(["lint", str(FIXTURES / fixture)]) == 1
    capsys.readouterr()


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


# -- registries stay dynamic (RR003's runtime counterpart) -------------------


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
    from repro.staticcheck.predict import _harvest

    case, _ = load_case(REGRESSIONS / "clean_mcs_seed26_serial.json")
    predicted = predict_case(case).alternates[0]
    _acqs, deadlocks, _result = _harvest(
        case.with_schedule(list(predicted.witness))
    )
    cycles = {
        frozenset(cycle)
        for event in deadlocks
        for cycle in event.cycles
    }
    assert frozenset(predicted.txns) in cycles


def test_predict_respects_gate_locks():
    # In the seed-42 case every transaction acquires e000 first, so the
    # common gate serialises all pairs: no feasible cycle may be
    # reported even though opposite-order edges would arise without it.
    case, _ = load_case(REGRESSIONS / "clean_mcs_seed42.json")
    report = predict_case(case)
    assert report.edges > 0
    assert report.predicted == []


def test_predict_corpus_is_sound():
    for report in predict_corpus(REGRESSIONS):
        assert report.ok, report.case_path


def test_cli_lint_predict_reports_the_alternate(capsys):
    assert main(["lint", "src/repro", "--predict",
                 "--corpus", str(REGRESSIONS)]) == 0
    out = capsys.readouterr().out
    assert "alternate-interleaving deadlock" in out
    assert "confirmed" in out
