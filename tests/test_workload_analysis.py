"""Static workload risk analysis: templates, inversions, MPL advice.

Everything here is static — no engine run, no scheduler.  The analyzer
sees only lock *shapes* (templates extracted from programs, configs, or
journals) and must score them deterministically.
"""

import json
import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.operations import lock_exclusive, lock_shared, unlock
from repro.core.transaction import TransactionProgram
from repro.locking.modes import LockMode
from repro.simulation.workload import WorkloadConfig
from repro.staticcheck import (
    TransactionTemplate,
    WorkloadClass,
    analyze_classes,
    analyze_config,
    analyze_journal,
    analyze_programs,
    analyze_sequences,
)
from repro.staticcheck.workload import (
    MAX_RECOMMENDED_MPL,
    classify_templates,
)

X = LockMode.EXCLUSIVE
S = LockMode.SHARED

#: A hot workload shape the numbers below key on: few entities, pure
#: writers, mixed lock orders.
HOT = WorkloadConfig(
    n_transactions=32,
    n_entities=6,
    locks_per_txn=(2, 4),
    write_ratio=1.0,
)


def template(name, *locks):
    return TransactionTemplate(name=name, locks=tuple(locks))


def pair_report(a, b):
    """The report on a two-template pool (one class)."""
    return analyze_classes([WorkloadClass(name="pool", templates=[a, b])])


# -- template extraction ------------------------------------------------------


def test_template_stops_at_the_shrinking_phase():
    program = TransactionProgram(
        "T001",
        [
            lock_exclusive("e0"),
            lock_shared("e1"),
            unlock("e0"),
            # two-phase validation forbids a Lock after Unlock, so any
            # later operations cannot add acquisitions
        ],
    )
    extracted = TransactionTemplate.from_program(program)
    assert extracted.locks == (("e0", X), ("e1", S))
    assert extracted.signature == "w2"
    assert extracted.entities == ("e0", "e1")


def test_signature_separates_readers_from_writers():
    assert template("a", ("e0", S), ("e1", S)).signature == "r2"
    assert template("b", ("e0", S), ("e1", X)).signature == "w2"
    assert classify_templates(
        [template("a", ("e0", S)), template("b", ("e0", X))]
    )[0].name == "r1"


# -- inversions and hazard ----------------------------------------------------


def test_opposite_order_writers_invert():
    a = template("a", ("e0", X), ("e1", X))
    b = template("b", ("e1", X), ("e0", X))
    report = pair_report(a, b)
    # one ring, counted once per direction: (e0, e1) and (e1, e0)
    assert report.pairs[0].inversions == 2
    assert report.mean_pair_risk == 1.0 - math.exp(-2 / 4)
    assert report.classes[0].hot_entities == ("e0", "e1")


def test_shared_modes_do_not_invert():
    a = template("a", ("e0", S), ("e1", S))
    b = template("b", ("e1", S), ("e0", S))
    report = pair_report(a, b)
    assert report.pairs[0].inversions == 0
    assert report.mean_pair_risk == 0.0


def test_gate_lock_serialises_the_pair():
    # both lock the gate g exclusively before their blocking points, so
    # the e0/e1 inversion can never close
    a = template("a", ("g", X), ("e0", X), ("e1", X))
    b = template("b", ("g", X), ("e1", X), ("e0", X))
    assert pair_report(a, b).mean_pair_risk == 0.0
    # a shared gate serialises nothing
    a_s = template("a", ("g", S), ("e0", X), ("e1", X))
    b_s = template("b", ("g", S), ("e1", X), ("e0", X))
    assert pair_report(a_s, b_s).mean_pair_risk > 0.0


def reference_inversions(a, b):
    """Pairwise inversions from their definition, independent of the
    lock-order graph: *a* locks e before f, *b* locks f before e, the
    modes conflict on both entities, and no entity both hold at their
    blocking points (a's request of f, b's request of e) is held in
    incompatible modes."""
    found = set()
    for t, u in ((a, b), (b, a)):
        u_at = {entity: i for i, (entity, _mode) in enumerate(u.locks)}
        for i, (e, t_e) in enumerate(t.locks):
            for j in range(i + 1, len(t.locks)):
                f, t_f = t.locks[j]
                if e not in u_at or f not in u_at or u_at[f] >= u_at[e]:
                    continue
                u_e, u_f = u.locks[u_at[e]][1], u.locks[u_at[f]][1]
                if t_e.compatible_with(u_e) or t_f.compatible_with(u_f):
                    continue
                t_guards = dict(t.locks[:j])
                if any(
                    g in t_guards and not t_guards[g].compatible_with(mode)
                    for g, mode in u.locks[: u_at[e]]
                ):
                    continue
                found.add((e, f))
                found.add((f, e))
    return found


random_template_locks = st.lists(
    st.tuples(st.sampled_from(["e0", "e1", "e2", "e3", "e4", "e5"]),
              st.sampled_from([S, X])),
    min_size=2,
    max_size=6,
    unique_by=lambda lock: lock[0],
)


@settings(max_examples=50)
@given(st.lists(random_template_locks, min_size=2, max_size=5))
def test_pooled_graph_inversions_match_the_definition(pools):
    templates = [
        TransactionTemplate(name=f"T{i}", locks=tuple(locks))
        for i, locks in enumerate(pools)
    ]
    report = analyze_classes(
        [WorkloadClass(name=f"c{i}", templates=[t])
         for i, t in enumerate(templates)]
    )
    # one template per class, so each class pair is one template pair
    by_pair = {(p.a, p.b): p.inversions for p in report.pairs}
    scores = []
    for i, j in combinations(range(len(templates)), 2):
        a, b = templates[i], templates[j]
        expected = reference_inversions(a, b)
        assert by_pair[(f"c{i}", f"c{j}")] == len(expected)
        scores.append(
            1.0 - math.exp(-len(expected) / (len(a.locks) * len(b.locks)))
        )
    assert report.mean_pair_risk == pytest.approx(sum(scores) / len(scores))


# -- the report ---------------------------------------------------------------


def test_analysis_is_deterministic_and_sane():
    first = analyze_config(HOT, seed=0)
    second = analyze_config(HOT, seed=0)
    assert first.to_json() == second.to_json()
    assert first.total_templates == 32
    assert 0.0 < first.mean_pair_risk < 1.0
    assert all(0.0 <= c.score <= 1.0 for c in first.classes)
    assert all(0.0 <= p.score <= 1.0 for p in first.pairs)
    assert first.cycles  # six hot entities with mixed orders must ring


def test_recommended_mpl_shrinks_with_risk():
    hot = analyze_config(HOT, seed=0)
    mild = analyze_config(
        WorkloadConfig(
            n_transactions=8,
            n_entities=64,
            locks_per_txn=(1, 1),
            write_ratio=0.0,
        ),
        seed=0,
    )
    assert mild.mean_pair_risk == 0.0
    assert mild.recommended_mpl() == MAX_RECOMMENDED_MPL
    assert 1 <= hot.recommended_mpl() < mild.recommended_mpl()
    # a looser budget admits more
    assert hot.recommended_mpl(budget=4.0) >= hot.recommended_mpl(budget=0.5)


def test_risk_of_falls_back_by_signature_then_pool():
    report = analyze_programs(
        [
            TransactionProgram(
                "T001", [lock_exclusive("e0"), lock_exclusive("e1")]
            ),
            TransactionProgram(
                "T002", [lock_exclusive("e1"), lock_exclusive("e0")]
            ),
        ]
    )
    known = template("T001", ("e0", X), ("e1", X))
    assert report.risk_of(known) == report.template_risk["T001"]
    # unseen writer with two locks: scored by the w2 class mean
    unseen = template("T999", ("e0", X), ("e1", X))
    assert report.risk_of(unseen) == report.classes[0].score
    # unseen shape with no class: pool mean
    alien = template("T998", ("e0", S),)
    assert report.risk_of(alien) == report.mean_pair_risk


def test_analyze_sequences_matches_explicit_templates():
    report = analyze_sequences(
        {
            "T001": [("e0", X), ("e1", X)],
            "T002": [("e1", X), ("e0", X)],
        }
    )
    assert report.total_templates == 2
    assert report.mean_pair_risk > 0.0
    assert report.cycles


def test_analyze_journal_scores_recorded_sequences(tmp_path):
    rows = [
        ("lock.grant", "T001", {"entity": "e0", "mode": "X"}),
        ("lock.grant", "T001", {"entity": "e1", "mode": "X"}),
        ("txn.commit", "T001", {}),
        ("lock.grant", "T002", {"entity": "e1", "mode": "X"}),
        ("lock.grant", "T002", {"entity": "e0", "mode": "X"}),
        ("txn.commit", "T002", {}),
    ]
    path = tmp_path / "journal.jsonl"
    path.write_text(
        "\n".join(
            json.dumps(
                {"seq": i, "step": i, "kind": kind, "txn": txn, "data": data},
                sort_keys=True,
            )
            for i, (kind, txn, data) in enumerate(rows)
        )
        + "\n"
    )
    report = analyze_journal(path)
    assert report.total_templates == 2
    assert report.mean_pair_risk > 0.0


# -- the advise CLI -----------------------------------------------------------


def test_cli_advise_smoke_gate_passes(capsys):
    assert main(["advise", "--smoke"]) == 0
    out = capsys.readouterr().out
    assert "deterministic        True" in out
    assert "sane                 True" in out


def test_cli_advise_json_is_machine_readable(capsys):
    assert main(
        ["advise", "--transactions", "16", "--entities", "4",
         "--locks", "2", "4", "--write-ratio", "1.0", "--seed", "9",
         "--json"]
    ) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["total_templates"] == 16
    assert document["recommended_mpl"] >= 1
    assert 0.0 <= document["mean_pair_risk"] <= 1.0


def test_cli_advise_text_suggests_admission(capsys):
    assert main(["advise", "--transactions", "12", "--entities", "4"]) == 0
    out = capsys.readouterr().out
    assert "recommended MPL" in out
    assert "--admission predictive" in out


def test_cli_advise_budget_drives_the_one_recommendation(capsys):
    assert main(["advise", "--budget", "4"]) == 0
    out = capsys.readouterr().out
    stated = [line for line in out.splitlines()
              if line.startswith("recommended MPL")]
    mpl = int(stated[0].split()[2])
    assert "(budget 4.0 expected deadlocks)" in stated[0]
    assert f"--mpl {mpl}" in out
    assert main(["advise", "--budget", "4", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["recommended_mpl"] == mpl


@pytest.mark.parametrize(
    "argv",
    [
        "--budget -1",
        "--budget 0",
        "--budget nan",
        "--max-cycle-length 0",
        "--max-cycle-length 1",
    ],
)
def test_cli_advise_bad_flag_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["advise", *argv.split()])
    captured = capsys.readouterr()
    assert exit_info.value.code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("repro advise: error: ")
