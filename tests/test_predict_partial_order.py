"""Partial-order prediction: vector clocks, journal harvesting, and the
confirmed set over the regression corpus.

The headline regression lives in ``clean_ring4_seed131_serial.json``: a
pure four-transaction ring recorded under a serial schedule.  A search
capped at depth 3 reports nothing; at the default depth 4 the
prediction finds the ring, synthesizes a witness, and the engine replay
confirms it.  Soundness is the other direction: every confirmation must
replay to a real deadlock, and the corpus's confirmed set is pinned.
"""

import json
from pathlib import Path
from types import SimpleNamespace

from repro.locking.modes import LockMode
from repro.staticcheck import predict_case, predict_corpus, predict_journal
from repro.staticcheck.events import (
    concurrent,
    events_from_acquisitions,
    happens_before,
    harvest_journal,
)
from repro.verification.regressions import load_case

REGRESSIONS = Path(__file__).parent / "regressions"


def acquisition(txn, entity, mode=LockMode.EXCLUSIVE, held=()):
    return SimpleNamespace(
        txn=txn, entity=entity, mode=mode, held_before=tuple(held)
    )


def write_journal(path, rows):
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
    return path


#: T001 locks e0 then e1; T002 the opposite — the classic inversion,
#: recorded serially (each committed before the next started).
INVERSION_ROWS = [
    ("lock.grant", "T001", {"entity": "e0", "mode": "X"}),
    ("lock.grant", "T001", {"entity": "e1", "mode": "X"}),
    ("txn.commit", "T001", {}),
    ("lock.grant", "T002", {"entity": "e1", "mode": "X"}),
    ("lock.grant", "T002", {"entity": "e0", "mode": "X"}),
    ("txn.commit", "T002", {}),
]


# -- the happens-before relation ----------------------------------------------


def test_program_order_is_happens_before():
    a, b = events_from_acquisitions(
        [acquisition("T001", "e0"), acquisition("T001", "e1")]
    )
    assert happens_before(a, b)
    assert not happens_before(b, a)
    assert not concurrent(a, b)
    assert not happens_before(a, a)


def test_cross_transaction_same_segment_is_concurrent():
    a, b = events_from_acquisitions(
        [acquisition("T001", "e0"), acquisition("T002", "e1")]
    )
    # the scheduler happened to run T001 first, but nothing *orders*
    # them — reordering scheduler choices is what prediction explores
    assert concurrent(a, b) and concurrent(b, a)


def test_boot_barrier_orders_segments(tmp_path):
    rows = (
        INVERSION_ROWS[:3]
        + [("service.recover", "", {})]
        + INVERSION_ROWS[3:]
    )
    trace = harvest_journal(write_journal(tmp_path / "j.jsonl", rows))
    assert trace.segments == 2
    pre = [e for e in trace.events if e.txn == "T001"]
    post = [e for e in trace.events if e.txn == "T002"]
    assert {e.segment for e in pre} == {0}
    assert {e.segment for e in post} == {1}
    for a in pre:
        for b in post:
            assert happens_before(a, b)
            assert not concurrent(a, b)


def test_recover_before_any_grant_is_not_a_barrier(tmp_path):
    rows = [("service.recover", "", {})] + INVERSION_ROWS
    trace = harvest_journal(write_journal(tmp_path / "j.jsonl", rows))
    assert trace.segments == 1


def test_partial_rollback_truncates_the_held_set(tmp_path):
    rows = [
        ("lock.grant", "T001", {"entity": "e0", "mode": "X"}),
        ("lock.grant", "T001", {"entity": "e1", "mode": "X"}),
        ("rollback", "T001", {"target": 1, "total": False}),
        ("lock.grant", "T001", {"entity": "e2", "mode": "X"}),
    ]
    trace = harvest_journal(write_journal(tmp_path / "j.jsonl", rows))
    last = trace.events[-1]
    assert last.entity == "e2"
    assert last.held_before == (("e0", LockMode.EXCLUSIVE),)


# -- journal prediction -------------------------------------------------------


def test_journal_inversion_is_predicted_and_confirmed(tmp_path):
    journal = write_journal(tmp_path / "j.jsonl", INVERSION_ROWS)
    report = predict_journal(journal)
    assert report.trace_deadlocks == 0
    assert len(report.alternates) == 1
    predicted = report.alternates[0]
    assert set(predicted.txns) == {"T001", "T002"}
    assert predicted.confirmed
    assert report.ok


def test_journal_cross_segment_inversion_is_pruned(tmp_path):
    rows = (
        INVERSION_ROWS[:3]
        + [("service.recover", "", {})]
        + INVERSION_ROWS[3:]
    )
    journal = write_journal(tmp_path / "j.jsonl", rows)
    report = predict_journal(journal)
    # the restart is a global synchronisation point: T002's grants can
    # never be reordered before it, so the cycle is infeasible
    assert report.segments == 2
    assert report.predicted == []
    assert report.ok


def test_journal_observed_deadlock_is_classified_observed(tmp_path):
    rows = INVERSION_ROWS + [
        (
            "deadlock.detect",
            "T002",
            {"requester": "T002", "cycles": [["T001", "T002"]]},
        ),
    ]
    report = predict_journal(write_journal(tmp_path / "j.jsonl", rows))
    assert report.trace_deadlocks == 1
    assert report.alternates == []
    observed = [p for p in report.predicted if p.observed_in_trace]
    assert len(observed) == 1 and observed[0].confirmed


# -- the confirmed set --------------------------------------------------------


def test_partial_order_confirms_a_superset_of_gate_lock():
    # The corpus's confirmed set, pinned: the seed-26 two-ring (the
    # one a pairwise heuristic also finds) and the seed-131 four-ring.
    confirmed = {
        (
            Path(report.case_path).name,
            frozenset(p.txns),
            tuple(sorted(p.entities)),
        )
        for report in predict_corpus(REGRESSIONS)
        for p in report.predicted
        if p.confirmed
    }
    assert confirmed == {
        (
            "clean_mcs_seed26_serial.json",
            frozenset({"T003", "T004"}),
            ("e000", "e001"),
        ),
        (
            "clean_ring4_seed131_serial.json",
            frozenset({"T001", "T002", "T003", "T004"}),
            ("e000", "e001", "e002", "e003"),
        ),
    }


def test_ring4_seed131_needs_the_partial_order_method():
    path = REGRESSIONS / "clean_ring4_seed131_serial.json"
    case, expect = load_case(path)
    assert expect == "clean"
    assert predict_case(case, max_cycle_length=3).predicted == []
    report = predict_case(case)
    assert report.trace_deadlocks == 0
    assert len(report.alternates) == 1
    predicted = report.alternates[0]
    assert set(predicted.txns) == {"T001", "T002", "T003", "T004"}
    assert predicted.confirmed
    assert report.ok


def test_no_method_ever_false_confirms():
    # every confirmation replayed to a real engine deadlock (report.ok
    # fails on any feasible-but-unrealizable cycle), at every depth
    for depth in (3, 4):
        for report in predict_corpus(REGRESSIONS, max_cycle_length=depth):
            assert report.ok, (depth, report.case_path)
