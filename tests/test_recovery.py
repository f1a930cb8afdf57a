"""The WAL, checkpoints, and crash-recovery equivalence.

The headline acceptance test is :class:`TestCrashRecoverySweep`: for
every rollback strategy, crashing the scheduler at *every* recorded
event index and recovering from checkpoint + log replay must converge to
the same committed final state as the fault-free run.
"""

import pytest

from repro.resilience import (
    FaultEvent,
    FaultKind,
    FaultPlan,
    RecoveryManager,
    WalKind,
    WriteAheadLog,
    chaos_run,
    crash_recovery_sweep,
)
from repro.simulation.workload import (
    WorkloadConfig,
    expected_final_state,
    generate_workload,
)

ALL_STRATEGIES = ("mcs", "single-copy", "k-copy:2", "undo-log", "total")

SMALL = WorkloadConfig(
    n_transactions=4, n_entities=5, locks_per_txn=(2, 3)
)


class TestWriteAheadLog:
    def test_recover_empty_log_is_initial_state(self):
        wal = WriteAheadLog({"a": 1, "b": 2})
        state, committed = wal.recover_state()
        assert state == {"a": 1, "b": 2}
        assert committed == set()

    def test_redo_replays_only_committed_installs(self):
        wal = WriteAheadLog({"a": 0, "b": 0})
        wal.log_install("T1", "a", 5)
        wal.log_commit("T1")
        wal.log_install("T2", "b", 9)  # T2 never commits
        state, committed = wal.recover_state()
        assert state == {"a": 5, "b": 0}
        assert committed == {"T1"}

    def test_recovery_starts_from_latest_checkpoint(self):
        wal = WriteAheadLog({"a": 0})
        wal.log_install("T1", "a", 1)
        wal.log_commit("T1")
        wal.checkpoint(step=10, state={"a": 1}, committed=["T1"])
        wal.log_install("T2", "a", 2)
        wal.log_commit("T2")
        state, committed = wal.recover_state()
        assert state == {"a": 2}
        assert committed == {"T1", "T2"}

    def test_checkpoint_lsn_excludes_prior_records(self):
        wal = WriteAheadLog({"a": 0})
        wal.log_install("T1", "a", 1)
        point = wal.checkpoint(step=5, state={"a": 99}, committed=["T1"])
        assert point.lsn == 1
        # The pre-checkpoint install must not be replayed on top of the
        # snapshot (it is already reflected there).
        state, _ = wal.recover_state()
        assert state == {"a": 99}

    def test_rollback_and_grant_records_are_diagnostic_only(self):
        wal = WriteAheadLog({"a": 0})
        wal.log_grant("T1", "a", "X")
        wal.log_rollback("T1", 0)
        state, committed = wal.recover_state()
        assert state == {"a": 0}
        assert committed == set()
        assert [r.kind for r in wal.records] == [
            WalKind.GRANT, WalKind.ROLLBACK
        ]

    def test_fingerprint_tracks_content(self):
        a, b = WriteAheadLog({}), WriteAheadLog({})
        a.log_commit("T1")
        b.log_commit("T1")
        assert a.fingerprint() == b.fingerprint()
        b.log_commit("T2")
        assert a.fingerprint() != b.fingerprint()


class TestRecoveryManager:
    def test_recover_before_attach_rejected(self):
        manager = RecoveryManager([], checkpoint_every=5)
        with pytest.raises(RuntimeError):
            manager.recover()

    def test_survivors_exclude_committed(self):
        database, programs = generate_workload(SMALL, seed=2)
        outcome = chaos_run(
            SMALL, workload_seed=2, chaos_seed=0, strategy="mcs",
            plan=FaultPlan(
                seed=0, events=[FaultEvent(FaultKind.CRASH, 20)]
            ),
        )
        assert outcome.ok
        assert sorted(outcome.committed) == sorted(
            p.txn_id for p in programs
        )


class TestCrashRecoverySweep:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_crash_at_every_event_recovers_equivalently(self, strategy):
        report = crash_recovery_sweep(
            SMALL, workload_seed=3, strategies=(strategy,), every=1
        )
        assert report.ok, [str(v) for v in report.violations]
        # One fault-free reference plus one run per recorded event.
        assert len(report.outcomes) == report.outcomes[0].steps + 1

    def test_final_states_match_serial_expectation(self):
        database, programs = generate_workload(SMALL, seed=3)
        expected = expected_final_state(database, programs)
        report = crash_recovery_sweep(
            SMALL, workload_seed=3, strategies=("mcs",), every=4
        )
        assert report.ok
        for outcome in report.outcomes:
            assert outcome.final_state == expected

    def test_distributed_sweep_all_modes(self):
        for mode in ("wound-wait", "wait-die", "probe"):
            report = crash_recovery_sweep(
                SMALL, workload_seed=3, strategies=("mcs",),
                every=5, sites=2, cross_site_mode=mode,
            )
            assert report.ok, (mode, [str(v) for v in report.violations])


class TestChaosRun:
    def test_multi_crash_run_completes(self):
        outcome = chaos_run(
            SMALL, workload_seed=3, chaos_seed=7, strategy="mcs",
            crashes=2,
        )
        assert outcome.ok
        assert outcome.crashes == outcome.segments - 1

    def test_fingerprint_deterministic(self):
        runs = [
            chaos_run(
                SMALL, workload_seed=3, chaos_seed=7, strategy="mcs",
                crashes=2, storage_faults=1, stalls=1,
            )
            for _ in range(2)
        ]
        assert runs[0].fingerprint() == runs[1].fingerprint()
        assert runs[0].plan.fingerprint() == runs[1].plan.fingerprint()

    def test_different_chaos_seed_different_fingerprint(self):
        a = chaos_run(
            SMALL, workload_seed=3, chaos_seed=7, strategy="mcs",
            crashes=2,
        )
        b = chaos_run(
            SMALL, workload_seed=3, chaos_seed=8, strategy="mcs",
            crashes=2,
        )
        assert a.fingerprint() != b.fingerprint()

    def test_crash_after_all_commits_recovers_cleanly(self):
        reference = chaos_run(
            SMALL, workload_seed=3, chaos_seed=0, strategy="mcs",
            plan=FaultPlan(seed=0, events=[]),
        )
        outcome = chaos_run(
            SMALL, workload_seed=3, chaos_seed=0, strategy="mcs",
            plan=FaultPlan(
                seed=0,
                events=[
                    FaultEvent(FaultKind.CRASH, reference.steps - 1)
                ],
            ),
        )
        assert outcome.ok
        assert outcome.final_state == reference.final_state


class TestPlantedRecoveryBug:
    """Recovery that skips redo must be caught as ``recovery-equivalence``
    by every entry point that judges crash recovery."""

    X_ONLY = WorkloadConfig(
        n_transactions=4, n_entities=4, locks_per_txn=(2, 3),
        write_ratio=1.0,
    )

    @pytest.fixture(autouse=True)
    def skip_redo(self, monkeypatch):
        def recover_state(wal):
            point = wal.latest_checkpoint()
            base = wal._initial_state if point is None else point.state
            return dict(base), wal.committed_ids()

        monkeypatch.setattr(WriteAheadLog, "recover_state", recover_state)

    def test_chaos_run_with_a_crash(self):
        outcome = chaos_run(
            self.X_ONLY, workload_seed=7, chaos_seed=7, crashes=1
        )
        assert outcome.crashes == 1
        assert outcome.violation.oracle == "recovery-equivalence"

    def test_crash_recovery_sweep(self):
        report = crash_recovery_sweep(
            self.X_ONLY, workload_seed=7, strategies=("mcs",), chaos_seed=7
        )
        assert report.outcomes[0].ok  # the fault-free reference
        assert len(report.violations) == 14
        assert {v.oracle for v in report.violations} == {
            "recovery-equivalence"
        }

    def test_fuzz_sampled_check(self, capsys):
        from repro.cli import main

        code = main([
            "fuzz", "--seed", "11", "--steps", "800", "--check",
            "no-commit-loss,lock-table,recovery-equivalence",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "[recovery-equivalence]" in out
