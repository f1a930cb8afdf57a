"""Tests for the verification subsystem: fuzzer, oracles, shrinker.

Three layers of evidence that the machinery works:

* determinism — the same campaign seed reproduces byte-identical traces
  and campaign fingerprints;
* sensitivity — every step oracle fires on a hand-built violating state,
  and deliberately broken victim policies from
  :mod:`repro.verification.faults` are caught and shrunk to short
  schedules;
* plumbing — replay cases round-trip through JSON, the shrinker output
  still reproduces the same oracle, and the CLI surface behaves.
"""

import json

import pytest

from repro.cli import build_parser, main
from repro.core.scheduler import Scheduler, StepOutcome
from repro.core.transaction import TransactionProgram, TxnStatus
from repro.locking.modes import LockMode
from repro.simulation import (
    RandomInterleaving,
    WorkloadConfig,
    generate_workload,
)
from repro.simulation.trace import TraceEvent
from repro.storage.database import Database
from repro.verification import (
    COPY_STRATEGIES,
    BrokenOrderPolicy,
    FirstCycleOnlyPolicy,
    FuzzConfig,
    OracleViolation,
    ReplayCase,
    check_case,
    describe_failure,
    fuzz_campaign,
    fuzz_policy,
    load_case,
    make_oracles,
    oracle_names,
    render_pytest,
    replay,
    reproduces,
    resolve_policy,
    run_with_oracles,
    save_case,
    shrink,
)
from repro.verification.oracles import (
    CyclesThroughRequesterOracle,
    ForestOracle,
    GraphAcyclicOracle,
    GraphConsistencyOracle,
    LockTableConsistencyOracle,
    NoCommitLossOracle,
    PreemptionOrderOracle,
)

# Small, fast fault-injection workload used across several tests: three
# exclusive-only transactions over three entities deadlock constantly, so
# a broken ordered policy trips the Theorem 2 oracle within a few rounds.
BROKEN_POLICY_KWARGS = dict(
    seed=3,
    steps=800,
    ordered=True,
    n_transactions=3,
    n_entities=3,
    locks_per_txn=(2, 3),
    write_ratio=1.0,
)


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_same_seed_identical_fingerprints(self):
        a = fuzz_campaign(FuzzConfig(seed=42, steps=500))
        b = fuzz_campaign(FuzzConfig(seed=42, steps=500))
        assert a.ok and b.ok
        assert a.run_fingerprints == b.run_fingerprints
        assert a.fingerprint == b.fingerprint
        assert a.rounds == b.rounds
        assert a.total_steps == b.total_steps

    def test_different_seeds_diverge(self):
        a = fuzz_campaign(FuzzConfig(seed=1, steps=300))
        b = fuzz_campaign(FuzzConfig(seed=2, steps=300))
        assert a.fingerprint != b.fingerprint

    def test_single_run_trace_is_reproducible(self):
        config = WorkloadConfig(
            n_transactions=4, n_entities=4, locks_per_txn=(2, 3)
        )
        outcomes = [
            run_with_oracles(config, 7, RandomInterleaving(seed=9))
            for _ in range(2)
        ]
        assert outcomes[0].fingerprint == outcomes[1].fingerprint
        assert outcomes[0].schedule == outcomes[1].schedule

    def test_seed_42_campaign_fingerprint_is_pinned(self):
        """``repro fuzz --seed 42 --steps 2000 --check all``: the
        fingerprint ROADMAP's simplicity rule rests on (a simplification
        must leave it unchanged).  CI additionally runs it under two
        ``PYTHONHASHSEED`` values."""
        report = fuzz_campaign(FuzzConfig(seed=42, steps=2_000, checks="all"))
        assert report.failures == []
        assert report.fingerprint == (
            "c3846c13ba08b778d0e19239785ec6ee678b10826f7b0d4c8f5da75edf12e020"
        )

    def test_clean_campaign_across_all_strategies(self):
        report = fuzz_campaign(FuzzConfig(seed=42, steps=2_000))
        assert report.ok, [describe_failure(f) for f in report.failures]
        assert report.config.strategies == COPY_STRATEGIES
        assert report.deadlocks > 0  # the workloads must actually conflict
        assert report.commits > 0


# ---------------------------------------------------------------------------
# Oracle sensitivity: each oracle fires on a hand-built violating state
# ---------------------------------------------------------------------------


def _bare_scheduler(n_txns=2, entities=("a", "b"), **kwargs):
    db = Database({name: 0 for name in entities})
    scheduler = Scheduler(db, **kwargs)
    for i in range(1, n_txns + 1):
        scheduler.register(TransactionProgram(f"T{i}", []))
    return scheduler


def _event(outcome=StepOutcome.ADVANCED, txn_id="T1", **kwargs):
    return TraceEvent(step=0, txn_id=txn_id, outcome=outcome, **kwargs)


class TestOracleSensitivity:
    def test_graph_acyclic_fires_on_undetected_cycle(self):
        # Grant locks directly through the lock manager, bypassing
        # scheduler.step — so the 2-cycle forms with detection never run.
        s = _bare_scheduler()
        assert s.lock_manager.lock("T1", "a", LockMode.EXCLUSIVE)
        assert s.lock_manager.lock("T2", "b", LockMode.EXCLUSIVE)
        assert not s.lock_manager.lock("T1", "b", LockMode.EXCLUSIVE)
        assert not s.lock_manager.lock("T2", "a", LockMode.EXCLUSIVE)
        with pytest.raises(OracleViolation) as exc:
            GraphAcyclicOracle().check(s, _event())
        assert exc.value.oracle == "graph-acyclic"

    def test_forest_fires_on_indegree_two(self):
        # Two shared holders of one entity plus an exclusive waiter gives
        # the waiter in-degree 2 — impossible under Theorem 1's
        # exclusive-only assumption, so the forest test must fail.
        s = _bare_scheduler(n_txns=3)
        assert s.lock_manager.lock("T1", "a", LockMode.SHARED)
        assert s.lock_manager.lock("T2", "a", LockMode.SHARED)
        assert not s.lock_manager.lock("T3", "a", LockMode.EXCLUSIVE)
        with pytest.raises(OracleViolation) as exc:
            ForestOracle().check(s, _event())
        assert exc.value.oracle == "forest"

    def test_cycles_through_requester_fires_on_foreign_cycle(self):
        s = _bare_scheduler()
        bad = _event(
            outcome=StepOutcome.DEADLOCK,
            txn_id="T1",
            cycles=[["T2", "T3"]],  # does not contain the requester
        )
        with pytest.raises(OracleViolation) as exc:
            CyclesThroughRequesterOracle().check(s, bad)
        assert exc.value.oracle == "cycles-through-requester"

    def test_cycles_through_requester_fires_on_empty_cycles(self):
        s = _bare_scheduler()
        with pytest.raises(OracleViolation):
            CyclesThroughRequesterOracle().check(
                s, _event(outcome=StepOutcome.DEADLOCK, cycles=[])
            )

    def test_graph_consistency_fires_on_dropped_arc(self):
        s = _bare_scheduler()
        assert s.lock_manager.lock("T1", "a", LockMode.EXCLUSIVE)
        assert not s.lock_manager.lock("T2", "a", LockMode.EXCLUSIVE)
        GraphConsistencyOracle().check(s, _event())  # consistent: passes
        # Wipe the entity's live edges behind the lock table's back: the
        # incremental structure now misses the T1 -> T2 arc the rebuild
        # still derives.
        s.lock_manager.table.waits_for.refresh_entity("a", {}, ())
        with pytest.raises(OracleViolation) as exc:
            GraphConsistencyOracle().check(s, _event())
        assert exc.value.oracle == "graph-consistency"
        assert "missing" in str(exc.value)

    def test_graph_consistency_does_not_share_add_wait(self, monkeypatch):
        """The live graph and a ``from_lock_table`` rebuild both insert
        through ``ConcurrencyGraph.add_wait``; a fault there must still be
        caught, so the oracle's reference cannot be a rebuilt graph."""
        from repro.graphs import ConcurrencyGraph

        real_add_wait = ConcurrencyGraph.add_wait

        def drop_label_b(graph, holder, waiter, entity):
            if entity != "b":
                real_add_wait(graph, holder, waiter, entity)

        monkeypatch.setattr(ConcurrencyGraph, "add_wait", drop_label_b)
        s = _bare_scheduler()
        for entity in ("a", "b"):
            assert s.lock_manager.lock("T1", entity, LockMode.SHARED)
        assert not s.lock_manager.lock("T2", "a", LockMode.EXCLUSIVE)
        GraphConsistencyOracle().check(s, _event())  # "a" is unaffected
        s.lock_manager.cancel_wait("T2")
        assert not s.lock_manager.lock("T2", "b", LockMode.EXCLUSIVE)
        table = s.lock_manager.table
        # A rebuild is blind: it loses the same label the live graph did.
        assert table.waits_for.arcs == s.detector.snapshot().arcs == set()
        with pytest.raises(OracleViolation) as exc:
            GraphConsistencyOracle().check(s, _event())
        assert exc.value.oracle == "graph-consistency"
        assert "missing=[('T1', 'T2', 'b')]" in str(exc.value)

    @pytest.mark.parametrize(
        "status", [TxnStatus.BLOCKED, TxnStatus.SHED, TxnStatus.COMMITTED]
    )
    def test_graph_consistency_fires_on_status_written_behind_the_back(
        self, status
    ):
        """The status index is only as good as the single-writer rule: a
        status assigned directly (as ``test_flags_silent_shed`` does on
        purpose) leaves ``runnable()`` / ``blocked_count`` / ``all_done``
        stale, and the recount must say so."""
        s = _bare_scheduler()
        GraphConsistencyOracle().check(s, _event())  # consistent: passes
        s.transactions["T1"].status = status
        assert "T1" in s.runnable()  # the index never heard of it
        with pytest.raises(OracleViolation) as exc:
            GraphConsistencyOracle().check(s, _event())
        assert exc.value.oracle == "graph-consistency"
        assert "status index" in str(exc.value)

    def test_graph_consistency_fires_on_stale_copies_sum(self):
        s = _bare_scheduler()
        s._copies_sum += 7  # desync the running total from the recount
        with pytest.raises(OracleViolation) as exc:
            GraphConsistencyOracle().check(s, _event())
        assert "copies" in str(exc.value)

    def test_graph_consistency_in_default_suite(self):
        assert "graph-consistency" in oracle_names()
        names = [type(o).name for o in make_oracles("all")]
        assert "graph-consistency" in names

    def test_no_commit_loss_fires_on_committed_victim(self):
        s = _bare_scheduler()
        oracle = NoCommitLossOracle()
        # T1 commits (empty program: one step suffices)...
        result = s.step("T1")
        assert result.outcome is StepOutcome.COMMITTED
        oracle.check(s, _event(outcome=StepOutcome.COMMITTED, txn_id="T1"))
        # ...then a fabricated rollback names it as victim.
        s.metrics.record_rollback(
            victim="T1",
            requester="T2",
            target_ordinal=0,
            ideal_ordinal=0,
            states_lost=1,
        )
        with pytest.raises(OracleViolation) as exc:
            oracle.check(s, _event(txn_id="T2"))
        assert exc.value.oracle == "no-commit-loss"

    def test_lock_table_fires_on_phantom_grant(self):
        # A grant in the lock manager with no matching lock record on the
        # transaction: the two views disagree.
        s = _bare_scheduler()
        assert s.lock_manager.lock("T1", "a", LockMode.EXCLUSIVE)
        with pytest.raises(OracleViolation) as exc:
            LockTableConsistencyOracle().check(s, _event())
        assert exc.value.oracle == "lock-table"

    def test_preemption_order_fires_on_elder_victim(self):
        # T1 entered before T2, so T2 rolling back T1 runs young -> old,
        # the arc direction Theorem 2 forbids.
        s = _bare_scheduler()
        s.metrics.record_rollback(
            victim="T1",
            requester="T2",
            target_ordinal=0,
            ideal_ordinal=0,
            states_lost=1,
        )
        with pytest.raises(OracleViolation) as exc:
            PreemptionOrderOracle().check(s, _event(txn_id="T2"))
        assert exc.value.oracle == "preemption-order"

    def test_oracles_quiet_on_healthy_state(self):
        s = _bare_scheduler()
        event = _event()
        for oracle in make_oracles("all", exclusive_only=True):
            oracle.check(s, event)

    def test_make_oracles_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            make_oracles("no-such-oracle")

    def test_make_oracles_gates_conditional_oracles(self):
        names = [o.name for o in make_oracles("all", exclusive_only=False,
                                              ordered_policy=False)]
        assert "forest" not in names
        assert "preemption-order" not in names
        all_names = [o.name for o in make_oracles("all", exclusive_only=True,
                                                  ordered_policy=True)]
        assert sorted(all_names) == sorted(oracle_names())


# ---------------------------------------------------------------------------
# Fault injection: planted bugs are caught and shrunk
# ---------------------------------------------------------------------------


class TestFaultInjection:
    def test_broken_order_policy_caught_and_shrunk(self):
        report = fuzz_policy(BrokenOrderPolicy(), **BROKEN_POLICY_KWARGS)
        assert not report.ok
        failure = report.failures[0]
        assert failure.violation.oracle in (
            "preemption-order",
            "livelock-free",
        )
        assert failure.shrunk is not None
        assert failure.shrunk.length < failure.shrunk.original_length
        assert failure.shrunk.length <= 20
        # The minimal schedule still reproduces the same oracle.
        assert reproduces(failure.shrunk.case) is not None

    def test_first_cycle_only_policy_caught(self):
        report = fuzz_policy(
            FirstCycleOnlyPolicy(),
            seed=11,
            steps=6_000,
            ordered=False,
            n_transactions=6,
            n_entities=4,
            locks_per_txn=(2, 4),
            write_ratio=0.5,
        )
        assert not report.ok
        oracles_fired = {f.violation.oracle for f in report.failures}
        # Leaving secondary cycles unresolved shows up as an unresolved
        # cycle in the waits-for graph (or the engine stalling on it).
        assert oracles_fired & {"graph-acyclic", "engine"}

    def test_resolve_policy_knows_fault_and_production_names(self):
        assert isinstance(
            resolve_policy("broken-ordered-min-cost"), BrokenOrderPolicy
        )
        assert resolve_policy("youngest").name == "youngest"
        with pytest.raises(Exception):
            resolve_policy("no-such-policy")


# ---------------------------------------------------------------------------
# Shrinker
# ---------------------------------------------------------------------------


class TestShrinker:
    def test_shrink_returns_strictly_smaller_reproducing_case(self):
        report = fuzz_policy(BrokenOrderPolicy(), **BROKEN_POLICY_KWARGS)
        failure = report.failures[0]
        result = shrink(failure.case)
        assert result.length < len(failure.case.schedule)
        assert result.case.oracle == failure.case.oracle
        violation = reproduces(result.case)
        assert violation is not None
        assert violation.oracle == failure.case.oracle
        assert result.replays > 0

    def test_shrink_rejects_non_reproducing_case(self):
        config = WorkloadConfig(
            n_transactions=3, n_entities=3, locks_per_txn=(1, 2)
        )
        outcome = run_with_oracles(config, 5, RandomInterleaving(seed=5))
        assert outcome.ok
        healthy = ReplayCase(
            workload={"n_transactions": 3, "n_entities": 3,
                      "locks_per_txn": [1, 2]},
            workload_seed=5,
            strategy="mcs",
            policy="ordered-min-cost",
            schedule=outcome.schedule,
        )
        with pytest.raises(ValueError):
            shrink(healthy)

    def test_shrink_is_deterministic(self):
        report = fuzz_policy(BrokenOrderPolicy(), **BROKEN_POLICY_KWARGS)
        case = report.failures[0].case
        assert shrink(case).case.schedule == shrink(case).case.schedule


# ---------------------------------------------------------------------------
# Replay cases and regression files
# ---------------------------------------------------------------------------


class TestReplayRoundTrip:
    def test_case_json_roundtrip(self, tmp_path):
        report = fuzz_policy(BrokenOrderPolicy(), **BROKEN_POLICY_KWARGS)
        case = report.failures[0].shrunk.case
        path = save_case(case, tmp_path / "case.json")
        loaded, expect = load_case(path)
        assert loaded.schedule == case.schedule
        assert loaded.workload_config() == case.workload_config()
        assert expect == f"violation:{case.oracle}"
        check_case(loaded, expect)

    def test_replay_matches_original_violation(self):
        report = fuzz_policy(BrokenOrderPolicy(), **BROKEN_POLICY_KWARGS)
        case = report.failures[0].case
        outcome = replay(case)
        assert outcome.violation is not None
        assert outcome.violation.oracle == case.oracle

    def test_render_pytest_output_executes(self, tmp_path):
        report = fuzz_policy(BrokenOrderPolicy(), **BROKEN_POLICY_KWARGS)
        case = report.failures[0].shrunk.case
        source = render_pytest(case, "test_broken_order_minimal")
        assert "def test_broken_order_minimal" in source
        namespace = {}
        exec(compile(source, "<rendered>", "exec"), namespace)
        namespace["test_broken_order_minimal"]()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestFuzzCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["fuzz"])
        assert args.seed == 0
        assert args.steps == 2_000
        assert args.check == "all"

    def test_fuzz_clean_run_exit_zero(self, capsys):
        code = main(["fuzz", "--seed", "42", "--steps", "500"])
        out = capsys.readouterr().out
        assert code == 0
        assert "violations: 0" in out
        assert "fingerprint:" in out

    def test_fuzz_single_strategy_subset(self, capsys):
        code = main([
            "fuzz", "--seed", "1", "--steps", "200",
            "--strategies", "mcs", "--check", "graph-acyclic,lock-table",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "strategies: mcs" in out

    def test_fuzz_emit_writes_case_files(self, capsys, tmp_path):
        code = main([
            "fuzz", "--seed", "3", "--steps", "800",
            "--strategies", "mcs", "--policy", "broken-ordered-min-cost",
            "--ordered", "yes",
            "--transactions", "3", "--entities", "3", "--locks", "2", "3",
            "--write-ratio", "1.0", "--emit", str(tmp_path),
        ])
        assert code == 1
        emitted = sorted(tmp_path.glob("*.json"))
        assert emitted
        data = json.loads(emitted[0].read_text())
        assert data["expect"].startswith("violation:")
        case, expect = load_case(emitted[0])
        check_case(case, expect)

    def test_fuzz_time_budget_caps_runtime(self, capsys):
        code = main([
            "fuzz", "--seed", "5", "--steps", "100000000",
            "--time-budget", "1",
        ])
        assert code == 0


# ---------------------------------------------------------------------------
# Differential harness edge
# ---------------------------------------------------------------------------


class TestHarness:
    def test_engine_error_becomes_engine_violation(self):
        # A scripted replay whose schedule ends prematurely stops cleanly
        # instead of erroring out.
        config = WorkloadConfig(
            n_transactions=3, n_entities=3, locks_per_txn=(2, 3)
        )
        full = run_with_oracles(config, 1, RandomInterleaving(seed=1))
        assert full.ok
        case = ReplayCase(
            workload={"n_transactions": 3, "n_entities": 3,
                      "locks_per_txn": [2, 3]},
            workload_seed=1,
            strategy="mcs",
            policy="ordered-min-cost",
            schedule=full.schedule[:3],
        )
        outcome = replay(case)
        assert outcome.violation is None

    def test_workload_regeneration_matches(self):
        config = WorkloadConfig(
            n_transactions=4, n_entities=4, locks_per_txn=(2, 3)
        )
        _, programs_a = generate_workload(config, seed=13)
        _, programs_b = generate_workload(config, seed=13)
        assert [p.txn_id for p in programs_a] == [
            p.txn_id for p in programs_b
        ]
