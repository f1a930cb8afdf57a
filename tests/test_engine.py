"""Unit tests for the simulation engine, interleavings, and traces."""

import hashlib
import json
import random

import pytest

from repro import Database, Scheduler, TransactionProgram, ops
from repro.analysis.figures import Figure1Scenario
from repro.core.operations import Operation
from repro.core.scheduler import StepOutcome
from repro.errors import SimulationError
from repro.simulation import (
    RandomInterleaving,
    RoundRobin,
    Scripted,
    SimulationEngine,
    Trace,
    WorkloadConfig,
    generate_workload,
)
from repro.simulation import interleaving as interleaving_module


def make_engine(interleaving=None, n=3, **kwargs):
    db = Database({"a": 0, "b": 0, "c": 0})
    scheduler = Scheduler(db)
    engine = SimulationEngine(scheduler, interleaving, **kwargs)
    entities = ["a", "b", "c"]
    for i in range(n):
        entity = entities[i % 3]
        engine.add(TransactionProgram(f"T{i + 1}", [
            ops.lock_exclusive(entity),
            ops.write(entity, ops.entity(entity) + ops.const(1)),
        ]))
    return engine


class TestInterleavings:
    def test_round_robin_cycles(self):
        policy = RoundRobin()
        assert policy.choose(["T1", "T2", "T3"], 0) == "T1"
        assert policy.choose(["T1", "T2", "T3"], 1) == "T2"
        assert policy.choose(["T1", "T2", "T3"], 2) == "T3"
        assert policy.choose(["T1", "T2", "T3"], 3) == "T1"

    def test_round_robin_skips_missing(self):
        policy = RoundRobin()
        policy.choose(["T1", "T2"], 0)
        assert policy.choose(["T3"], 1) == "T3"

    def test_round_robin_reset(self):
        policy = RoundRobin()
        policy.choose(["T1", "T2"], 0)
        policy.reset()
        assert policy.choose(["T1", "T2"], 0) == "T1"

    def test_random_deterministic_by_seed(self):
        a = [RandomInterleaving(5).choose(["T1", "T2", "T3"], i)
             for i in range(20)]
        b = [RandomInterleaving(5).choose(["T1", "T2", "T3"], i)
             for i in range(20)]
        assert a == b

    def test_random_reset_restores_sequence(self):
        policy = RandomInterleaving(5)
        first = [policy.choose(["T1", "T2"], i) for i in range(10)]
        policy.reset()
        again = [policy.choose(["T1", "T2"], i) for i in range(10)]
        assert first == again

    def test_scripted_follows_schedule(self):
        policy = Scripted(["T2", "T1", "T2"])
        assert policy.choose(["T1", "T2"], 0) == "T2"
        assert policy.choose(["T1", "T2"], 1) == "T1"
        assert policy.choose(["T1", "T2"], 2) == "T2"
        assert policy.exhausted

    def test_scripted_skips_unavailable(self):
        policy = Scripted(["T9", "T1"])
        assert policy.choose(["T1"], 0) == "T1"

    def test_scripted_tuple_expansion(self):
        policy = Scripted([("T1", 2), "T2"])
        assert policy.choose(["T1", "T2"], 0) == "T1"
        assert policy.choose(["T1", "T2"], 1) == "T1"
        assert policy.choose(["T1", "T2"], 2) == "T2"

    def test_scripted_falls_back_to_round_robin(self):
        policy = Scripted(["T1"])
        policy.choose(["T1", "T2"], 0)
        assert policy.choose(["T1", "T2"], 1) in ("T1", "T2")


class TestEngineRun:
    def test_run_commits_everything(self):
        engine = make_engine()
        result = engine.run()
        assert sorted(result.committed) == ["T1", "T2", "T3"]
        assert result.metrics.commits == 3
        assert result.final_state == {"a": 1, "b": 1, "c": 1}
        assert not result.livelock_detected

    def test_same_seed_same_trace(self):
        r1 = make_engine(RandomInterleaving(3)).run()
        r2 = make_engine(RandomInterleaving(3)).run()
        assert [str(e) for e in r1.trace] == [str(e) for e in r2.trace]

    def test_step_budget(self):
        engine = make_engine(max_steps=2)
        with pytest.raises(SimulationError):
            engine.run()

    def test_run_for_and_run_to_block(self):
        db = Database({"a": 0})
        scheduler = Scheduler(db)
        engine = SimulationEngine(scheduler)
        engine.add(TransactionProgram("T1", [
            ops.lock_exclusive("a"),
            ops.write("a", ops.const(1)),
            ops.assign("x", ops.const(0)),
        ]))
        engine.add(TransactionProgram("T2", [
            ops.lock_exclusive("a"),
        ]))
        engine.run_for("T1", 2)
        result = engine.run_to_block("T2")
        assert result.outcome is StepOutcome.BLOCKED

    def test_run_to_block_on_committing_txn(self):
        db = Database({"a": 0})
        scheduler = Scheduler(db)
        engine = SimulationEngine(scheduler)
        engine.add(TransactionProgram("T1", [ops.lock_exclusive("a")]))
        result = engine.run_to_block("T1")
        assert result.outcome is StepOutcome.COMMITTED


class TestTrace:
    def test_records_operations(self):
        engine = make_engine(RoundRobin(), n=1)
        result = engine.run()
        ops_seen = [e.operation for e in result.trace]
        assert ops_seen[0] == "lock_x(a)"
        assert ops_seen[-1] == "commit"

    def test_commits_in_order(self):
        engine = make_engine()
        result = engine.run()
        assert len(result.trace.commits_in_order()) == 3

    def test_filter_by_outcome(self):
        engine = make_engine()
        result = engine.run()
        committed = result.trace.events(StepOutcome.COMMITTED)
        assert len(committed) == 3

    def test_render_limits(self):
        trace = Trace()
        assert trace.render() == ""

    def test_deadlock_events_carry_cycles(self):
        db = Database({"a": 0, "b": 0})
        scheduler = Scheduler(db)
        engine = SimulationEngine(scheduler)
        engine.add(TransactionProgram("T1", [
            ops.lock_exclusive("a"), ops.lock_exclusive("b"),
            ops.write("b", ops.const(1)),
        ]))
        engine.add(TransactionProgram("T2", [
            ops.lock_exclusive("b"), ops.lock_exclusive("a"),
            ops.write("a", ops.const(1)),
        ]))
        result = engine.run()
        deadlocks = result.trace.deadlock_events()
        assert len(deadlocks) == 1
        assert deadlocks[0].cycles
        assert deadlocks[0].actions


class TestLivelockDetection:
    def test_window_zero_disables(self):
        engine = make_engine(livelock_window=0)
        result = engine.run()
        assert not result.livelock_detected

    def test_no_false_positive_on_busy_run(self):
        engine = make_engine(livelock_window=10_000)
        result = engine.run()
        assert not result.livelock_detected

    def test_default_window_stops_figure2_livelock(self):
        """Figure 1's system under unordered min-cost preempts forever: a
        caller that passes no window gets a flagged result, not a spin to
        the step budget."""
        scenario = Figure1Scenario.build()
        scheduler = Scheduler(scenario.database, policy="min-cost")
        engine = SimulationEngine(scheduler, max_steps=50_000)
        for program in scenario.programs.values():
            engine.add(program)
        result = engine.run()
        assert result.livelock_detected and not result.all_committed
        assert result.steps == 20_021


# -- the runnable order contract ----------------------------------------------

#: Unpadded ids sort as T1, T10, ..., T14, T2, ...: id order, registration
#: order and numeric order all differ.
OUT_OF_ORDER = WorkloadConfig(
    n_transactions=14, n_entities=10, locks_per_txn=(2, 4), write_ratio=0.5
)
ORDER_STRATEGIES = ("total", "mcs", "single-copy", "undo-log", "k-copy:2")


def out_of_order_programs(seed):
    """The workload under unpadded ids, in a shuffled registration order."""
    db, programs = generate_workload(OUT_OF_ORDER, seed)
    programs = [
        TransactionProgram(f"T{i + 1}", program.operations)
        for i, program in enumerate(programs)
    ]
    random.Random(seed).shuffle(programs)
    return db, programs


def run_record(scheduler, extra=""):
    """What a run did, as text: metrics, rollbacks and the final state."""
    return json.dumps(
        [
            extra,
            scheduler.metrics.summary(),
            [vars(event) for event in scheduler.metrics.rollback_events],
            scheduler.database.snapshot(),
        ],
        sort_keys=True,
    )


def order_contract_digest():
    digest = hashlib.sha256()
    for seed in range(2):
        for strategy in ORDER_STRATEGIES:
            for driver in ("random", "round-robin", "scripted"):
                db, programs = out_of_order_programs(seed)
                interleaving = {
                    "random": RandomInterleaving(seed),
                    "round-robin": RoundRobin(),
                    "scripted": Scripted(
                        [p.txn_id for p in reversed(programs)] * 3
                    ),
                }[driver]
                scheduler = Scheduler(db, strategy)
                engine = SimulationEngine(scheduler, interleaving)
                for position, program in enumerate(programs):
                    if position % 3 == 2:
                        engine.add_at(position * 4, program)
                    else:
                        engine.add(program)
                result = engine.run()
                assert result.all_committed
                digest.update(
                    run_record(scheduler, result.trace.fingerprint()).encode()
                )
            db, programs = out_of_order_programs(seed)
            scheduler = Scheduler(db, strategy)
            for program in programs:
                scheduler.register(program)
            scheduler.run_until_quiescent()
            digest.update(run_record(scheduler).encode())
    return digest.hexdigest()


class TestRunnableOrder:
    def test_out_of_order_registration_digest(self):
        """Shuffled registrations of unpadded ids, with dynamic arrivals,
        under every built-in driver and five strategies: every choice is
        pinned byte for byte (the choices the interleavings made when they
        still sorted a registration-ordered list)."""
        assert order_contract_digest() == (
            "a8acbbb1e04494f4f9822beb7efd87abcd3669e8b6ca22b65051a06e47a8864a"
        )

    @pytest.mark.parametrize("interleaving", [RandomInterleaving(1),
                                              RoundRobin()])
    def test_engine_step_sorts_and_renders_nothing(
        self, monkeypatch, interleaving
    ):
        """With no bus sink, a run neither sorts the runnable list nor
        renders an operation's text: the trace keeps the operation."""
        calls = {"sorted": 0, "describe": 0}

        def counting_sorted(*args, **kwargs):
            calls["sorted"] += 1
            return sorted(*args, **kwargs)

        monkeypatch.setattr(
            interleaving_module, "sorted", counting_sorted, raising=False
        )
        for cls in Operation.__subclasses__():
            def counting_describe(op, _describe=cls.describe):
                calls["describe"] += 1
                return _describe(op)

            monkeypatch.setattr(cls, "describe", counting_describe)
        db, programs = out_of_order_programs(0)
        engine = SimulationEngine(Scheduler(db), interleaving)
        for program in programs:
            engine.add(program)
        result = engine.run()
        assert result.all_committed and result.steps > 100
        assert calls == {"sorted": 0, "describe": 0}
        # Reading the text renders it, and it is what describe() says.
        event = result.trace.events()[0]
        assert event.operation == event.ran.describe()
        assert calls["describe"] == 2
