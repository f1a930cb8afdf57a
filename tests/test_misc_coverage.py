"""Assorted coverage: engine statistics, error hierarchy, CLI sweep,
renderer on live systems, and library metadata."""

import pytest

import repro
from repro import Database, Scheduler, TransactionProgram, ops
from repro.cli import main
from repro.errors import (
    ConsistencyViolation,
    DeadlockUnresolvableError,
    LockError,
    ProtocolViolation,
    ReproError,
    RollbackError,
    SimulationError,
    UnknownEntityError,
    UnknownTransactionError,
)
from repro.graphs.render import concurrency_to_dot, sdg_to_ascii
from repro.simulation import SimulationEngine, RoundRobin


class TestErrorHierarchy:
    @pytest.mark.parametrize("exc", [
        ProtocolViolation, LockError, UnknownEntityError,
        UnknownTransactionError, RollbackError,
        DeadlockUnresolvableError, SimulationError, ConsistencyViolation,
    ])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("boom")


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_exports_resolve(self):
        import repro.analysis
        import repro.baselines
        import repro.core
        import repro.distributed
        import repro.simulation

        for module in (repro.analysis, repro.baselines, repro.core,
                       repro.distributed, repro.simulation):
            for name in module.__all__:
                assert hasattr(module, name), (module.__name__, name)


class TestEngineStatistics:
    def make_engine(self):
        db = Database({"a": 0})
        scheduler = Scheduler(db)
        engine = SimulationEngine(scheduler, RoundRobin())
        for i in range(3):
            engine.add(TransactionProgram(f"T{i}", [
                ops.lock_exclusive("a"),
                ops.write("a", ops.entity("a") + ops.const(1)),
            ]))
        return engine

    def test_mean_runnable_and_blocked(self):
        result = self.make_engine().run()
        assert result.mean_runnable >= 1.0
        assert result.mean_blocked >= 0.0
        assert result.final_state == {"a": 3}

    def test_all_committed_flag(self):
        result = self.make_engine().run()
        assert result.all_committed


class TestCliSweep:
    def test_sweep_strategy_axis(self, capsys):
        code = main(["sweep", "--transactions", "5", "--entities", "5",
                     "--seeds", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mcs" in out and "total" in out
        assert "serializable" in out

    def test_sweep_concurrency_axis(self, capsys):
        code = main(["sweep", "--transactions", "4", "--entities", "8",
                     "--seeds", "1", "--axis", "concurrency"])
        out = capsys.readouterr().out
        assert code == 0
        assert "n=2" in out and "n=8" in out

    @staticmethod
    def _livelock_first_run(monkeypatch):
        """Report the sweep's first engine run as livelocked."""
        from dataclasses import replace

        from repro.verification import harness

        class FirstRunLivelocks(harness.SimulationEngine):
            runs = 0

            def run(self):
                result = super().run()
                FirstRunLivelocks.runs += 1
                if FirstRunLivelocks.runs == 1:
                    result = replace(result, livelock_detected=True)
                return result

        monkeypatch.setattr(harness, "SimulationEngine", FirstRunLivelocks)

    def test_sweep_fails_on_livelock_under_ordered_policy(
        self, capsys, monkeypatch
    ):
        self._livelock_first_run(monkeypatch)
        code = main(["sweep", "--transactions", "5", "--entities", "5",
                     "--seeds", "1"])
        out = capsys.readouterr().out
        assert code == 1
        first = out.splitlines()[2].split()[0]  # header, rule, first cell
        assert f"livelock under an ordered policy in cell {first}" in out
        assert out.count("livelock under an ordered policy") == 1

    def test_sweep_reports_livelock_under_unordered_policy(
        self, capsys, monkeypatch
    ):
        self._livelock_first_run(monkeypatch)
        code = main(["sweep", "--transactions", "5", "--entities", "5",
                     "--seeds", "1", "--policy", "min-cost"])
        out = capsys.readouterr().out
        assert code == 0
        assert "livelock under an ordered policy" not in out
        header, _rule, first = out.splitlines()[:3]
        column = header.split().index("livelocks")
        assert first.split()[column] == "1"


class TestRenderOnLiveSystem:
    def test_dot_from_scheduler_snapshot(self):
        db = Database({"a": 0})
        scheduler = Scheduler(db)
        scheduler.register(TransactionProgram("T1", [
            ops.lock_exclusive("a"),
            ops.write("a", ops.const(1)),
        ]))
        scheduler.register(TransactionProgram("T2", [
            ops.lock_exclusive("a"),
        ]))
        scheduler.step("T1")
        scheduler.step("T2")
        dot = concurrency_to_dot(scheduler.concurrency_graph())
        assert '"T1" -> "T2" [label="a"];' in dot

    def test_sdg_ascii_from_live_strategy(self):
        from repro.core.single_copy import SingleCopyStrategy

        strategy = SingleCopyStrategy()
        db = Database({"a": 0, "b": 0, "c": 0})
        scheduler = Scheduler(db, strategy=strategy)
        txn = scheduler.register(TransactionProgram("T1", [
            ops.lock_exclusive("a"),
            ops.write("a", ops.const(1)),
            ops.lock_exclusive("b"),
            ops.lock_exclusive("c"),
            ops.write("a", ops.const(2)),
        ]))
        while txn.current_operation() is not None:
            scheduler.step("T1")
        text = sdg_to_ascii(strategy.graph_of(txn))
        assert "(2)" in text and "(3)" in text   # killed states marked


class TestGraphIndexConsistency:
    def test_indexes_survive_removal(self):
        from repro.graphs import ConcurrencyGraph

        g = ConcurrencyGraph()
        g.add_wait("A", "B", "x")
        g.add_wait("A", "B", "y")
        g.add_wait("B", "C", "z")
        g.remove_wait("A", "B", "x")
        assert g.entity_between("A", "B") == {"y"}
        assert {a.entity for a in g.holds_waited_on("A")} == {"y"}
        g.remove_transaction("B")
        assert g.entity_between("A", "B") == set()
        assert g.waits_of("C") == set()
        assert len(g) == 0

    def test_duplicate_add_is_idempotent(self):
        from repro.graphs import ConcurrencyGraph

        g = ConcurrencyGraph()
        g.add_wait("A", "B", "x")
        g.add_wait("A", "B", "x")
        assert len(g) == 1
        g.remove_wait("A", "B", "x")
        assert len(g) == 0
