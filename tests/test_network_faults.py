"""MessageLog fault filters and partition routing under network faults.

The accounting identity ``total == attempted - dropped - pending_delayed
+ duplicated`` must hold in every reachable state, and the distributed
scheduler's semantics must not change when messages are dropped or
duplicated — the log is the paper's §3.3 *cost model*, so faults perturb
the accounting, never the lock protocol.
"""

from repro import TransactionProgram, ops
from repro.distributed.network import (
    DeliveryAction,
    Message,
    MessageLog,
    MessageType,
)
from repro.distributed import (
    WOUND_WAIT,
    explicit_partition,
    round_robin_partition,
)
from repro.distributed.scheduler import DistributedScheduler
from repro.resilience import FaultInjector, FaultPlan, FaultEvent, FaultKind
from repro.simulation.engine import SimulationEngine
from repro.simulation.workload import (
    WorkloadConfig,
    expected_final_state,
    generate_workload,
)
from repro.storage.database import Database


def send_n(log: MessageLog, n: int) -> None:
    for i in range(n):
        log.send(0, 1, MessageType.LOCK_REQUEST, f"T{i:03d}", "e000")


class TestMessageLogFaults:
    def test_no_filter_delivers_everything(self):
        log = MessageLog()
        send_n(log, 5)
        assert log.total == 5
        assert log.attempted == 5
        assert log.consistent()

    def test_local_sends_never_reach_the_filter(self):
        seen = []
        log = MessageLog(
            fault_filter=lambda i, m: seen.append(i)
            or DeliveryAction.DELIVER
        )
        log.send(2, 2, MessageType.UNLOCK, "T001", "e000")
        assert seen == []
        assert log.attempted == 0

    def test_drop(self):
        log = MessageLog(
            fault_filter=lambda i, m: DeliveryAction.DROP
            if i == 1
            else DeliveryAction.DELIVER
        )
        send_n(log, 3)
        assert log.attempted == 3
        assert log.dropped == 1
        assert log.total == 2
        assert log.consistent()

    def test_duplicate(self):
        log = MessageLog(
            fault_filter=lambda i, m: DeliveryAction.DUPLICATE
            if i == 0
            else DeliveryAction.DELIVER
        )
        send_n(log, 2)
        assert log.total == 3
        assert log.duplicated == 1
        assert log.messages[0] == log.messages[1]
        assert log.consistent()

    def test_delay_and_reordered_flush(self):
        log = MessageLog(
            fault_filter=lambda i, m: DeliveryAction.DELAY
            if i == 0
            else DeliveryAction.DELIVER
        )
        send_n(log, 3)
        assert log.total == 2
        assert log.pending_delayed == 1
        assert log.consistent()
        released = log.flush_delayed()
        assert released == 1
        assert log.pending_delayed == 0
        assert log.total == 3
        assert log.consistent()
        # The delayed send 0 was delivered after sends 1 and 2: reordered.
        assert log.messages[-1].txn_id == "T000"

    def test_flush_limit(self):
        log = MessageLog(fault_filter=lambda i, m: DeliveryAction.DELAY)
        send_n(log, 4)
        assert log.flush_delayed(limit=3) == 3
        assert log.pending_delayed == 1
        assert log.consistent()

    def test_summary_reports_fault_counters_only_when_faulted(self):
        clean = MessageLog()
        send_n(clean, 2)
        assert "dropped" not in clean.summary()
        faulty = MessageLog(fault_filter=lambda i, m: DeliveryAction.DROP)
        send_n(faulty, 2)
        summary = faulty.summary()
        assert summary["attempted"] == 2
        assert summary["dropped"] == 2
        assert summary["total"] == 0


def run_distributed(config, seed, fault_plan=None, sites=2):
    database, programs = generate_workload(config, seed=seed)
    partition = round_robin_partition(
        database.snapshot().keys(), programs, sites
    )
    scheduler = DistributedScheduler(
        Database(database.snapshot()), partition, strategy="mcs"
    )
    engine = SimulationEngine(scheduler, max_steps=50_000)
    if fault_plan is not None:
        FaultInjector(fault_plan).attach(engine)
    for program in programs:
        engine.add(program)
    result = engine.run()
    return result, scheduler, partition


class TestPartitionRoutingUnderFaults:
    CONFIG = WorkloadConfig(
        n_transactions=4, n_entities=6, locks_per_txn=(2, 3)
    )

    def heavy_message_plan(self):
        # Every 3rd send dropped, every 7th duplicated, every 5th delayed.
        events = []
        for index in range(0, 120, 3):
            events.append(FaultEvent(FaultKind.MESSAGE_DROP, index))
        for index in range(1, 120, 7):
            events.append(FaultEvent(FaultKind.MESSAGE_DUPLICATE, index))
        for index in range(2, 120, 5):
            events.append(FaultEvent(FaultKind.MESSAGE_DELAY, index))
        return FaultPlan(seed=0, events=events)

    def test_semantics_unchanged_under_message_faults(self):
        database, programs = generate_workload(self.CONFIG, seed=4)
        expected = expected_final_state(database, programs)
        result, scheduler, _ = run_distributed(
            self.CONFIG, 4, fault_plan=self.heavy_message_plan()
        )
        assert sorted(result.committed) == sorted(
            p.txn_id for p in programs
        )
        assert result.final_state == expected
        assert scheduler.message_log.consistent()
        assert scheduler.message_log.dropped > 0

    def test_counters_reconcile_with_delivered_messages(self):
        _result, scheduler, _ = run_distributed(
            self.CONFIG, 4, fault_plan=self.heavy_message_plan()
        )
        log = scheduler.message_log
        assert len(log.messages) == log.total
        assert log.total == (
            log.attempted - log.dropped - log.pending_delayed
            + log.duplicated
        )
        per_kind = sum(log.counts.values())
        assert per_kind == log.total

    def test_routing_respects_partition_despite_faults(self):
        _result, scheduler, partition = run_distributed(
            self.CONFIG, 4, fault_plan=self.heavy_message_plan()
        )
        for message in scheduler.message_log.messages:
            assert message.sender != message.receiver
            assert 0 <= message.sender < partition.n_sites
            assert 0 <= message.receiver < partition.n_sites
            if message.kind in (
                MessageType.LOCK_REQUEST, MessageType.UNLOCK,
                MessageType.VALUE_SHIP,
            ):
                # Requests and releases flow home -> owner.
                assert (
                    partition.site_of_entity(message.entity)
                    == message.receiver
                )

    def test_fault_free_distributed_run_reconciles(self):
        _result, scheduler, _ = run_distributed(self.CONFIG, 4)
        log = scheduler.message_log
        assert log.consistent()
        assert log.attempted == log.total


class TestPartitionReachability:
    """The scheduler and the injector share one reachability rule: a
    site that no group of the partition spec names reaches no one."""

    def test_sites_outside_the_spec_cannot_wound(self):
        # Four sites; the spec "0|1" leaves sites 2 and 3 out.
        db = Database({"a2": 0, "b3": 0})
        view = explicit_partition({"a2": 2, "b3": 3}, {"OLD": 2, "YOUNG": 3})
        scheduler = DistributedScheduler(
            db, view, cross_site_mode=WOUND_WAIT, wait_timeout=50
        )
        engine = SimulationEngine(scheduler, max_steps=50_000)
        injector = FaultInjector(
            FaultPlan(
                seed=0,
                events=[FaultEvent(FaultKind.PARTITION, 0, "0|1", 10**6)],
            )
        )
        injector.attach(engine)
        for txn_id, first, second, delta in (
            ("OLD", "a2", "b3", 1),
            ("YOUNG", "b3", "a2", 10),
        ):
            engine.add(TransactionProgram(txn_id, [
                ops.lock_exclusive(first),
                ops.write(first, ops.entity(first) + ops.const(delta)),
                ops.lock_exclusive(second),
                ops.write(second, ops.entity(second) + ops.const(delta)),
            ]))
        engine.run_for("OLD", 2)     # event 0 splits the network
        engine.run_for("YOUNG", 2)
        assert not scheduler._reachable(2, 3)
        wound = Message(2, 3, MessageType.WOUND, "YOUNG")
        assert injector._on_send(0, wound) is DeliveryAction.DROP
        engine.run_to_block("OLD")   # OLD wants b3, held by younger YOUNG
        # The wound cannot cross the cut 2 <-> 3: the wait stands.
        assert scheduler.message_log.count(MessageType.WOUND) == 0
        assert scheduler.metrics.rollbacks == 0
        result = engine.run()        # the wait timeout breaks the cycle
        assert result.final_state == {"a2": 11, "b3": 11}
        assert scheduler.metrics.timeout_rollbacks >= 1
