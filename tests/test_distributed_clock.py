"""The distributed clock's wait timers and stall expiries, held to the
per-step scan they replace.

``_scan_on_engine_step`` and ``_scan_runnable`` below are the clock as it
was when it re-scanned every blocked and every stalled transaction on
every engine step.  Each case runs once with them patched in and once
with the scheduler's own clock, and both runs must agree on the engine
trace, ``metrics.summary()``, ``message_log.counts`` and the final
database: the timers change what the clock costs, not what it decides.
"""

import random

import pytest

from repro.core.scheduler import Scheduler
from repro.core.transaction import TxnStatus
from repro.distributed import (
    DistributedScheduler,
    hash_view,
)
from repro.distributed.scenarios import run_scenario, scenario_names
from repro.errors import ReproError
from repro.simulation import (
    RandomInterleaving,
    SimulationEngine,
    WorkloadConfig,
    generate_workload,
)


def _scan_on_engine_step(self, step):
    self._clock += 1
    for txn_id, until in list(self._stalled_until.items()):
        if until <= self._clock:
            del self._stalled_until[txn_id]
    for txn_id, since in list(self._blocked_since.items()):
        txn = self.transactions.get(txn_id)
        if txn is None or txn.status is not TxnStatus.BLOCKED:
            self._blocked_since.pop(txn_id, None)
            continue
        if self._clock - since >= self.wait_timeout:
            self._timeout(txn)


def _scan_runnable(self):
    ready = Scheduler.runnable(self)
    if not self._stalled_until:
        return ready
    active = [
        txn_id
        for txn_id in ready
        if self._stalled_until.get(txn_id, 0) <= self._clock
    ]
    return active if active else ready


def _clocks_agree(monkeypatch, run):
    """Run ``run()`` under the scan, then under the timers, and check
    that both return the same and that every distributed scheduler
    they built sent the same messages; return the timers' result."""
    results = []
    for scan in (True, False):
        with monkeypatch.context() as patch:
            built = []
            init = DistributedScheduler.__init__

            def recording_init(self, *args, **kwargs):
                init(self, *args, **kwargs)
                built.append(self)

            patch.setattr(DistributedScheduler, "__init__", recording_init)
            if scan:
                patch.setattr(
                    DistributedScheduler, "on_engine_step",
                    _scan_on_engine_step,
                )
                patch.setattr(
                    DistributedScheduler, "runnable", _scan_runnable
                )
            outcome = run()
            counts = [dict(s.message_log.counts) for s in built]
        results.append((outcome, counts))
    (scan_outcome, scan_counts), (outcome, counts) = results
    assert outcome == scan_outcome
    assert counts == scan_counts
    return outcome


def _engine_run(config, seed, sites, **scheduler_kwargs):
    """One generated workload through a replicated scheduler; returns
    what the two clocks must agree on, plus every step's timeout
    rollbacks as ``(clock, txn_id)`` pairs."""
    db, programs = generate_workload(config, seed=seed)
    view = hash_view(db.names(), programs, sites, rf=2)
    scheduler = DistributedScheduler(
        db, view, strategy="mcs", policy="ordered-min-cost",
        **scheduler_kwargs,
    )
    fired = []
    timeout = scheduler._timeout

    def recording_timeout(txn):
        before = scheduler.metrics.summary()["timeout_rollbacks"]
        timeout(txn)
        if scheduler.metrics.summary()["timeout_rollbacks"] > before:
            fired.append((scheduler._clock, txn.txn_id))

    scheduler._timeout = recording_timeout
    engine = SimulationEngine(
        scheduler, RandomInterleaving(rng=random.Random(seed + 1)),
        max_steps=40_000, livelock_window=20_000, stop_on_livelock=True,
    )
    for program in programs:
        engine.add(program)
    try:
        engine.run()
        error = None
    except ReproError as exc:
        error = f"{type(exc).__name__}: {exc}"
    trace = [
        (e.step, e.txn_id, str(e.outcome), e.operation, e.cycles, e.actions)
        for e in engine.trace
    ]
    outcome = (trace, scheduler.metrics.summary(), db.snapshot(), error)
    return outcome, fired


def _out_of_order_steps(fired):
    """Steps firing two or more timeouts in other than txn-id order."""
    by_clock = {}
    for clock, txn_id in fired:
        by_clock.setdefault(clock, []).append(txn_id)
    return [
        clock for clock, txns in by_clock.items()
        if len(txns) > 1 and txns != sorted(txns)
    ]


DIST_REPL = WorkloadConfig(
    n_transactions=100, n_entities=200, locks_per_txn=(2, 4),
    write_ratio=0.6, skew="hotspot",
)
SMALL = WorkloadConfig(
    n_transactions=20, n_entities=30, locks_per_txn=(2, 4),
    write_ratio=0.6, skew="hotspot",
)


def test_dist_repl_shape(monkeypatch):
    """The benchmark's shape and timeout.  Its steps that fire several
    timeouts fire them in arming order, which is not txn-id order, so a
    clock keyed on txn ids would not pass."""
    out_of_order = []
    for seed in (1009, 1010, 1011):
        _outcome, fired = _clocks_agree(
            monkeypatch,
            lambda: _engine_run(DIST_REPL, seed, 8, wait_timeout=150),
        )
        out_of_order += _out_of_order_steps(fired)
    assert out_of_order, "no step fired several timeouts out of id order"


@pytest.mark.parametrize("wait_timeout", [1, 7])
@pytest.mark.parametrize("mode", ["wait-die", "probe"])
def test_small_shape(monkeypatch, mode, wait_timeout):
    _clocks_agree(
        monkeypatch,
        lambda: _engine_run(
            SMALL, 3, 5, cross_site_mode=mode, wait_timeout=wait_timeout
        ),
    )


def test_timer_keeps_its_place(monkeypatch):
    """Three-phase programs take their locks back to back, so a
    transaction a timeout unblocks can block again on the same step
    while its old timer still stands: the new timer keeps the old
    place.  Firing this case's timers in write order instead changes
    its outcome."""
    config = WorkloadConfig(
        n_transactions=12, n_entities=10, locks_per_txn=(2, 4),
        write_ratio=0.6, skew="hotspot", three_phase=True,
    )
    _clocks_agree(
        monkeypatch,
        lambda: _engine_run(
            config, 201, 8, cross_site_mode="wait-die", wait_timeout=2
        ),
    )


@pytest.mark.parametrize("name", scenario_names())
def test_scenario(monkeypatch, name):
    def run():
        chaos = run_scenario(name).chaos_outcome
        return (
            chaos.fingerprint(), chaos.metrics_summaries, chaos.committed,
            chaos.final_state, str(chaos.violation),
        )

    _clocks_agree(monkeypatch, run)
