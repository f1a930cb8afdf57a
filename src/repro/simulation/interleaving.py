"""Interleaving policies: who runs next.

The paper's results depend on *which* interleavings occur, so the engine
makes the choice explicit and reproducible: round-robin (fair,
deterministic), seeded-random (workload experiments), and scripted
(exact reproduction of the paper's figure scenarios).
"""

from __future__ import annotations

import abc
import random
from bisect import bisect_right
from typing import Iterable, Sequence

TxnId = str


class InterleavingPolicy(abc.ABC):
    """Chooses the next transaction to step among the runnable ones."""

    name: str = "abstract"

    @abc.abstractmethod
    def choose(self, runnable: Sequence[TxnId], step: int) -> TxnId:
        """Pick one of *runnable* (never empty, in id order, as
        :meth:`~repro.core.scheduler.Scheduler.runnable` returns it) for
        step number *step*."""

    def reset(self) -> None:
        """Clear any internal state before a fresh run."""


class RoundRobin(InterleavingPolicy):
    """Cycle through transactions in id order, skipping blocked ones.
    Fully deterministic."""

    name = "round-robin"

    def __init__(self) -> None:
        self._last: TxnId | None = None

    def choose(self, runnable: Sequence[TxnId], step: int) -> TxnId:
        chosen = runnable[0]
        if self._last is not None:
            at = bisect_right(runnable, self._last)
            if at < len(runnable):
                chosen = runnable[at]
        self._last = chosen
        return chosen

    def reset(self) -> None:
        self._last = None


class RandomInterleaving(InterleavingPolicy):
    """Uniformly random choice with a fixed seed: different seeds explore
    different schedules; the same seed reproduces a run exactly.

    The policy always draws from a private :class:`random.Random` — never
    from the module-global generator — so concurrent runs cannot perturb
    each other.  Pass ``rng`` to supply the generator instance directly
    (the verification fuzzer threads one generator through a whole
    campaign); with an explicit ``rng`` the caller owns its state and
    :meth:`reset` is a no-op, whereas seed-constructed policies rewind to
    the seed on every reset so each :meth:`SimulationEngine.run` replays
    the same choices.
    """

    name = "random"

    def __init__(
        self, seed: int = 0, rng: random.Random | None = None
    ) -> None:
        if rng is not None:
            self._seed: int | None = None
            self._rng = rng
        else:
            self._seed = seed
            self._rng = random.Random(seed)

    def choose(self, runnable: Sequence[TxnId], step: int) -> TxnId:
        return self._rng.choice(runnable)

    def reset(self) -> None:
        if self._seed is not None:
            self._rng = random.Random(self._seed)


class Scripted(InterleavingPolicy):
    """Follow an explicit schedule of transaction ids.

    Each schedule entry requests one step of that transaction; entries for
    transactions that are not currently runnable are skipped.  When the
    script is exhausted, control falls back to round-robin so runs always
    terminate.  Scripts may also be given as ``(txn_id, count)`` pairs.
    """

    name = "scripted"

    def __init__(
        self, schedule: Iterable[TxnId | tuple[TxnId, int]]
    ) -> None:
        expanded: list[TxnId] = []
        for item in schedule:
            if isinstance(item, tuple):
                txn_id, count = item
                expanded.extend([txn_id] * count)
            else:
                expanded.append(item)
        self._schedule = expanded
        self._position = 0
        self._fallback = RoundRobin()

    def choose(self, runnable: Sequence[TxnId], step: int) -> TxnId:
        while self._position < len(self._schedule):
            candidate = self._schedule[self._position]
            self._position += 1
            if candidate in runnable:
                return candidate
        return self._fallback.choose(runnable, step)

    @property
    def exhausted(self) -> bool:
        """True once every scripted entry has been consumed."""
        return self._position >= len(self._schedule)

    def reset(self) -> None:
        self._position = 0
        self._fallback.reset()
