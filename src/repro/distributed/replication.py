"""The old import path of the distributed scheduler, kept for the perf
benchmark's workloads until they import :mod:`.scheduler` directly."""

from .scheduler import DistributedScheduler as ReplicatedScheduler  # noqa: F401
