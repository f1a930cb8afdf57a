"""Run-wide observability: event bus, spans, time series, exporters.

Only the event-bus primitives are re-exported here — every core module
imports them (``from ..observability.events import ...``), and anything
heavier would create import cycles back into the layers that publish.
Consumers (recorder, spans, streaming aggregator, exporters, scenarios) are
imported by their full module path, typically lazily from the CLI.
"""

from .events import NULL_BUS, Event, EventBus, EventKind, NullBus, events_of

__all__ = [
    "NULL_BUS",
    "Event",
    "EventBus",
    "EventKind",
    "NullBus",
    "events_of",
]
