"""Observability: one record per run, and the views rendered from it.

The run's :class:`EventLog` (:mod:`repro.obs.events`) is the one timed
record: sim events with deterministic ``(step, seq)`` ordering (one ``step``
record per accounted step, balancer decisions, migrations, faults, audits)
and the host channel (engine lifecycle, checkpoints, :func:`scope` timings).
:mod:`repro.obs.trace` renders logs as a Chrome trace,
:mod:`repro.obs.metrics` folds every run-metric family from them (only the
pair-search counters and the network traffic, which no record carries, come
from their stats objects), and :mod:`repro.obs.imbalance` summarises their
``step`` records.

:class:`Observability` bundles a run's log and a registry behind one
nullable handle: the runners accept ``observability=None`` (the default)
and skip every hook, so the un-instrumented path stays allocation-free.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass

from .events import (
    EventLog,
    profile,
    read_events,
    recording,
    scope,
    summarize_events,
    validate_events,
)
from .imbalance import imbalance_summary
from .metrics import (
    MetricsRegistry,
    collect_events,
    collect_neighbor_stats,
    collect_service,
    collect_traffic,
)
from .trace import render_trace, validate_trace, write_trace

__all__ = [
    "EventLog",
    "MetricsRegistry",
    "Observability",
    "collect_events",
    "collect_neighbor_stats",
    "collect_service",
    "collect_traffic",
    "imbalance_summary",
    "profile",
    "read_events",
    "recording",
    "render_trace",
    "scope",
    "summarize_events",
    "validate_events",
    "validate_trace",
    "write_trace",
]


@dataclass
class Observability:
    """The nullable bundle the runners are instrumented against.

    ``events`` is the run's one record (None: nothing is recorded), and
    ``metrics`` the registry it is rendered into, together with the
    pair-search and traffic counters (None: no metrics). Several runs may share one
    registry, each with its own log.
    """

    events: EventLog | None = None
    metrics: MetricsRegistry | None = None
    #: Destination for periodic metrics flushes (set by the CLI together
    #: with ``metrics_every``); ignored when either is unset.
    metrics_path: str | None = None
    #: Flush the registry to ``metrics_path`` every N steps (0 = only the
    #: final write the caller performs itself).
    metrics_every: int = 0

    @classmethod
    def create(cls, metrics: bool = True) -> "Observability":
        """A bundle with a fresh log and, unless disabled, a registry."""
        return cls(events=EventLog(), metrics=MetricsRegistry() if metrics else None)

    def maybe_flush(self, step: int) -> None:
        """Write the metrics registry to ``metrics_path`` on its cadence.

        Called by the runners once per step; a no-op unless both a path and
        a positive ``metrics_every`` are configured, so long runs expose
        progress without changing the single-final-write default.
        """
        if (
            self.metrics is None
            or self.metrics_path is None
            or self.metrics_every <= 0
            or step % self.metrics_every != 0
        ):
            return
        if self.events is not None:
            collect_events(self.metrics, self.events)
        self.metrics.write(self.metrics_path)

    @contextmanager
    def activate(self) -> Iterator["Observability"]:
        """Record every host :func:`scope` of the block into this log.

        The hot-path ``scope("...")`` hooks only record into the *recording*
        log; wrap the instrumented run in this context so host kernel
        timings land here, and the previous log (usually none) comes back
        afterwards.
        """
        if self.events is None:
            yield self
            return
        with recording(self.events):
            yield self
