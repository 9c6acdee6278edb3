"""Unified observability layer: traces, metrics and profiling.

Three cooperating pieces (see DESIGN.md § Observability):

``repro.obs.trace``
    Chrome trace-event recording -- one simulated-clock track per virtual
    PE (force / halo-comm / DLB / integrate spans, cell-migration instants)
    plus a host wall-clock track; loadable in Perfetto / ``chrome://tracing``.
``repro.obs.metrics``
    Counter/Gauge/Histogram registry with Prometheus-text and JSON-lines
    exporters, fed by the pair-search, traffic, balancer and timing stats.
``repro.obs.profiler``
    Low-overhead scoped wall-clock timers wired into the host-side hot
    paths; feeds both the registry and the trace's host track.
``repro.obs.events``
    The flight recorder: a schema-versioned, append-only JSONL event log of
    every consequential run event (balancer decisions with their timing
    inputs, migrations, faults, audits, checkpoints, engine lifecycle) with
    deterministic ``(step, seq)`` ordering across execution backends.
``repro.obs.imbalance``
    Per-step load-imbalance analytics: max/mean PE-time ratio, the paper's
    efficiency estimate, straggler attribution and the cumulative DLB
    benefit versus a no-balance counterfactual.

:class:`Observability` bundles these behind one nullable handle: the
runners accept ``observability=None`` (the default) and skip every hook, so
the un-instrumented path stays allocation-free.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass

from .events import (
    EVENT_KINDS,
    EVENT_SCHEMA_VERSION,
    EventLog,
    read_events,
    summarize_events,
    validate_events,
)
from .imbalance import ImbalanceTracker, collect_imbalance
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    collect_balancer,
    collect_neighbor_stats,
    collect_service,
    collect_timing,
    collect_traffic,
)
from .profiler import Profiler, scope
from .trace import TraceRecorder, validate_trace

__all__ = [
    "EVENT_KINDS",
    "EVENT_SCHEMA_VERSION",
    "Counter",
    "EventLog",
    "Gauge",
    "Histogram",
    "ImbalanceTracker",
    "MetricsRegistry",
    "Observability",
    "Profiler",
    "TraceRecorder",
    "collect_balancer",
    "collect_imbalance",
    "collect_neighbor_stats",
    "collect_service",
    "collect_timing",
    "collect_traffic",
    "read_events",
    "scope",
    "summarize_events",
    "validate_events",
    "validate_trace",
]


@dataclass
class Observability:
    """The nullable bundle the runners are instrumented against.

    Any member may be ``None``; a runner handed the bundle only exercises
    the members that exist. Construct via :meth:`create` to get the three
    wired together (profiler scopes land on the trace's host track and in
    the registry's histograms).
    """

    trace: TraceRecorder | None = None
    metrics: MetricsRegistry | None = None
    profiler: Profiler | None = None
    events: EventLog | None = None
    #: Destination for periodic metrics flushes (set by the CLI together
    #: with ``metrics_every``); ignored when either is unset.
    metrics_path: str | None = None
    #: Flush the registry to ``metrics_path`` every N steps (0 = only the
    #: final write the caller performs itself).
    metrics_every: int = 0

    @classmethod
    def create(
        cls,
        trace: bool = True,
        metrics: bool = True,
        profiler: bool = True,
        events: bool = False,
    ) -> "Observability":
        """Build a bundle with the requested members, cross-wired."""
        recorder = TraceRecorder() if trace else None
        registry = MetricsRegistry() if metrics else None
        prof = Profiler(trace=recorder, registry=registry) if profiler else None
        log = EventLog() if events else None
        return cls(trace=recorder, metrics=registry, profiler=prof, events=log)

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
        self.metrics.write(self.metrics_path)

    @contextmanager
    def activate(self) -> Iterator["Observability"]:
        """Install this bundle's profiler as the global scope target.

        The hot-path ``scope("...")`` hooks only record into the *active*
        profiler; wrap the instrumented run in this context so host kernel
        timings land here, and the previous profiler (usually none) comes
        back afterwards.
        """
        from . import profiler as _profiler_module

        if self.profiler is None:
            yield self
            return
        previous = _profiler_module.active()
        _profiler_module.enable(self.profiler)
        try:
            yield self
        finally:
            if previous is None:
                _profiler_module.disable()
            else:
                _profiler_module.enable(previous)
