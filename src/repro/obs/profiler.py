"""Low-overhead scoped wall-clock timers for the host-side hot paths.

The hot kernels (pair search, decomposed force pass, DLB decision) are
bracketed with ``with scope("name"):``. When no profiler is active -- the
default -- :func:`scope` returns one shared no-op context manager, so the
disabled path costs a dict-free function call and nothing else (no
allocation, no clock read).

When a :class:`Profiler` is enabled it accumulates per-name count/total/
min/max statistics, optionally streams each sample into a
:class:`repro.obs.metrics.MetricsRegistry` histogram, and optionally emits
each scope as a wall-clock span on a :class:`repro.obs.trace.TraceRecorder`
host track -- so one instrumented run yields the table, the histogram and
the timeline at once. ``benchmarks/bench_kernels.py`` reuses the same
scopes to attribute kernel time.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from .metrics import MetricsRegistry
    from .trace import TraceRecorder

__all__ = [
    "Profiler",
    "TimerStat",
    "active",
    "disable",
    "enable",
    "scope",
]


class TimerStat:
    """Aggregate statistics of one named timer."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def update(self, seconds: float) -> None:
        """Fold one sample in."""
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    @property
    def mean(self) -> float:
        """Mean seconds per call."""
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "TimerStat") -> None:
        """Fold another stat's samples into this one."""
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max

    def as_dict(self) -> dict[str, float]:
        """Flat summary for reports and JSON dumps."""
        return {
            "count": self.count,
            "total_s": self.total,
            "mean_s": self.mean,
            "min_s": self.min if self.count else 0.0,
            "max_s": self.max,
        }


class _Scope:
    """Active timing scope: context manager recording on exit."""

    __slots__ = ("_profiler", "_name", "_start")

    def __init__(self, profiler: "Profiler", name: str) -> None:
        self._profiler = profiler
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_Scope":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        end = time.perf_counter()
        self._profiler.record(self._name, end - self._start, start=self._start)


class _NullScope:
    """Shared do-nothing scope for the disabled path (allocation-free)."""

    __slots__ = ()

    def __enter__(self) -> "_NullScope":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SCOPE = _NullScope()


class Profiler:
    """Accumulates scoped wall-clock timings.

    Parameters
    ----------
    trace:
        Optional trace recorder; each recorded scope becomes a span on the
        host wall-clock track (timestamps relative to the profiler's epoch).
    registry:
        Optional metrics registry; each sample is observed into the
        ``repro_host_kernel_seconds`` histogram with a ``kernel`` label.
    """

    def __init__(
        self,
        trace: "TraceRecorder | None" = None,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        self.trace = trace
        self.registry = registry
        self.stats: dict[str, TimerStat] = {}
        self.epoch = time.perf_counter()

    def timer(self, name: str) -> _Scope:
        """A context manager timing one ``with`` block under ``name``."""
        return _Scope(self, name)

    def record(self, name: str, seconds: float, start: float | None = None) -> None:
        """File one sample (``start`` is an absolute perf_counter stamp)."""
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = TimerStat()
        stat.update(seconds)
        if self.registry is not None:
            self.registry.histogram(
                "repro_host_kernel_seconds", "host wall-clock time per kernel scope"
            ).observe(seconds, kernel=name)
        if self.trace is not None:
            offset = (start - self.epoch) if start is not None else 0.0
            self.trace.host_span(name, offset, seconds)

    def state_dict(self) -> dict[str, dict[str, float]]:
        """Portable snapshot of every stat (for cross-process merging).

        Worker processes snapshot their local profiler on shutdown and ship
        the plain-dict state over a pipe; the driver folds it back in with
        :meth:`merge_state` so one profile covers all processes.
        """
        return {
            name: {
                "count": stat.count,
                "total": stat.total,
                "min": stat.min if stat.count else float("inf"),
                "max": stat.max,
            }
            for name, stat in self.stats.items()
        }

    def merge_state(self, state: dict[str, dict[str, float]], prefix: str = "") -> None:
        """Fold a :meth:`state_dict` snapshot in (optionally name-prefixed)."""
        for name, data in state.items():
            incoming = TimerStat()
            incoming.count = int(data["count"])
            incoming.total = float(data["total"])
            incoming.min = float(data["min"])
            incoming.max = float(data["max"])
            key = prefix + name
            stat = self.stats.get(key)
            if stat is None:
                stat = self.stats[key] = TimerStat()
            stat.merge(incoming)

    def as_dict(self) -> dict[str, dict[str, float]]:
        """Per-name summaries, sorted by total time descending."""
        return {
            name: stat.as_dict()
            for name, stat in sorted(
                self.stats.items(), key=lambda item: -item[1].total
            )
        }

    def table(self, title: str = "host kernel profile (wall clock)") -> str:
        """ASCII summary table of every recorded scope."""
        from ..reporting.tables import format_table  # lazy: avoids an import cycle

        rows = [
            (name, stat.count, stat.total, stat.mean, stat.max)
            for name, stat in sorted(
                self.stats.items(), key=lambda item: -item[1].total
            )
        ]
        return format_table(
            ["scope", "calls", "total [s]", "mean [s]", "max [s]"], rows, title=title
        )


#: The globally active profiler (None = disabled, the default).
_ACTIVE: Profiler | None = None


def enable(profiler: Profiler | None = None) -> Profiler:
    """Install ``profiler`` (or a fresh one) as the active profiler."""
    global _ACTIVE
    _ACTIVE = profiler if profiler is not None else Profiler()
    return _ACTIVE


def disable() -> Profiler | None:
    """Deactivate profiling; returns the previously active profiler."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = None
    return previous


def active() -> Profiler | None:
    """The currently active profiler, if any."""
    return _ACTIVE


def scope(name: str) -> _Scope | _NullScope:
    """Timing scope under the active profiler; a shared no-op when disabled."""
    profiler = _ACTIVE
    if profiler is None:
        return _NULL_SCOPE
    return profiler.timer(name)

