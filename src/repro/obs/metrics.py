"""Counter/Gauge/Histogram registry with Prometheus-text export.

One :class:`MetricsRegistry` collects everything a run produces -- the
pair-search counters (:class:`repro.md.neighbors.NeighborStats`) and the
traffic log's per-tag bytes/messages, which the event log does not carry,
and every family folded from the run's event log (balancer rounds, step
times, imbalance, steps, migrations, host kernel time) -- and serialises it
in the Prometheus text exposition format.

Metrics are labelled: ``counter.inc(3, mode="dlb")`` keeps one value per
label set, which is how a single registry holds the DDM and DLB-DDM sides of
a comparison run.
"""

from __future__ import annotations

import functools
import math
import re
from pathlib import Path
from typing import TYPE_CHECKING

from ..errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints only
    from ..md.neighbors import NeighborStats
    from ..parallel.message import TrafficLog
    from .events import EventLog

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TIME_BUCKETS",
    "collect_events",
    "collect_neighbor_stats",
    "collect_service",
    "collect_traffic",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets for (simulated or host) seconds: log-spaced
#: from microseconds to tens of seconds.
TIME_BUCKETS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0,
)

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> LabelKey:
    for key in labels:
        if not _LABEL_RE.match(key):
            raise ConfigurationError(f"invalid label name {key!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Backslash, double-quote and newline must be escaped (in that order, so
    the escaping backslashes are not themselves re-escaped).
    """
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    """Escape HELP text per the exposition format (backslash and newline)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


@functools.lru_cache(maxsize=4096)
def _format_labels(key: LabelKey, extra: str = "") -> str:
    parts = [f'{k}="{_escape_label_value(v)}"' for k, v in key]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class _Metric:
    """Common machinery of all metric types."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        if not _NAME_RE.match(name):
            raise ConfigurationError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help

    def samples(self) -> list[tuple[str, str, float]]:
        """``(sample_name, label_string, value)`` triples for the exporter."""
        raise NotImplementedError


class _Valued(_Metric):
    """A metric holding one float per label set."""

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: dict[LabelKey, float] = {}

    def samples(self) -> list[tuple[str, str, float]]:
        return [
            (self.name, _format_labels(key), value)
            for key, value in sorted(self._values.items())
        ]


class Counter(_Valued):
    """A monotonically increasing count, one value per label set."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (must be non-negative) to the labelled value."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name} cannot decrease (got {amount})"
            )
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        """Current value of one label set (0 if never incremented)."""
        return self._values.get(_label_key(labels), 0.0)


class Gauge(_Valued):
    """A point-in-time value, one per label set."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        """Record the labelled value (overwrites)."""
        self._values[_label_key(labels)] = float(value)

    def value(self, **labels: str) -> float:
        """Current value of one label set (NaN if never set)."""
        return self._values.get(_label_key(labels), math.nan)


class Histogram(_Metric):
    """Cumulative-bucket histogram (Prometheus semantics).

    ``buckets`` are the finite upper bounds, ascending; an implicit ``+Inf``
    bucket always exists.
    """

    kind = "histogram"

    def __init__(
        self, name: str, help: str = "", buckets: tuple[float, ...] = TIME_BUCKETS
    ) -> None:
        super().__init__(name, help)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ConfigurationError(f"histogram {name} needs at least one bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ConfigurationError(
                f"histogram {name} buckets must be strictly ascending: {bounds}"
            )
        self.buckets = bounds
        #: Per label set: the observations of each finite bucket, then the
        #: sum and the count of all observations.
        self._states: dict[LabelKey, list] = {}

    def observe(self, value: float, **labels: str) -> None:
        """File one observation into the labelled histogram."""
        key = _label_key(labels)
        state = self._states.get(key)
        if state is None:
            state = self._states[key] = [[0] * len(self.buckets), 0.0, 0]
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                state[0][index] += 1
                break
        state[1] += float(value)
        state[2] += 1

    def count(self, **labels: str) -> int:
        """Number of observations of one label set."""
        return self._states.get(_label_key(labels), (None, 0.0, 0))[2]

    def sum(self, **labels: str) -> float:
        """Sum of observations of one label set."""
        return self._states.get(_label_key(labels), (None, 0.0, 0))[1]

    def samples(self) -> list[tuple[str, str, float]]:
        out: list[tuple[str, str, float]] = []
        les = [f'le="{bound:g}"' for bound in self.buckets]
        for key, (in_buckets, total, count) in sorted(self._states.items()):
            cumulative = 0
            for le, in_bucket in zip(les, in_buckets):
                cumulative += in_bucket
                out.append(
                    (f"{self.name}_bucket", _format_labels(key, le), float(cumulative))
                )
            out.append(
                (f"{self.name}_bucket", _format_labels(key, 'le="+Inf"'), float(count))
            )
            out.append((f"{self.name}_sum", _format_labels(key), total))
            out.append((f"{self.name}_count", _format_labels(key), float(count)))
        return out


class MetricsRegistry:
    """Registry of named metrics with get-or-create accessors and exporters."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}

    def _get_or_create(self, cls: type, name: str, help: str, **kwargs) -> _Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ConfigurationError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = cls(name, help, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create a counter."""
        return self._get_or_create(Counter, name, help)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create a gauge."""
        return self._get_or_create(Gauge, name, help)  # type: ignore[return-value]

    def histogram(
        self, name: str, help: str = "", buckets: tuple[float, ...] = TIME_BUCKETS
    ) -> Histogram:
        """Get or create a histogram (buckets only apply on first creation)."""
        return self._get_or_create(  # type: ignore[return-value]
            Histogram, name, help, buckets=buckets
        )

    def __len__(self) -> int:
        return len(self._metrics)

    # -- exporters ---------------------------------------------------------

    def to_prometheus_text(self) -> str:
        """Prometheus text exposition format (the ``.prom`` file content)."""
        lines: list[str] = []
        for metric in self._metrics.values():
            if metric.help:
                lines.append(f"# HELP {metric.name} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for sample_name, label_str, value in metric.samples():
                lines.append(f"{sample_name}{label_str} {value:g}")
        return "\n".join(lines) + "\n"

    def write(self, path: str | Path) -> Path:
        """Write the registry to ``path`` as Prometheus text.

        An existing file is overwritten in place, then cut to length:
        truncating on open frees and reallocates its blocks, which at a
        flush per step costs more than rendering the text.
        """
        path = Path(path)
        with open(path, "r+b" if path.exists() else "wb") as fh:
            fh.write(self.to_prometheus_text().encode())
            fh.truncate()
        return path


# -- collectors ------------------------------------------------------------
#
# Each collector snapshots one source (the pair-search counters, the traffic
# log, a run's event log, a service snapshot) into the registry. Cumulative
# sources are folded in as deltas against the counter's current value, so
# re-collecting (a second run() on the same runner, or an explicit collect
# after an automatic one) is idempotent rather than double-counting.


def _set_total(counter: Counter, total: float, **labels: str) -> None:
    """Advance ``counter`` to ``total`` (no-op if it is already there)."""
    delta = total - counter.value(**labels)
    if delta > 0:
        counter.inc(delta, **labels)


def collect_neighbor_stats(
    registry: MetricsRegistry, stats: "NeighborStats", **labels: str
) -> None:
    """File pair-search counters (Verlet rebuilds/reuses, selectivity)."""
    _set_total(
        registry.counter("repro_neighbor_rebuilds_total", "full pair searches executed"),
        stats.rebuilds, **labels,
    )
    _set_total(
        registry.counter(
            "repro_neighbor_reuses_total",
            "force evaluations served from the Verlet cache",
        ),
        stats.reuses, **labels,
    )
    _set_total(
        registry.counter(
            "repro_neighbor_candidate_pairs_total", "candidate pairs emitted by searches"
        ),
        stats.total_candidates, **labels,
    )
    _set_total(
        registry.counter(
            "repro_neighbor_accepted_pairs_total", "pairs within the true cut-off"
        ),
        stats.total_accepted, **labels,
    )
    registry.gauge(
        "repro_neighbor_reuse_ratio", "fraction of evaluations without a search"
    ).set(stats.reuse_ratio, **labels)
    registry.gauge(
        "repro_neighbor_acceptance_ratio", "accepted / candidate pairs"
    ).set(stats.acceptance_ratio, **labels)


def collect_traffic(
    registry: MetricsRegistry, traffic: "TrafficLog", **labels: str
) -> None:
    """File the traffic log's per-tag bytes/messages and machine totals."""
    summary = traffic.summary()
    bytes_counter = registry.counter(
        "repro_traffic_bytes_total", "bytes sent on the simulated network, by tag"
    )
    messages_counter = registry.counter(
        "repro_traffic_messages_total", "messages sent on the simulated network, by tag"
    )
    for tag, tag_stats in summary["by_tag"].items():
        _set_total(bytes_counter, tag_stats["bytes"], tag=tag, **labels)
        _set_total(messages_counter, tag_stats["messages"], tag=tag, **labels)
    _set_total(
        registry.counter("repro_traffic_total_bytes", "total bytes sent machine-wide"),
        summary["total_bytes"], **labels,
    )
    _set_total(
        registry.counter(
            "repro_traffic_total_messages", "total messages sent machine-wide"
        ),
        summary["total_messages"], **labels,
    )
    registry.gauge(
        "repro_traffic_max_pe_bytes_sent", "bytes sent by the busiest PE"
    ).set(summary["max_pe_bytes_sent"], **labels)


def collect_service(registry: MetricsRegistry, snapshot: dict, **labels: str) -> None:
    """File a simulation-service snapshot: queue depth and run states.

    ``snapshot`` is the plain-dict view the service exposes (queue depth,
    in-flight claims, active streams, drain flag); the point-in-time values
    land as gauges on every scrape, while the service's request/dedup
    counters increment live and are not re-collected here.
    """
    registry.gauge(
        "repro_service_queue_depth", "runs waiting in the service queue"
    ).set(float(snapshot.get("queue_depth", 0)), **labels)
    registry.gauge(
        "repro_service_inflight_runs", "runs this service has claimed and not resolved"
    ).set(float(snapshot.get("inflight", 0)), **labels)
    registry.gauge(
        "repro_service_active_streams", "open progress-stream connections"
    ).set(float(snapshot.get("streams", 0)), **labels)
    registry.gauge(
        "repro_service_draining", "1 while a SIGTERM drain is in progress"
    ).set(1.0 if snapshot.get("draining") else 0.0, **labels)
    registry.gauge(
        "repro_service_fleet_instances",
        "service instances with a live heartbeat on this run store",
    ).set(float(snapshot.get("instances", 0)), **labels)


#: (gauge, help, imbalance-summary key) filed by :func:`collect_events`.
_IMBALANCE_GAUGES = (
    ("repro_imbalance_ratio_mean", "mean max/mean PE step-time ratio",
     "mean_ratio"),
    ("repro_imbalance_efficiency_mean",
     "mean parallel-efficiency estimate (mean/max PE time)", "mean_efficiency"),
    ("repro_imbalance_ratio_worst", "largest observed max/mean PE-time ratio",
     "worst_ratio"),
)


def collect_events(registry: MetricsRegistry, log: "EventLog") -> None:
    """File one run's event log, labelled with its mode and balancer (from
    ``run.start``, so runs sharing a registry keep one series each): the
    balancer's rounds, the step-time and imbalance series, step and
    migration counts, the imbalance gauges and straggler counter, and every
    host scope in ``repro_host_kernel_seconds``. Idempotent, so the registry
    can be refilled at every flush and at the final write; each call folds
    only the records and scopes appended since the last one on ``log``."""
    fold = log.fold()
    if fold.start is None:
        return
    labels = {"mode": fold.start["mode"], "balancer": fold.start["dlb"]["balancer"]}
    if fold.rounds:
        for name, help, total in (
            ("repro_dlb_rounds_total", "redistribution rounds executed", fold.rounds),
            ("repro_dlb_lends_total", "cells lent to a neighbour (Case 1)", fold.lends),
            ("repro_dlb_returns_total", "borrowed cells returned (Cases 2-3)",
             fold.returns),
            ("repro_dlb_idle_rounds_total", "rounds that moved nothing",
             fold.idle_rounds),
        ):
            _set_total(registry.counter(name, help), total, **labels)
        registry.gauge(
            "repro_dlb_moves_per_round_max", "largest single-round move count"
        ).set(fold.largest_round, **labels)
    steps = fold.imbalance  # the step records' fold
    if steps.steps:
        registry.gauge("repro_step_time_mean_seconds", "mean Tt over the run").set(
            steps.actual / steps.steps, **labels
        )
        registry.gauge("repro_step_time_max_seconds", "max Tt over the run").set(
            steps.tt_max, **labels
        )
        registry.gauge(
            "repro_step_imbalance_last_seconds", "final-step Fmax - Fmin"
        ).set(steps.spreads[-1], **labels)
        histogram = registry.histogram(
            "repro_step_imbalance_seconds", "per-step Fmax - Fmin distribution"
        )
        for value in steps.spreads[histogram.count(**labels):]:
            histogram.observe(value, **labels)
        # Families are created in the order the text file lists them; every
        # migration follows a round decided on an accounted step.
        if fold.moves:
            migrations = registry.counter(
                "repro_cell_migrations_total", "cells moved by the balancer"
            )
            _set_total(migrations, fold.moves, **labels)
        total = registry.counter("repro_steps_total", "simulated steps executed")
        _set_total(total, steps.steps, **labels)
        summary = steps.summary()
        for name, help, key in _IMBALANCE_GAUGES:
            registry.gauge(name, help).set(summary[key], **labels)
        straggler = registry.counter(
            "repro_straggler_steps_total", "steps on which a PE set the barrier"
        )
        for pe, count in enumerate(summary["straggler_counts"]):
            if count:
                _set_total(straggler, float(count), pe=str(pe), **labels)
        if summary["dlb_benefit_seconds"] is not None:
            registry.gauge(
                "repro_dlb_benefit_seconds",
                "simulated seconds saved vs the no-balance counterfactual",
            ).set(summary["dlb_benefit_seconds"], **labels)
    if log.scopes:
        histogram = registry.histogram(
            "repro_host_kernel_seconds", "host wall-clock time per kernel scope"
        )
        # Scope records only ever append: observe the ones not filed yet.
        for name, values in fold.by_kernel.items():
            for value in values[histogram.count(kernel=name, **labels):]:
                histogram.observe(value, kernel=name, **labels)
