"""Chrome trace rendering of one or more runs' event logs.

:func:`render_trace` turns :class:`~repro.obs.events.EventLog` records into
the `Trace Event Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
(the JSON that ``chrome://tracing`` and Perfetto load). Run ``i`` of the list
gets process id ``i`` with one simulated-clock track per virtual PE: each
``step`` record becomes a ``dlb`` / ``force`` / ``halo-comm`` / ``integrate``
span per PE, and each ``cell.migrate`` record an instant on its source and
its destination PE at the start of the step it is charged to. Every host
:func:`~repro.obs.events.scope` record becomes a span on the wall-clock
track :data:`HOST_PID`. Timestamps are in microseconds.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..errors import AnalysisError

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from .events import EventLog

__all__ = [
    "HOST_PID",
    "REQUIRED_EVENT_KEYS",
    "SECONDS_TO_US",
    "render_trace",
    "validate_trace",
    "write_trace",
]

#: Scale from (simulated or host) seconds to trace-event microseconds.
SECONDS_TO_US = 1e6

#: Process id of the host wall-clock track.
HOST_PID = 1000

#: Keys every emitted trace event must carry (schema contract, also checked
#: by :func:`validate_trace` and the CI smoke run).
REQUIRED_EVENT_KEYS = ("name", "ph", "ts", "pid", "tid")

#: Span names of the per-PE phase timeline, in within-step order.
_PHASE_SPANS = ("dlb", "force", "halo-comm", "integrate")


def _metadata(name: str, pid: int, tid: int, args: dict) -> dict[str, Any]:
    return {"name": name, "ph": "M", "ts": 0, "pid": pid, "tid": tid, "args": args}


def _run_events(pid: int, records: list[dict]) -> list[dict[str, Any]]:
    """The simulated-clock events of one run's sim records."""
    start = next((r for r in records if r["kind"] == "run.start"), None)
    label = start["dlb"]["balancer"] if start is not None else f"run {pid}"
    events = [
        _metadata("process_name", pid, 0, {"name": f"{label} (simulated clock)"}),
        _metadata("process_sort_index", pid, 0, {"sort_index": pid}),
    ]
    if start is not None:
        events += [
            _metadata("thread_name", pid, pe, {"name": f"PE {pe}"})
            for pe in range(start["n_pes"])
        ]
    # A round's migrations are charged to the next accounted step, and are
    # drawn at that step's start.
    pending: list[dict] = []
    for record in records:
        kind = record["kind"]
        if kind == "cell.migrate":
            pending.append(record)
            continue
        if kind != "step":
            continue
        base = record["start"]
        for move in pending:
            cell, src, dst = move["cell"], move["src"], move["dst"]
            args = {"cell": cell, "src": src, "dst": dst}
            for name, pe in ((f"migrate cell {cell} → PE {dst}", src),
                             (f"receive cell {cell} ← PE {src}", dst)):
                events.append({
                    "name": name, "cat": "dlb", "ph": "i", "s": "t",
                    "ts": base * SECONDS_TO_US, "pid": pid, "tid": pe, "args": args,
                })
        pending = []
        step_args = {"step": record["step"]}
        phases = zip(record["force"], record["comm"], record["other"])
        for pe, (force, comm, other) in enumerate(phases):
            cursor = base
            for name, duration in zip(_PHASE_SPANS, (record["dlb"], force, comm, other)):
                if duration > 0.0:
                    events.append({
                        "name": name, "cat": "phase", "ph": "X",
                        "ts": cursor * SECONDS_TO_US, "dur": duration * SECONDS_TO_US,
                        "pid": pid, "tid": pe, "args": step_args,
                    })
                cursor += duration
    return events


def render_trace(logs: Sequence["EventLog"]) -> dict[str, Any]:
    """The trace payload of ``logs``: run ``i`` gets process id ``i``, and
    every log's host scopes share the :data:`HOST_PID` track."""
    events: list[dict[str, Any]] = []
    for pid, log in enumerate(logs):
        events += _run_events(pid, log.records)
    scopes = [record for log in logs for record in log.scopes]
    if scopes:
        epoch = min(log.epoch for log in logs)
        events += [
            _metadata("process_name", HOST_PID, 0, {"name": "host (wall clock)"}),
            _metadata("process_sort_index", HOST_PID, 0, {"sort_index": HOST_PID}),
            _metadata("thread_name", HOST_PID, 0, {"name": "profiler"}),
        ]
        events += [
            {"name": name, "cat": "host", "ph": "X",
             "ts": (start - epoch) * SECONDS_TO_US, "dur": seconds * SECONDS_TO_US,
             "pid": HOST_PID, "tid": 0}
            for name, start, seconds in scopes
        ]
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs.trace"},
    }


def write_trace(path: str | Path, logs: Sequence["EventLog"]) -> int:
    """Render ``logs`` to ``path``; returns the number of trace events."""
    payload = render_trace(logs)
    Path(path).write_text(json.dumps(payload) + "\n")
    return len(payload["traceEvents"])


def validate_trace(payload: dict[str, Any]) -> None:
    """Check a loaded trace payload against the schema contract.

    Raises :class:`repro.errors.AnalysisError` on the first violation: a
    missing ``traceEvents`` list, an event without the required keys, or a
    complete event without a duration.
    """
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        raise AnalysisError("trace payload has no 'traceEvents' list")
    events = payload["traceEvents"]
    if not isinstance(events, list):
        raise AnalysisError("'traceEvents' is not a list")
    for index, event in enumerate(events):
        for key in REQUIRED_EVENT_KEYS:
            if key not in event:
                raise AnalysisError(f"event {index} is missing required key {key!r}")
        if event["ph"] == "X" and "dur" not in event:
            raise AnalysisError(f"complete event {index} has no 'dur'")
