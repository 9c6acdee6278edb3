"""The run flight recorder: a schema-versioned, append-only JSONL event log.

Every consequential run event (accounted steps, balancer decisions with
their full :class:`~repro.dlb.views.TimingView` inputs, cell migrations,
faults, audits, run boundaries) is one JSON object with deterministic
``(step, seq)`` ordering, in one of two channels:

``sim`` (the canonical channel)
    Events of the *simulated* machine. Every emission happens on the driver
    in program order, so the serialised sim channel is byte-identical across
    execution backends: a sequential and a multiprocess run of the same
    workload write the same file, including under fault injection and across
    kill/resume (the buffer rides in the runner's checkpoint state).

``host``
    Facts of the *host* execution environment: engine worker lifecycle and
    checkpoint writes/resumes (written to a ``.host`` sidecar file), and one
    ``(name, start, seconds)`` wall-clock record per :func:`scope` the host
    ran while the log was :func:`recording`. These are real but inherently
    backend- and machine-dependent, so they are excluded from the
    determinism contract.

A ``step`` record holds the per-PE force, comm and other times, the DLB
charge, the simulated start, and the no-balance counterfactual barrier when
a balancer runs: the Chrome trace, the ``--profile`` table and the run
metrics are all rendered from the log. A run without a log (the runners'
``observability=None``) is allocation-free: every hook is one ``None``
check, and :func:`scope` with no recording log returns one shared no-op.
"""

from __future__ import annotations

import json
import time
from collections.abc import Iterator, Sequence
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Iterable

from ..errors import ConfigurationError, SchemaError
from .imbalance import ImbalanceFold

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "EVENT_KINDS",
    "EventLog",
    "profile",
    "read_events",
    "recording",
    "scope",
    "summarize_events",
    "validate_events",
]

#: Version of the event-record schema (the ``v`` field of every record).
EVENT_SCHEMA_VERSION = 1

#: Known event kinds of the sim channel (host-channel kinds are prefixed
#: ``engine.`` / ``checkpoint.`` and validated only loosely).
EVENT_KINDS = frozenset(
    {
        "run.start",
        "run.end",
        "step",
        "dlb.decision",
        "cell.migrate",
        "fault.message",
        "fault.compute",
        "audit",
    }
)

#: Fields every record carries, in serialisation-independent terms.
_REQUIRED_FIELDS = ("v", "step", "seq", "kind")


def _json_default(value: Any) -> Any:
    """Serialise numpy scalars/arrays that leak into event fields."""
    item = getattr(value, "item", None)
    if item is not None and getattr(value, "ndim", 1) == 0:
        return item()
    tolist = getattr(value, "tolist", None)
    if tolist is not None:
        return tolist()
    raise TypeError(f"event field of type {type(value)!r} is not JSON-serialisable")


def _dump(record: dict) -> str:
    """The canonical one-line serialisation (sorted keys, no whitespace)."""
    return json.dumps(
        record, sort_keys=True, separators=(",", ":"), default=_json_default
    )


def _append(buffer: list[dict], step: int, kind: str, fields: dict) -> None:
    buffer.append({"v": EVENT_SCHEMA_VERSION, "step": int(step),
                   "seq": len(buffer), "kind": kind, **fields})


class LogFold:
    """One log's aggregates over its first ``records`` records and
    ``scopes`` scopes, as :func:`~repro.obs.metrics.collect_events` files them.

    ``imbalance`` folds the ``step`` records; the counters here fold the
    ``cell.migrate`` records and the balancer rounds (``dlb.decision``
    records, whose ``send_own`` moves are lends and the rest returns).
    """

    def __init__(self) -> None:
        self.start: dict | None = None
        self.records = self.scopes = self.moves = 0
        self.rounds = self.lends = self.returns = self.idle_rounds = 0
        self.largest_round = 0
        self.imbalance: ImbalanceFold | None = None
        self.by_kernel: dict[str, list[float]] = {}

    def add(self, records: list[dict]) -> None:
        """Fold ``records``, the log's next ones."""
        for record in records:
            kind = record["kind"]
            if kind == "cell.migrate":
                self.moves += 1
            elif kind == "dlb.decision":
                moves = record["moves"]
                lends = sum(1 for move in moves if move["case"] == "send_own")
                self.rounds += 1
                self.lends += lends
                self.returns += len(moves) - lends
                self.idle_rounds += not moves
                self.largest_round = max(self.largest_round, len(moves))
        self.imbalance.add(records)
        self.records += len(records)


class EventLog:
    """Append-only event buffer with two channels and monotone sequencing.

    Events accumulate in memory (like the run's step records) and are
    written once at the end of a run; a killed run's partial file is simply
    superseded by the resumed run's complete one, which — because the buffer
    and the sequence counter are checkpointed with the runner — is
    byte-identical to an uninterrupted run's.
    """

    __slots__ = ("_records", "_host", "scopes", "epoch", "_fold")

    def __init__(self) -> None:
        # A record's ``seq`` is its index in its channel's buffer.
        self._records: list[dict] = []
        self._host: list[dict] = []
        #: Host wall-clock timings: ``(scope name, perf_counter start,
        #: seconds)``, appended by :func:`scope` while this log records.
        self.scopes: list[tuple[str, float, float]] = []
        #: ``perf_counter`` at creation: the origin of the host trace track.
        self.epoch = time.perf_counter()
        self._fold = LogFold()

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> list[dict]:
        """The sim-channel records, in ``(step, seq)`` emission order."""
        return list(self._records)

    def fold(self) -> "LogFold":
        """The log's running aggregates, advanced over what was appended
        since the last call (a restored buffer starts them afresh)."""
        fold = self._fold
        if fold.start is None:
            starts = (r for r in self._records if r["kind"] == "run.start")
            fold.start = next(starts, None)
            if fold.start is None:
                return fold
            fold.imbalance = ImbalanceFold(fold.start["n_pes"])
        fold.add(self._records[fold.records:])
        for name, _, seconds in self.scopes[fold.scopes:]:
            fold.by_kernel.setdefault(name, []).append(seconds)
        fold.scopes = len(self.scopes)
        return fold

    @property
    def host_records(self) -> list[dict]:
        """The host-channel records (backend-dependent, non-canonical)."""
        return list(self._host)

    def emit(self, step: int, kind: str, **fields: Any) -> None:
        """Append one sim-channel event.

        ``step`` is the simulation step the event belongs to; emissions must
        happen in non-decreasing step order (they do, because every sim
        emission is a driver-side program point inside the step loop).
        """
        _append(self._records, step, kind, fields)

    def emit_host(self, step: int, kind: str, **fields: Any) -> None:
        """Append one host-channel event."""
        _append(self._host, step, kind, fields)

    # -- serialisation -------------------------------------------------------

    def lines(self, channel: str = "sim") -> list[str]:
        """Canonical JSONL lines of one channel."""
        if channel == "sim":
            records: Iterable[dict] = self._records
        elif channel == "host":
            records = self._host
        else:
            raise ConfigurationError(f"unknown event channel {channel!r}")
        return [_dump(record) for record in records]

    def write(self, path: str | Path, channel: str = "sim") -> Path:
        """Write one channel as JSONL; returns the path written."""
        path = Path(path)
        lines = self.lines(channel)
        path.write_text("\n".join(lines) + ("\n" if lines else ""))
        return path

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot of the canonical (sim) channel and its sequence counter.

        Host events are deliberately excluded: they describe *this
        process's* execution environment and must not leak into a resumed
        run on a different host.
        """
        return {"seq": len(self._records), "records": [dict(r) for r in self._records]}

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict`."""
        self._records = [dict(r) for r in state["records"]]
        self._fold = LogFold()


# -- host timing scopes -------------------------------------------------------


class _Scope:
    """Active timing scope: appends one ``(name, start, seconds)`` on exit."""

    __slots__ = ("_scopes", "_name", "_start")

    def __init__(self, scopes: list, name: str) -> None:
        self._scopes = scopes
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_Scope":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        start = self._start
        self._scopes.append((self._name, start, time.perf_counter() - start))


#: Shared do-nothing scope for when no log records (allocation-free).
_NULL_SCOPE = nullcontext()

#: The log host scopes record into (None = not recording, the default).
_ACTIVE: EventLog | None = None


def active() -> EventLog | None:
    """The log :func:`scope` currently records into, if any."""
    return _ACTIVE


@contextmanager
def recording(log: EventLog | None) -> Iterator[EventLog | None]:
    """Make ``log`` the target of every :func:`scope` for the block.

    The previous target (usually none) comes back afterwards; ``None``
    switches recording off for the block.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = log
    try:
        yield log
    finally:
        _ACTIVE = previous


def scope(name: str) -> _Scope | nullcontext:
    """Time one ``with`` block into the recording log; a no-op when none."""
    log = _ACTIVE
    if log is None:
        return _NULL_SCOPE
    return _Scope(log.scopes, name)


def profile(logs: Sequence[EventLog]) -> dict[str, dict[str, float]]:
    """Per-scope call count, total, mean and max seconds over ``logs``,
    sorted by total time descending."""
    stats: dict[str, list[float]] = {}
    for log in logs:
        for name, _, seconds in log.scopes:
            stat = stats.setdefault(name, [0, 0.0, 0.0])
            stat[0] += 1
            stat[1] += seconds
            stat[2] = max(stat[2], seconds)
    return {
        name: {"count": count, "total_s": total, "mean_s": total / count,
               "max_s": peak}
        for name, (count, total, peak) in sorted(
            stats.items(), key=lambda item: -item[1][1]
        )
    }


# -- reading and validation --------------------------------------------------


def read_events(path: str | Path) -> list[dict]:
    """Load an events JSONL file written by :meth:`EventLog.write`."""
    path = Path(path)
    records: list[dict] = []
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}:{number}: not valid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise SchemaError(f"{path}:{number}: event must be a JSON object")
        records.append(record)
    return records


def validate_events(records: list[dict], source: str = "event log") -> None:
    """Check schema version, required fields and ``(step, seq)`` ordering.

    Raises :class:`~repro.errors.SchemaError` on the first problem. Unknown
    kinds are rejected for the sim-channel vocabulary; host-channel files
    (``engine.*`` / ``checkpoint.*`` kinds) pass the same structural checks.
    """
    previous: tuple[int, int] | None = None
    for index, record in enumerate(records):
        where = f"{source} record {index}"
        for field in _REQUIRED_FIELDS:
            if field not in record:
                raise SchemaError(f"{where}: missing required field {field!r}")
        if record["v"] != EVENT_SCHEMA_VERSION:
            raise SchemaError(
                f"{where}: schema version {record['v']!r} != {EVENT_SCHEMA_VERSION}"
            )
        if not isinstance(record["step"], int) or not isinstance(record["seq"], int):
            raise SchemaError(f"{where}: step/seq must be integers")
        kind = record["kind"]
        if not isinstance(kind, str) or not kind:
            raise SchemaError(f"{where}: kind must be a non-empty string")
        if kind not in EVENT_KINDS and not kind.startswith(("engine.", "checkpoint.")):
            raise SchemaError(f"{where}: unknown event kind {kind!r}")
        key = (record["step"], record["seq"])
        if previous is not None:
            if record["seq"] != previous[1] + 1:
                raise SchemaError(
                    f"{where}: sequence number {record['seq']} does not follow "
                    f"{previous[1]} (the log is append-only and gap-free)"
                )
            if record["step"] < previous[0]:
                raise SchemaError(
                    f"{where}: step {record['step']} goes backwards from "
                    f"{previous[0]} (events are emitted in step order)"
                )
        elif record["seq"] != 0:
            raise SchemaError(f"{where}: first record must have seq 0")
        previous = key


def summarize_events(records: list[dict]) -> dict:
    """Aggregate a record list into a JSON-friendly summary.

    Counts per kind, the step span, total cells moved (lends/returns),
    fault and audit tallies — the data behind ``repro events summary``.
    """
    kinds: dict[str, int] = {}
    steps: list[int] = []
    lends = returns = 0
    fault_messages = fault_stalls = 0
    audits = violations = 0
    imbalance: dict | None = None
    for record in records:
        kinds[record["kind"]] = kinds.get(record["kind"], 0) + 1
        steps.append(int(record.get("step", 0)))
        kind = record["kind"]
        if kind == "cell.migrate":
            if record.get("case") == "send_own":
                lends += 1
            else:
                returns += 1
        elif kind == "fault.message":
            fault_messages += 1
        elif kind == "fault.compute":
            fault_stalls += 1
        elif kind == "audit":
            audits += 1
            violations += int(record.get("problems", 0))
        elif kind == "run.end" and isinstance(record.get("imbalance"), dict):
            imbalance = record["imbalance"]
    return {
        "events": len(records),
        "kinds": dict(sorted(kinds.items())),
        "first_step": min(steps) if steps else None,
        "last_step": max(steps) if steps else None,
        "lends": lends,
        "returns": returns,
        "fault_messages": fault_messages,
        "fault_stalls": fault_stalls,
        "audits": audits,
        "audit_violations": violations,
        "imbalance": imbalance,
    }
