"""Message records and traffic accounting for the simulated machine."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError


@dataclass(frozen=True)
class Message:
    """One point-to-point message in the simulated machine."""

    src: int
    dst: int
    n_bytes: int
    tag: str = ""

    def __post_init__(self) -> None:
        if self.src < 0 or self.dst < 0:
            raise ConfigurationError("PE ids must be non-negative")
        if self.n_bytes < 0:
            raise ConfigurationError("n_bytes must be non-negative")


@dataclass
class TagTraffic:
    """Per-tag aggregate: bytes carried and messages sent.

    The seed only tracked bytes per tag, which made a tag's *message count*
    unrecoverable (latency-dominated phases like the DLB bookkeeping
    broadcasts are invisible in byte counts). Both now accumulate together.
    """

    bytes: int = 0
    messages: int = 0

    def add(self, n_bytes: int, count: int) -> None:
        """Fold ``count`` messages totalling ``n_bytes`` in."""
        self.bytes += int(n_bytes)
        self.messages += int(count)


@dataclass
class TrafficLog:
    """Aggregate traffic counters, per PE and per tag.

    Records are cheap scalars, not message objects, so logging every step of
    a long run stays O(P) in memory. ``by_tag`` maps each tag to a
    :class:`TagTraffic` (bytes *and* message counts).
    """

    n_pes: int
    bytes_sent: np.ndarray = field(init=False)
    bytes_received: np.ndarray = field(init=False)
    messages_sent: np.ndarray = field(init=False)
    by_tag: dict[str, TagTraffic] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_pes <= 0:
            raise ConfigurationError(f"n_pes must be positive, got {self.n_pes}")
        self.bytes_sent = np.zeros(self.n_pes, dtype=np.int64)
        self.bytes_received = np.zeros(self.n_pes, dtype=np.int64)
        self.messages_sent = np.zeros(self.n_pes, dtype=np.int64)

    def _tag(self, tag: str) -> TagTraffic:
        stats = self.by_tag.get(tag)
        if stats is None:
            stats = self.by_tag[tag] = TagTraffic()
        return stats

    def record(self, message: Message) -> None:
        """Account one message."""
        if message.src >= self.n_pes or message.dst >= self.n_pes:
            raise ConfigurationError(
                f"message endpoints ({message.src}, {message.dst}) outside machine of "
                f"{self.n_pes} PEs"
            )
        self.bytes_sent[message.src] += message.n_bytes
        self.bytes_received[message.dst] += message.n_bytes
        self.messages_sent[message.src] += 1
        if message.tag:
            self._tag(message.tag).add(message.n_bytes, 1)

    def record_bulk(self, src: int, dst: int, n_bytes: int, count: int = 1, tag: str = "") -> None:
        """Account ``count`` messages totalling ``n_bytes`` without objects."""
        if n_bytes < 0 or count < 0:
            raise ConfigurationError("bytes and count must be non-negative")
        if not (0 <= src < self.n_pes and 0 <= dst < self.n_pes):
            raise ConfigurationError(
                f"endpoints ({src}, {dst}) outside machine of {self.n_pes} PEs"
            )
        self.bytes_sent[src] += n_bytes
        self.bytes_received[dst] += n_bytes
        self.messages_sent[src] += count
        if tag:
            self._tag(tag).add(n_bytes, count)

    def record_per_pe(self, sent: np.ndarray, received: np.ndarray,
                      messages: np.ndarray, tag: str = "") -> None:
        """Account a whole phase from its ``(n_pes,)`` integer totals: bytes
        each PE sent, bytes each PE received, messages each PE sent."""
        if not sent.shape == received.shape == messages.shape == (self.n_pes,):
            raise ConfigurationError(f"per-PE totals must have shape ({self.n_pes},)")
        if min(sent.min(), received.min(), messages.min()) < 0:
            raise ConfigurationError("bytes and messages must be non-negative")
        self.bytes_sent += sent
        self.bytes_received += received
        self.messages_sent += messages
        if tag:
            self._tag(tag).add(sent.sum(), messages.sum())

    @property
    def total_bytes(self) -> int:
        """Total bytes sent machine-wide."""
        return int(self.bytes_sent.sum())

    @property
    def total_messages(self) -> int:
        """Total messages sent machine-wide."""
        return int(self.messages_sent.sum())

    def summary(self) -> dict:
        """Flat summary for the metrics exporter and reports."""
        return {
            "total_bytes": self.total_bytes,
            "total_messages": self.total_messages,
            "max_pe_bytes_sent": int(self.bytes_sent.max()),
            "by_tag": {
                tag: {"bytes": stats.bytes, "messages": stats.messages}
                for tag, stats in sorted(self.by_tag.items())
            },
        }
