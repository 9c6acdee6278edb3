"""Result containers of parallel runs, and the versioned result schema.

Every JSON artifact this library persists — ``repro run --result-json``
payloads, campaign store payloads, checkpoint metadata — declares
:data:`RESULT_SCHEMA_VERSION` under the ``schema_version`` key and goes
through the one writer/reader pair here (:func:`write_result_json` /
:func:`read_result_json`, with :func:`attach_schema_version` /
:func:`check_schema_version` underneath). Versions are ``major.minor``:
minor bumps are additive and readable by older minors; an unknown *major*
is rejected with :class:`~repro.errors.SchemaError`.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from ..errors import AnalysisError, SchemaError
from ..parallel.instrumentation import StepTiming, TimingLog
from ..theory.concentration import ConcentrationState
from ..theory.trajectory import Trajectory, TrajectoryRecorder

#: Schema version stamped into every persisted result payload.
RESULT_SCHEMA_VERSION = "1.0"


def parse_schema_version(version: str) -> tuple[int, int]:
    """Split a ``"major.minor"`` string; raises :class:`SchemaError` if malformed."""
    parts = str(version).split(".")
    try:
        major, minor = (int(parts[0]), int(parts[1])) if len(parts) == 2 else (None, None)
    except ValueError:
        major = None
        minor = None
    if major is None or minor is None or major < 0 or minor < 0:
        raise SchemaError(f"malformed schema_version {version!r} (want 'major.minor')")
    return major, minor


def attach_schema_version(payload: dict[str, Any]) -> dict[str, Any]:
    """Return ``payload`` with ``schema_version`` stamped (input unmodified).

    An existing ``schema_version`` key is preserved — re-persisting an
    artifact must not silently re-version it.
    """
    if "schema_version" in payload:
        return dict(payload)
    return {"schema_version": RESULT_SCHEMA_VERSION, **payload}


def check_schema_version(payload: dict[str, Any], source: str = "payload") -> dict[str, Any]:
    """Validate a payload's declared schema version; returns the payload.

    Rejects a missing declaration and any *major* version this library does
    not understand; a newer *minor* of the same major is accepted (additive
    changes only, by contract).
    """
    declared = payload.get("schema_version")
    if declared is None:
        raise SchemaError(
            f"{source} carries no schema_version; refusing to guess its layout"
        )
    major, _minor = parse_schema_version(declared)
    supported_major, _ = parse_schema_version(RESULT_SCHEMA_VERSION)
    if major != supported_major:
        raise SchemaError(
            f"{source} has schema_version {declared}, but this library reads "
            f"major version {supported_major} (current "
            f"{RESULT_SCHEMA_VERSION}); upgrade the library or regenerate "
            "the artifact"
        )
    return payload


def write_result_json(path: str | Path, payload: dict[str, Any]) -> None:
    """Persist a result payload as versioned, sorted-key JSON."""
    Path(path).write_text(
        json.dumps(attach_schema_version(payload), indent=2, sort_keys=True)
    )


def read_result_json(path: str | Path, source: str | None = None) -> dict[str, Any]:
    """Load and schema-check a payload written by :func:`write_result_json`."""
    target = Path(path)
    payload = json.loads(target.read_text())
    if not isinstance(payload, dict):
        raise SchemaError(f"{target} does not contain a JSON object")
    return check_schema_version(payload, source=source or str(target))


@dataclass(frozen=True)
class StepRecord:
    """Everything recorded about one simulated step."""

    step: int
    timing: StepTiming
    concentration: ConcentrationState
    n_moves: int
    temperature: float = float("nan")
    potential_energy: float = float("nan")


@dataclass
class RunResult:
    """History of a DDM or DLB-DDM run.

    ``timing`` carries the Figure 5/6 series; ``trajectory`` the Figure 9
    series; ``records`` the full per-step details.
    """

    dlb_enabled: bool
    records: list[StepRecord] = field(default_factory=list)
    timing: TimingLog = field(default_factory=TimingLog)
    _trajectory: TrajectoryRecorder = field(default_factory=TrajectoryRecorder)
    total_moves: int = 0
    #: Provenance sidecar filled by :func:`repro.api.simulate` (engine name,
    #: worker count, preset, resume point, audit summary). Not hashed by
    #: :meth:`digest` — two runs that computed the same physics digest
    #: equal even if one ran multiprocess and the other sequential.
    meta: dict[str, Any] = field(default_factory=dict)

    def append(self, record: StepRecord) -> None:
        """Add one step record, updating the derived logs."""
        self.records.append(record)
        self.timing.append(record.timing)
        self._trajectory.record(record.step, record.concentration)
        self.total_moves += record.n_moves

    @property
    def trajectory(self) -> Trajectory:
        """The (n, C0/C) trajectory of the run."""
        return self._trajectory.freeze()

    @property
    def steps(self) -> np.ndarray:
        """Recorded step indices."""
        return self.timing.steps

    @property
    def tt(self) -> np.ndarray:
        """Execution time per step (the Figure 5 series)."""
        return self.timing.tt

    @property
    def spread(self) -> np.ndarray:
        """``Fmax - Fmin`` per step (the boundary detector's input)."""
        return self.timing.spread

    def mean_tt(self, tail_fraction: float = 1.0) -> float:
        """Mean execution time over the last ``tail_fraction`` of the run."""
        if not 0 < tail_fraction <= 1:
            raise AnalysisError(f"tail_fraction must be in (0, 1], got {tail_fraction}")
        tt = self.tt
        start = int(len(tt) * (1.0 - tail_fraction))
        return float(tt[start:].mean())

    def digest(self) -> str:
        """Canonical SHA-256 over every recorded number, bit-for-bit.

        Two runs (or a run and its killed-then-resumed continuation) are
        byte-identical exactly when their digests match: every float is
        hashed via its IEEE-754 bytes, so even a 1-ulp divergence changes
        the digest. This is what the ``chaos`` scenario group compares.
        """
        h = hashlib.sha256()
        h.update(b"dlb" if self.dlb_enabled else b"ddm")
        for rec in self.records:
            t, c = rec.timing, rec.concentration
            h.update(
                struct.pack(
                    "<qq6dqqddqqdd",
                    rec.step,
                    t.step, t.tt, t.fmax, t.fave, t.fmin, t.comm_max, t.dlb_time,
                    int(c.n_cells), int(c.empty_cells),
                    float(c.c0_ratio), float(c.n), int(c.max_domain_cells),
                    rec.n_moves,
                    rec.temperature, rec.potential_energy,
                )
            )
        return h.hexdigest()

    def summary(self) -> dict[str, float]:
        """Headline numbers of the run (for reports and quick comparisons)."""
        tt = self.tt
        spread = self.spread
        return {
            "steps": float(len(tt)),
            "tt_first": float(tt[0]),
            "tt_last": float(tt[-1]),
            "tt_mean": float(tt.mean()),
            "tt_max": float(tt.max()),
            "spread_first": float(spread[0]),
            "spread_last": float(spread[-1]),
            "total_moves": float(self.total_moves),
        }
