"""Exception hierarchy for the :mod:`repro` package.

All errors raised by this library derive from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while letting
programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """Raised when a configuration object is internally inconsistent.

    Examples: a cell size smaller than the cutoff or an unknown balancer
    name; a PE count or cell grid that admits no square-pillar decomposition
    raises the subclass :class:`DecompositionError`.
    """


class GeometryError(ReproError):
    """Raised for invalid spatial inputs (out-of-box positions, bad cell ids)."""


class DecompositionError(ConfigurationError):
    """Raised when a cell grid and PE count admit no square-pillar
    decomposition (:class:`repro.config.DecompositionConfig`), or when a
    cell-to-PE assignment violates a structural invariant."""


class ProtocolError(ReproError):
    """Raised when the DLB redistribution protocol is asked to do an illegal
    move (e.g. migrating a permanent cell or lending a cell that is already
    lent out)."""


class SimulationError(ReproError):
    """Raised when a simulation reaches a non-physical state (NaN forces,
    particle escaping the periodic box after wrapping, ...)."""


class AnalysisError(ReproError):
    """Raised by the theory/analysis layer (e.g. boundary detection on a
    series that never diverges, fitting with no data points)."""


class CampaignError(ReproError):
    """Raised by the campaign engine (unknown campaign name, malformed run
    spec, store schema mismatch, or a run exceeding its time budget)."""


class FaultInjectionError(ReproError):
    """Raised for an invalid fault plan (negative probability, unknown fault
    field, a rule naming a PE outside the machine) or a fault the injector
    cannot apply to the requested hook."""


class InvariantViolation(ReproError):
    """Raised by the invariant auditor when a structural guarantee of the
    permanent-cell protocol is broken at runtime: a permanent cell away from
    home, a cell with zero or two holders, a borrowed-cell ledger that does
    not round-trip, particle-count loss, or non-finite forces."""


class EngineError(ReproError):
    """Raised by the execution-engine layer (unknown engine name, a worker
    process that died or raised, an engine bound to a mismatched workload,
    or use of an engine after :meth:`close`)."""


class ServiceError(ReproError):
    """Raised by the simulation service layer (malformed HTTP request, a
    route that does not exist, a worker pool used after shutdown, or a
    submission the queue cannot accept)."""


class SchemaError(ReproError):
    """Raised when a persisted artifact (result JSON, campaign payload,
    checkpoint metadata) declares a schema version this library cannot
    read — i.e. an unknown major version."""


class CheckpointError(ReproError):
    """Raised when a checkpoint cannot be written, found, or restored (no
    snapshot in the directory, corrupt/truncated file, or a snapshot taken
    under an incompatible configuration)."""


class CheckpointMismatchError(CheckpointError):
    """Raised when a readable snapshot belongs to a different runner kind or
    configuration, so it can never resume this run."""
