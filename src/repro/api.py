"""The stable public API of the repro library.

Everything a caller needs to run a simulation lives behind two functions:

>>> from repro import api
>>> from repro.config import RunConfig
>>> result = api.simulate("quickstart", run=RunConfig(steps=100, seed=7))

:func:`simulate` runs the parallel MD workload (a preset name or a full
:class:`~repro.config.SimulationConfig`) and returns a
:class:`~repro.core.results.RunResult`; :func:`simulate_driven` feeds an
external configuration sequence through the same DLB machinery. Both accept
the full feature set — execution engines, observability, fault plans,
invariant audits, checkpoint/resume — as typed keyword-only arguments, and
record provenance in ``result.meta``.

The CLI, the campaign executor and the experiment drivers all construct
their runs through this module; the runner classes in
:mod:`repro.core.runner` remain importable but are an implementation layer.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .config import (
    DecompositionConfig,
    DLBConfig,
    MachineConfig,
    MDConfig,
    RunConfig,
    SimulationConfig,
)
from .core.checkpoint import CheckpointManager
from .core.results import (
    RESULT_SCHEMA_VERSION,
    RunResult,
    attach_schema_version,
    check_schema_version,
    read_result_json,
    write_result_json,
)
from .core.runner import DrivenLoadRunner, ParallelMDRunner
from .engine.base import Engine, create_engine
from .errors import ConfigurationError, ReproError, SchemaError
from .faults.audit import InvariantAuditor
from .faults.injector import FaultInjector
from .faults.plan import FaultPlan
from .md.system import ParticleSystem
from .obs import Observability
from .workloads.presets import get_preset

__all__ = [
    "AuditPolicy",
    "CanonicalSubmission",
    "CheckpointPolicy",
    "RunConfig",
    "RunResult",
    "SimulationConfig",
    "canonicalize_submission",
    "load_config",
    "load_faults",
    "load_result",
    "result_payload",
    "save_config",
    "simulate",
    "simulate_driven",
]


@dataclass(frozen=True)
class CheckpointPolicy:
    """How a run checkpoints (and optionally resumes).

    Attributes
    ----------
    directory:
        Where snapshots live.
    every:
        Snapshot cadence in steps (driven runs: in configurations); 0 means
        no cadence-driven snapshots.
    resume:
        Restore from the newest snapshot in ``directory`` before running;
        the resumed run is bit-identical to an uninterrupted one.
    keep:
        Completed snapshots to retain.
    """

    directory: str | Path
    every: int = 0
    resume: bool = False
    keep: int = 2


@dataclass(frozen=True)
class AuditPolicy:
    """How a run validates structural invariants while stepping.

    ``every`` is the audit cadence in steps; ``policy`` is ``"raise"``
    (stop on the first violation) or ``"log"`` (record and continue). The
    audit summary lands in ``result.meta["audit"]``.
    """

    every: int = 1
    policy: str = "raise"


def _resolve_config(
    config: SimulationConfig | str, dlb: bool | None
) -> tuple[SimulationConfig, str | None]:
    """Accept a preset name or a full config; returns (config, preset_name)."""
    if isinstance(config, str):
        preset = get_preset(config)
        return preset.simulation_config(dlb_enabled=True if dlb is None else dlb), config
    if not isinstance(config, SimulationConfig):
        raise ConfigurationError(
            f"config must be a SimulationConfig or a preset name, got {type(config)!r}"
        )
    if dlb is not None and dlb != config.dlb.enabled:
        config = dataclasses.replace(
            config, dlb=dataclasses.replace(config.dlb, enabled=dlb)
        )
    return config, None


def _resolve_faults(
    faults: FaultPlan | FaultInjector | None, n_pes: int
) -> FaultInjector | None:
    if faults is None or isinstance(faults, FaultInjector):
        return faults
    if isinstance(faults, FaultPlan):
        return FaultInjector(faults, n_pes)
    raise ConfigurationError(
        f"faults must be a FaultPlan or FaultInjector, got {type(faults)!r}"
    )


def _checkpoint_manager(
    checkpoints: CheckpointPolicy | None,
) -> CheckpointManager | None:
    if checkpoints is None:
        return None
    return CheckpointManager(
        checkpoints.directory, every=checkpoints.every, keep=checkpoints.keep
    )


def simulate(
    config: SimulationConfig | str,
    *,
    run: RunConfig,
    dlb: bool | None = None,
    engine: Engine | str | None = None,
    engine_workers: int | None = None,
    observability: Observability | None = None,
    faults: FaultPlan | FaultInjector | None = None,
    audit: AuditPolicy | None = None,
    checkpoints: CheckpointPolicy | None = None,
    system: ParticleSystem | None = None,
    trace_pid: int = 0,
    stop_after: int | None = None,
) -> RunResult:
    """Run one parallel MD simulation and return its result.

    Parameters
    ----------
    config:
        A :class:`~repro.config.SimulationConfig`, or the name of a workload
        preset (see ``repro presets``).
    run:
        Steps, seed, recording cadence, pair-search backend, balancer
        strategy, timing mode. The concrete strategy name lands in
        ``result.meta["balancer"]``.
    dlb:
        Override the config's DLB switch (convenient with preset names:
        ``dlb=False`` runs plain DDM).
    engine:
        Execution engine for the force path: an engine name
        (``"sequential"`` / ``"multiprocess"``), a constructed
        :class:`~repro.engine.Engine` (caller keeps ownership), or ``None``
        for the classic in-process path -- except under
        ``run.timing_mode="measured"``, which clocks an engine's per-PE
        slices and so gets a ``"sequential"`` engine. Engines created here
        are closed before returning.
    engine_workers:
        Worker-process count when ``engine`` is a name (multiprocess only).
    observability:
        Nullable trace/metrics/profiler bundle; activated around the run.
    faults:
        A :class:`~repro.faults.FaultPlan` (instantiated against this
        workload's PE count) or a ready :class:`~repro.faults.FaultInjector`.
    audit:
        Invariant-audit policy; summary in ``result.meta["audit"]``.
    checkpoints:
        Checkpoint/resume policy (see :class:`CheckpointPolicy`).
    system:
        Pre-built particle system (defaults to the config's, seeded by
        ``run.seed``).
    trace_pid:
        Trace process id when sharing one recorder across runs; each runner
        claims its pid, so collisions raise instead of corrupting the trace.
    stop_after:
        Execute at most this many (further) steps and return the partial
        result — the crash-drill knob behind ``repro run --kill-after``;
        combined with ``checkpoints`` the truncated run is resumable.
    """
    sim_config, preset_name = _resolve_config(config, dlb)
    if engine is None and run.timing_mode == "measured":
        engine = "sequential"
    injector = _resolve_faults(faults, sim_config.decomposition.n_pes)
    events = observability.events if observability is not None else None
    if injector is not None and events is not None:
        injector.events = events
    resolved_engine = create_engine(engine, workers=engine_workers)
    owns_engine = resolved_engine is not None and not isinstance(engine, Engine)
    try:
        runner = ParallelMDRunner(
            sim_config,
            run,
            system=system,
            observability=observability,
            trace_pid=trace_pid,
            faults=injector,
            engine=resolved_engine,
        )
        auditor = None
        if audit is not None:
            auditor = InvariantAuditor(
                runner.assignment,
                n_particles=runner.system.n,
                every=audit.every,
                policy=audit.policy,
                metrics=observability.metrics if observability is not None else None,
                events=events,
                strategy=runner.balancer_name,
            )
            runner.auditor = auditor
        manager = _checkpoint_manager(checkpoints)
        partial = None
        resumed_at = None
        if checkpoints is not None and checkpoints.resume:
            partial = runner.restore(manager.load_latest()["state"])
            resumed_at = runner.step_count
            if events is not None:
                events.emit_host(runner.step_count, "checkpoint.resume")
        remaining = run.steps - runner.step_count
        if remaining < 0:
            raise ConfigurationError(
                f"checkpoint is at step {runner.step_count}, beyond the "
                f"requested {run.steps} steps"
            )
        if stop_after is not None:
            if stop_after < 0:
                raise ConfigurationError(
                    f"stop_after must be >= 0, got {stop_after}"
                )
            remaining = min(remaining, stop_after)
        if observability is not None:
            with observability.activate():
                result = runner.run(remaining, checkpoint=manager, result=partial)
        else:
            result = runner.run(remaining, checkpoint=manager, result=partial)
        result.meta.update(
            {
                "schema_version": RESULT_SCHEMA_VERSION,
                "mode": "dlb" if runner.dlb_enabled else "ddm",
                "preset": preset_name,
                "engine": resolved_engine.name if resolved_engine is not None else "inproc",
                "engine_workers": (
                    resolved_engine.workers if resolved_engine is not None else None
                ),
                "resumed_at": resumed_at,
                "audit": auditor.summary() if auditor is not None else None,
                "neighbor_stats": runner.neighbor_stats.as_dict(),
                "balancer": runner.balancer_name,
                "imbalance": (
                    runner.imbalance.summary() if runner.imbalance is not None else None
                ),
                "events": len(events) if events is not None else None,
            }
        )
        return result
    finally:
        if owns_engine:
            resolved_engine.close()


def simulate_driven(
    config: SimulationConfig | str,
    configurations: Iterable[np.ndarray],
    *,
    rounds_per_config: int = 1,
    dlb: bool | None = None,
    balancer: str | None = None,
    observability: Observability | None = None,
    faults: FaultPlan | FaultInjector | None = None,
    audit: AuditPolicy | None = None,
    checkpoints: CheckpointPolicy | None = None,
    trace_pid: int = 0,
) -> RunResult:
    """Feed an external configuration sequence through the DLB machinery.

    Each item of ``configurations`` is an ``(N, 3)`` position array; no
    forces are integrated — each configuration is binned, time-accounted on
    the virtual machine, and the balancer reacts (``rounds_per_config``
    accounting rounds per configuration). This is the quasi-static driver
    behind the effective-range experiments (Figures 9-10). ``balancer``
    names the DLB strategy (``None`` is ``"permanent"``).
    """
    sim_config, preset_name = _resolve_config(config, dlb)
    injector = _resolve_faults(faults, sim_config.decomposition.n_pes)
    events = observability.events if observability is not None else None
    if injector is not None and events is not None:
        injector.events = events
    runner = DrivenLoadRunner(
        sim_config,
        rounds_per_config=rounds_per_config,
        observability=observability,
        trace_pid=trace_pid,
        faults=injector,
        balancer=balancer,
    )
    auditor = None
    if audit is not None:
        auditor = InvariantAuditor(
            runner.assignment,
            every=audit.every,
            policy=audit.policy,
            metrics=observability.metrics if observability is not None else None,
            events=events,
            strategy=runner.balancer_name,
        )
        runner.auditor = auditor
    manager = _checkpoint_manager(checkpoints)
    partial = None
    resumed_at = None
    if checkpoints is not None and checkpoints.resume:
        partial = runner.restore(manager.load_latest()["state"])
        resumed_at = runner.configs_done
        if events is not None:
            events.emit_host(runner.step_count, "checkpoint.resume")
    if observability is not None:
        with observability.activate():
            result = runner.run(configurations, checkpoint=manager, result=partial)
    else:
        result = runner.run(configurations, checkpoint=manager, result=partial)
    result.meta.update(
        {
            "schema_version": RESULT_SCHEMA_VERSION,
            "mode": "dlb" if runner.dlb_enabled else "ddm",
            "preset": preset_name,
            "engine": "inproc",
            "engine_workers": None,
            "resumed_at": resumed_at,
            "audit": auditor.summary() if auditor is not None else None,
            "balancer": runner.balancer_name,
            "imbalance": (
                runner.imbalance.summary() if runner.imbalance is not None else None
            ),
            "events": len(events) if events is not None else None,
        }
    )
    return result


def result_payload(result: RunResult) -> dict[str, Any]:
    """The canonical JSON-safe payload of one run (schema-versioned).

    ``summary`` is None while the run has recorded no step yet (a run
    killed before its first ``record_interval`` boundary).
    """
    return attach_schema_version(
        {
            "summary": result.summary() if result.records else None,
            "digest": result.digest(),
            "steps_run": len(result.records),
            "audit": result.meta.get("audit"),
            "meta": dict(result.meta),
        }
    )


# -- submissions ------------------------------------------------------------


@dataclass(frozen=True)
class CanonicalSubmission:
    """What :func:`canonicalize_submission` resolves a raw submission into.

    ``spec`` is the validated, executable run description; ``run_hash`` is
    the deterministic content hash of its *resolved* configuration — the key
    the campaign engine and the simulation service dedupe on, so two
    submissions that describe the same physics share one execution no matter
    how they were spelled.
    """

    spec: Any
    run_hash: str
    content: dict[str, Any]


def canonicalize_submission(submission: dict[str, Any]) -> CanonicalSubmission:
    """Validate and canonicalise a raw run-submission mapping.

    The input is an untyped mapping (typically a decoded JSON body): run
    kind, preset/geometry parameters, steps, seed — the fields of
    :class:`~repro.campaign.spec.RunSpec`. An optional ``schema_version``
    entry is checked against the library's result schema (an unknown major
    version is rejected, see :func:`repro.core.results.check_schema_version`);
    unknown fields and invalid values raise
    :class:`~repro.errors.ConfigurationError` with an actionable message
    rather than being silently dropped, because a typo'd field would
    otherwise canonicalise to a *different* run than the caller intended.

    The returned hash is exactly :meth:`RunSpec.spec_hash`, so service
    submissions, campaign grids and ad-hoc sweeps all dedupe against the
    same stored runs.
    """
    from .campaign.spec import RunSpec

    if not isinstance(submission, dict):
        raise ConfigurationError(
            f"submission must be a JSON object, got {type(submission).__name__}"
        )
    if "schema_version" in submission:
        check_schema_version(submission, source="submission")
    known = {f.name for f in dataclasses.fields(RunSpec)}
    unknown = sorted(set(submission) - known - {"schema_version"})
    if unknown:
        raise ConfigurationError(
            f"unknown submission field(s) {', '.join(map(repr, unknown))}; "
            f"expected a subset of {sorted(known)}"
        )
    try:
        spec = RunSpec(**{k: v for k, v in submission.items() if k in known})
        content = spec.content()
        run_hash = spec.spec_hash()
    except ConfigurationError:
        raise
    except (ReproError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"invalid submission: {exc}") from exc
    return CanonicalSubmission(spec=spec, run_hash=run_hash, content=content)


# -- persisted artifacts ----------------------------------------------------


def save_config(
    path: str | Path,
    config: SimulationConfig,
    run: RunConfig | None = None,
) -> None:
    """Persist a simulation (and optionally run) configuration as JSON."""
    payload: dict[str, Any] = {
        "simulation": {
            "md": dataclasses.asdict(config.md),
            "decomposition": dataclasses.asdict(config.decomposition),
            "dlb": dataclasses.asdict(config.dlb),
            "machine": dataclasses.asdict(config.machine),
        },
    }
    if run is not None:
        payload["run"] = dataclasses.asdict(run)
    write_result_json(path, payload)


def _from_dict(cls, data: dict[str, Any]):
    """Build a config dataclass, ignoring unknown keys (forward compat)."""
    known = {f.name for f in dataclasses.fields(cls) if f.init}
    return cls(**{k: v for k, v in data.items() if k in known})


@dataclass(frozen=True)
class LoadedConfig:
    """What :func:`load_config` returns: the simulation and (optional) run."""

    simulation: SimulationConfig
    run: RunConfig | None


def load_config(path: str | Path) -> LoadedConfig:
    """Load a configuration written by :func:`save_config` (schema-checked)."""
    payload = read_result_json(path, source=f"config {path}")
    sim = payload.get("simulation")
    if not isinstance(sim, dict):
        raise SchemaError(f"config {path} has no 'simulation' section")
    simulation = SimulationConfig(
        md=_from_dict(MDConfig, sim.get("md", {})),
        decomposition=_from_dict(DecompositionConfig, sim.get("decomposition", {})),
        dlb=_from_dict(DLBConfig, sim.get("dlb", {})),
        machine=_from_dict(MachineConfig, sim.get("machine", {})),
    )
    run = payload.get("run")
    return LoadedConfig(
        simulation=simulation,
        run=_from_dict(RunConfig, run) if isinstance(run, dict) else None,
    )


def load_result(path: str | Path) -> dict[str, Any]:
    """Load a result payload written via :func:`write_result_json`.

    Raises :class:`~repro.errors.SchemaError` on a missing or unsupported
    (different major) ``schema_version``.
    """
    return read_result_json(path, source=f"result {path}")


def load_faults(path: str | Path) -> FaultPlan:
    """Load a JSON fault plan (see ``repro run --faults``)."""
    return FaultPlan.from_json_file(path)
