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

import json
from collections.abc import Callable, Iterable
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .config import Checked, RunConfig, SimulationConfig, from_dict, mode_label
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
from .errors import ConfigurationError, FaultInjectionError, ReproError, SchemaError
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
class CheckpointPolicy(Checked):
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
class AuditPolicy(Checked):
    """How a run validates structural invariants while stepping.

    ``every`` is the audit cadence in steps; ``policy`` is ``"raise"``
    (stop on the first violation) or ``"log"`` (record and continue). The
    audit summary lands in ``result.meta["audit"]``.
    """

    every: int = 1
    policy: str = "raise"


def _resolve_config(
    config: SimulationConfig | str,
) -> tuple[SimulationConfig, str | None]:
    """Accept a preset name or a full config; returns (config, preset_name)."""
    if isinstance(config, str):
        return get_preset(config).simulation_config(), config
    if not isinstance(config, SimulationConfig):
        raise ConfigurationError(
            f"config must be a SimulationConfig or a preset name, got {type(config)!r}"
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


def _wire(
    config: SimulationConfig | str,
    faults: FaultPlan | FaultInjector | None,
    observability: Observability | None,
) -> tuple[SimulationConfig, str | None, FaultInjector | None]:
    """Resolve the config and the injector; the injector logs into the
    bundle's event log."""
    sim_config, preset_name = _resolve_config(config)
    injector = _resolve_faults(faults, sim_config.decomposition.n_pes)
    events = observability.events if observability is not None else None
    if injector is not None and events is not None:
        injector.events = events
    return sim_config, preset_name, injector


_Runner = ParallelMDRunner | DrivenLoadRunner


def _drive(
    build: Callable[[], _Runner],
    execute: Callable[[_Runner, CheckpointManager | None, RunResult | None], RunResult],
    *,
    observability: Observability | None,
    audit: AuditPolicy | None,
    checkpoints: CheckpointPolicy | None,
    preset_name: str | None,
    engine: Engine | None = None,
    extra_meta: Callable[[_Runner], dict[str, Any]] | None = None,
) -> RunResult:
    """The lifecycle both entry points share around a runner.

    With the bundle recording from the start (so the constructor's first
    pair search and force pass are profiled like every later step), builds
    the runner, attaches the auditor, resumes from the newest snapshot when
    asked and runs ``execute(runner, manager, partial)``; then stamps the
    shared ``meta`` keys (``extra_meta(runner)``'s, read after the run, go
    before ``balancer``).
    """
    with observability.activate() if observability is not None else nullcontext():
        runner = build()
        events = runner.events
        auditor = None
        if audit is not None:
            auditor = InvariantAuditor(
                runner.assignment,
                n_particles=(
                    runner.system.n if isinstance(runner, ParallelMDRunner) else None
                ),
                every=audit.every,
                policy=audit.policy,
                metrics=observability.metrics if observability is not None else None,
                events=events,
                strategy=runner.balancer_name,
            )
            runner.auditor = auditor
        manager = None
        partial = None
        resumed_at = None
        if checkpoints is not None:
            manager = CheckpointManager(
                checkpoints.directory, every=checkpoints.every, keep=checkpoints.keep
            )
            if checkpoints.resume:
                partial = runner.restore(manager.load_latest()["state"])
                resumed_at = runner.progress
                if events is not None:
                    events.emit_host(runner.step_count, "checkpoint.resume")
        result = execute(runner, manager, partial)
    result.meta.update(
        {
            "schema_version": RESULT_SCHEMA_VERSION,
            "mode": mode_label(runner.balancer_name),
            "preset": preset_name,
            "engine": engine.name if engine is not None else "inproc",
            "engine_workers": engine.workers if engine is not None else None,
            "resumed_at": resumed_at,
            "audit": auditor.summary() if auditor is not None else None,
            **(extra_meta(runner) if extra_meta is not None else {}),
            "balancer": runner.balancer_name,
            "imbalance": runner.imbalance,
            "events": len(events) if events is not None else None,
        }
    )
    return result


def simulate(
    config: SimulationConfig | str,
    *,
    run: RunConfig,
    engine: Engine | str | None = None,
    engine_workers: int | None = None,
    observability: Observability | None = None,
    faults: FaultPlan | FaultInjector | None = None,
    audit: AuditPolicy | None = None,
    checkpoints: CheckpointPolicy | None = None,
    system: ParticleSystem | None = None,
    stop_after: int | None = None,
) -> RunResult:
    """Run one parallel MD simulation and return its result.

    Parameters
    ----------
    config:
        A :class:`~repro.config.SimulationConfig`, or the name of a workload
        preset (see ``repro presets``).
    run:
        Steps, seed, recording cadence, neighbour-list skin, balancer
        strategy. The concrete strategy name lands in
        ``result.meta["balancer"]``; ``balancer="none"`` runs plain DDM.
    engine:
        Where the force pass runs: an engine name (``"sequential"`` /
        ``"multiprocess"``), a constructed :class:`~repro.engine.Engine`
        (caller keeps ownership), or ``None`` for the classic in-process
        path. Every choice gives the same forces and run digest; engines
        created here are closed before returning.
    engine_workers:
        Worker-process count when ``engine`` is a name (multiprocess only).
    observability:
        Nullable event-log/metrics bundle; its log records the run (and
        every host scope while it runs). Give each run its own log.
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
    stop_after:
        Execute at most this many (further) steps and return the partial
        result — the crash-drill knob behind ``repro run --kill-after``;
        combined with ``checkpoints`` the truncated run is resumable.
    """
    sim_config, preset_name, injector = _wire(config, faults, observability)

    def execute(runner, manager, partial):
        remaining = run.steps - runner.step_count
        if remaining < 0:
            raise ConfigurationError(
                f"checkpoint is at step {runner.step_count}, beyond the "
                f"requested {run.steps} steps"
            )
        if stop_after is not None:
            if stop_after < 0:
                raise ConfigurationError(f"stop_after must be >= 0, got {stop_after}")
            remaining = min(remaining, stop_after)
        return runner.run(remaining, checkpoint=manager, result=partial)

    resolved_engine = create_engine(engine, workers=engine_workers)
    owns_engine = resolved_engine is not None and not isinstance(engine, Engine)
    try:
        return _drive(
            lambda: ParallelMDRunner(
                sim_config,
                run,
                system=system,
                observability=observability,
                faults=injector,
                engine=resolved_engine,
            ),
            execute,
            observability=observability, audit=audit, checkpoints=checkpoints,
            preset_name=preset_name, engine=resolved_engine,
            extra_meta=lambda runner: {
                "neighbor_stats": runner.neighbor_stats.as_dict()
            },
        )
    finally:
        if owns_engine:
            resolved_engine.close()


def simulate_driven(
    config: SimulationConfig | str,
    configurations: Iterable[np.ndarray],
    *,
    rounds_per_config: int = 1,
    balancer: str | None = None,
    observability: Observability | None = None,
    faults: FaultPlan | FaultInjector | None = None,
    audit: AuditPolicy | None = None,
    checkpoints: CheckpointPolicy | None = None,
) -> RunResult:
    """Feed an external configuration sequence through the DLB machinery.

    Each item of ``configurations`` is an ``(N, 3)`` position array; no
    forces are integrated — each configuration is binned, time-accounted on
    the virtual machine, and the balancer reacts (``rounds_per_config``
    accounting rounds per configuration). This is the quasi-static driver
    behind the effective-range experiments (Figures 9-10). ``balancer``
    names the DLB strategy (``None`` is ``"permanent"``, ``"none"`` is
    plain DDM).
    """
    sim_config, preset_name, injector = _wire(config, faults, observability)
    return _drive(
        lambda: DrivenLoadRunner(
            sim_config,
            rounds_per_config=rounds_per_config,
            observability=observability,
            faults=injector,
            balancer=balancer,
        ),
        lambda runner, manager, partial: runner.run(
            configurations, checkpoint=manager, result=partial
        ),
        observability=observability, audit=audit, checkpoints=checkpoints,
        preset_name=preset_name,
    )


def result_payload(result: RunResult) -> dict[str, Any]:
    """The canonical JSON-safe payload of one run (schema-versioned).

    ``summary`` is None while the run has recorded no step yet (a run
    killed before its first ``record_interval`` boundary).
    """
    return attach_schema_version(
        {
            "summary": result.summary() if result.records else None,
            "digest": result.digest(),
            "steps_run": result.steps_run,
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
    try:
        spec = from_dict(
            RunSpec, {k: v for k, v in submission.items() if k != "schema_version"}
        )
        run_hash = spec.spec_hash()
    except ConfigurationError:
        raise
    except (ReproError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"invalid submission: {exc}") from exc
    return CanonicalSubmission(spec=spec, run_hash=run_hash, content=spec.content())


# -- persisted artifacts ----------------------------------------------------


@dataclass(frozen=True)
class LoadedConfig(Checked):
    """A saved configuration file: the simulation and (optional) run."""

    simulation: SimulationConfig
    run: RunConfig | None = None

    #: A file that is not a saved configuration is a schema fault.
    error_type = SchemaError


#: Keys older versions wrote into saved configuration files, dropped on load.
_RETIRED_CONFIG_KEYS = (
    "simulation.dlb.enabled", "simulation.decomposition.shape", "run.timing_mode",
    "run.neighbor_max_reuse",
)


def save_config(
    path: str | Path,
    config: SimulationConfig,
    run: RunConfig | None = None,
) -> None:
    """Persist a simulation (and optionally run) configuration as JSON."""
    write_result_json(path, asdict(LoadedConfig(simulation=config, run=run)))


def load_config(path: str | Path) -> LoadedConfig:
    """Load a configuration written by :func:`save_config` (schema-checked,
    strictly read). The retired ``dlb.enabled`` and ``decomposition.shape``
    may hold today's only behaviour (true, ``"pillar"``); any other value
    must not load as a run it does not describe."""
    payload = read_result_json(path, source=f"config {path}")
    sim = payload.get("simulation")
    sim = sim if isinstance(sim, dict) else {}
    dlb, decomposition = sim.get("dlb"), sim.get("decomposition")
    if isinstance(dlb, dict) and dlb.get("enabled") is False:
        raise SchemaError(
            f'config {path} sets dlb.enabled=false; plain DDM is now balancer="none"'
        )
    shape = decomposition.get("shape") if isinstance(decomposition, dict) else None
    if shape not in (None, "pillar"):
        raise SchemaError(
            f"config {path} sets decomposition.shape={shape!r}; "
            "the runners implement only the square-pillar decomposition"
        )
    del payload["schema_version"]
    return from_dict(LoadedConfig, payload, retired=_RETIRED_CONFIG_KEYS)


def load_result(path: str | Path) -> dict[str, Any]:
    """Load a result payload written via :func:`write_result_json`.

    Raises :class:`~repro.errors.SchemaError` on a missing or unsupported
    (different major) ``schema_version``.
    """
    return read_result_json(path, source=f"result {path}")


def load_faults(path: str | Path) -> FaultPlan:
    """Load a JSON fault plan (see ``repro run --faults``)."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise FaultInjectionError(f"cannot read fault plan {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FaultInjectionError(f"fault plan {path} is not valid JSON: {exc}") from exc
    return FaultPlan.from_dict(data)
