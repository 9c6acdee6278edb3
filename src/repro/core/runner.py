"""Top-level simulation runners: DDM and DLB-DDM.

:class:`ParallelMDRunner` evolves real LJ dynamics while accounting the
parallel execution on the virtual machine -- the DDM vs DLB-DDM comparison of
Figures 5 and 6 is two instances of it differing only in ``dlb.enabled``.

:class:`DrivenLoadRunner` feeds an externally generated sequence of
configurations through the same decomposition/accounting/DLB machinery --
the quasi-static concentration sweeps behind Figures 9-10 and Table 1
(see DESIGN.md, substitutions).

Both run one lifecycle, defined once on their shared base: the balancer
round, the accounting tail, the checkpoint step, the run epilogue and the
snapshot. Each runner adds only what produces its configurations.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

import numpy as np

from ..config import RunConfig, SimulationConfig
from ..decomp.assignment import CellAssignment
from ..dlb.strategies import create_balancer, resolve_balancer_name
from ..engine.base import Engine, EngineContext
from ..engine.forcefield import EngineForceField
from ..errors import CheckpointError, ConfigurationError
from ..md.celllist import CellList
from ..md.forces import ForceField
from ..md.integrator import VelocityVerlet
from ..md.observables import temperature
from ..md.potential import LennardJones
from ..md.simulation import attractor_sites, build_system
from ..md.system import ParticleSystem
from ..md.thermostat import VelocityRescale
from ..obs import (
    ImbalanceTracker,
    Observability,
    collect_balancer,
    collect_imbalance,
    collect_neighbor_stats,
    collect_timing,
    collect_traffic,
)
from ..obs.events import EventLog
from ..parallel.instrumentation import StepTiming
from ..rng import generator
from ..theory.concentration import measure_concentration
from .accounting import StepAccountant
from .checkpoint import CheckpointManager
from .results import RunResult, StepRecord

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from ..faults.audit import InvariantAuditor
    from ..faults.injector import FaultInjector


#: Span names of the per-PE phase timeline, in within-step order.
_PHASE_SPANS = ("dlb", "force", "halo-comm", "integrate")


class _ObservedRunner:
    """The run lifecycle and observability hooks shared by both runners.

    Builds the cell grid, the assignment, the step accountant and the
    balancer, and owns the one balancer round (:meth:`_rebalance`), the one
    accounting tail (:meth:`_account`), the checkpoint step, the run
    epilogue and the snapshot (:meth:`state_dict` / :meth:`restore`).
    Subclasses set :attr:`kind`, finish construction with
    :meth:`_announce`, and supply ``_config_token`` plus their own snapshot
    keys through ``_own_state`` / ``_restore_own``.

    The observability hooks are no-ops unless an
    :class:`~repro.obs.Observability` bundle was supplied: the disabled path
    is a single ``None`` check per step, with no allocation.
    """

    #: Runner kind, stamped into the ``run.start`` event and every snapshot.
    kind: str

    def __init__(
        self,
        config: SimulationConfig,
        observability: Observability | None,
        trace_pid: int,
        faults: "FaultInjector | None",
        balancer: str | None,
    ) -> None:
        dec = config.decomposition
        if dec.shape != "pillar":
            raise ConfigurationError(
                f"{type(self).__name__} implements the square-pillar "
                f"decomposition (DLB's shape); got {dec.shape!r}"
            )
        if trace_pid < 0:
            raise ConfigurationError(
                f"trace_pid must be non-negative, got {trace_pid}"
            )
        self.config = config
        #: Nullable :class:`~repro.faults.injector.FaultInjector` /
        #: :class:`~repro.faults.audit.InvariantAuditor` (the auditor is
        #: attached after construction); with both ``None`` the step path is
        #: unchanged (one branch per hook).
        self.faults = faults
        self.auditor: InvariantAuditor | None = None
        self.cell_list = CellList(config.md.box_length, dec.cells_per_side)
        self.assignment = CellAssignment(dec.cells_per_side, dec.n_pes)
        self.accountant = StepAccountant(
            config.machine,
            self.cell_list,
            dec.n_pes,
            faults=faults,
            profiler=observability.profiler if observability is not None else None,
        )
        #: Concrete balancer strategy name, as events, checkpoints and
        #: result metadata record it.
        self.balancer_name = resolve_balancer_name(balancer)
        self.balancer = (
            create_balancer(
                self.assignment,
                config.dlb,
                injector=faults,
                strategy=self.balancer_name,
            )
            if config.dlb.enabled
            else None
        )
        #: The previous step's per-PE times and per-cell counts: what the
        #: next balancer round decides on.
        self._last_times = np.zeros(dec.n_pes, dtype=np.float64)
        self._last_counts: np.ndarray | None = None
        self.step_count = 0
        self.observability = observability
        self.trace_pid = int(trace_pid)
        #: Simulated-clock position (sum of barrier times so far).
        self.sim_time = 0.0
        self._mode_label = "dlb" if config.dlb.enabled else "ddm"
        #: Nullable flight recorder (the bundle's, shared with the injector
        #: and auditor) and the imbalance analytics fed from every step.
        self.events: EventLog | None = (
            observability.events if observability is not None else None
        )
        self.imbalance: ImbalanceTracker | None = None
        if observability is not None and (
            observability.metrics is not None or observability.events is not None
        ):
            self.imbalance = ImbalanceTracker(dec.n_pes)

    @property
    def dlb_enabled(self) -> bool:
        """Whether this runner balances load (DLB-DDM) or not (plain DDM)."""
        return self.balancer is not None

    def _announce(self) -> None:
        """Claim the trace pid and emit ``run.start``: the last act of
        construction, so a runner that fails to build claims nothing."""
        observability = self.observability
        if observability is not None and observability.trace is not None:
            # Fail loudly when two runners share a recorder and a pid: the
            # old behavior silently interleaved their spans on one track.
            observability.trace.claim_pid(self.trace_pid)
        events = self.events
        if events is None:
            return
        dec = self.config.decomposition
        dlb = self.config.dlb
        events.emit(
            0, "run.start",
            runner=self.kind,
            mode=self._mode_label,
            n_pes=dec.n_pes,
            cells_per_side=dec.cells_per_side,
            dlb={
                "enabled": dlb.enabled,
                "policy": dlb.policy,
                "threshold": dlb.threshold,
                "max_sends_per_step": dlb.max_sends_per_step,
                "interval": dlb.interval,
                "balancer": self.balancer_name,
            },
        )

    # -- one step ------------------------------------------------------------

    def _rebalance(self) -> list:
        """One balancer round, when DLB is on and the interval is due.

        The round decides on the previous step's times and counts, so none
        fires before the first step. Its migrations are charged to the next
        step's communication time.
        """
        if self.balancer is None or self.step_count == 0:
            return []
        if self.step_count % self.config.dlb.interval != 0:
            return []
        # The pre-round lent set must be captured before apply() mutates the
        # holder map; the decision event records the round's exact inputs.
        lent_before = self._lent_pairs() if self.events is not None else []
        moves = self.balancer.step(
            self._last_times, step=self.step_count, counts=self._last_counts
        )
        if self.events is not None:
            self._emit_decision(lent_before, moves)
        self.accountant.charge_moves(
            moves, self._last_counts, self.assignment, step=self.step_count
        )
        return moves

    def _account(
        self,
        counts: np.ndarray,
        moves: list,
        override: np.ndarray | None = None,
        forces: np.ndarray | None = None,
    ) -> StepTiming:
        """Charge step ``self.step_count`` and run its tail.

        Accounting, imbalance analytics, the invariant audit, trace spans and
        metrics, then the simulated clock and the times/counts the next
        balancer round reads. ``override`` substitutes measured per-PE force
        times for the cost model's; ``forces`` lets the audit check them.
        """
        timing, totals = self.accountant.account_step(
            self.step_count, counts, self.assignment, self.dlb_enabled, override
        )
        self._observe_totals(timing, totals, counts)
        if self.auditor is not None:
            self.auditor.maybe_audit(
                self.step_count, counts=counts, forces=forces, moves=moves
            )
        if self.observability is not None:
            self._observe_step(timing, moves)
        self.sim_time += timing.tt
        self._last_times = totals
        self._last_counts = counts
        return timing

    def _checkpoint_if_due(
        self,
        checkpoint: CheckpointManager | None,
        progress: int,
        result: RunResult,
    ) -> None:
        """Snapshot the runner when the manager's cadence asks for one at
        ``progress`` (steps, or configurations for the driven runner)."""
        if checkpoint is not None and checkpoint.due(progress):
            checkpoint.save(self.step_count, self.state_dict(result))
            if self.events is not None:
                self.events.emit_host(self.step_count, "checkpoint.save")

    def _finish(self, result: RunResult) -> RunResult:
        """The run epilogue: the ``run.end`` event and end-of-run metrics."""
        events = self.events
        if events is not None:
            events.emit(
                self.step_count, "run.end",
                steps=self.step_count,
                sim_time=self.sim_time,
                imbalance=(
                    self.imbalance.summary() if self.imbalance is not None else None
                ),
            )
        self.collect_metrics(result)
        return result

    # -- observability -------------------------------------------------------

    def _lent_pairs(self) -> list[list[int]]:
        """``[cell, holder]`` pairs of every currently-lent cell."""
        holder = self.assignment.holder
        away = np.flatnonzero(holder != self.assignment.home)
        return [[int(cell), int(holder[cell])] for cell in away]

    def _emit_decision(self, lent_before: list[list[int]], moves: list) -> None:
        """Record this step's balancer round: its full inputs and the moves.

        The last step's times and the timing-view snapshot are exactly what
        :meth:`~repro.dlb.balancer.DynamicLoadBalancer.decide` consumed
        (the view is captured *after* the round's refresh), so the decision
        can be replayed offline from the event alone — see
        :mod:`repro.dlb.explain`. Strategies that weight cells by particle
        counts (``sfc``) additionally record the counts, completing the
        replay inputs; count-blind strategies skip the field to keep their
        events byte-identical to pre-seam logs.
        """
        events = self.events
        step, times, counts = self.step_count, self._last_times, self._last_counts
        view = self.balancer.view
        extra: dict = {}
        if self.balancer.strategy.needs_counts and counts is not None:
            # Flatten the cell list's (nc, nc, nc) grid to the cell-id order.
            extra["counts"] = [int(c) for c in np.asarray(counts).reshape(-1)]
        events.emit(
            step, "dlb.decision",
            times=[float(t) for t in times],
            lent=lent_before,
            view=view.state_dict() if view is not None else None,
            **extra,
            moves=[
                {
                    "cell": int(m.cell),
                    "src": int(m.src),
                    "dst": int(m.dst),
                    "case": getattr(m.kind, "value", m.kind),
                }
                for m in moves
            ],
        )
        for m in moves:
            events.emit(
                step, "cell.migrate",
                cell=int(m.cell), src=int(m.src), dst=int(m.dst),
                case=getattr(m.kind, "value", m.kind),
            )

    def _observe_step(self, timing: StepTiming, moves: list) -> None:
        """Emit one step's trace spans, migration instants and step metrics.

        Called with the step's start position still in ``self.sim_time``;
        the caller advances the simulated clock by ``timing.tt`` afterwards.
        """
        obs = self.observability
        if obs is None:
            return
        trace = obs.trace
        if trace is not None:
            components = self.accountant.last_components
            base = self.sim_time
            pid = self.trace_pid
            step_args = {"step": timing.step}
            for move in moves:
                trace.migration(base, move.cell, move.src, move.dst, pid=pid)
            for pe in range(components.n_pes):
                cursor = base
                durations = (
                    components.dlb_time,
                    float(components.force_times[pe]),
                    float(components.comm_times[pe]),
                    float(components.other_times[pe]),
                )
                for name, duration in zip(_PHASE_SPANS, durations):
                    if duration > 0.0:
                        trace.span(
                            name, cursor, duration, pe=pe, pid=pid,
                            category="phase", args=step_args,
                        )
                    cursor += duration
        registry = obs.metrics
        if registry is not None:
            mode = self._mode_label
            registry.counter("repro_steps_total", "simulated steps executed").inc(
                1, mode=mode
            )
            if moves:
                registry.counter(
                    "repro_cell_migrations_total", "cells moved by the balancer"
                ).inc(len(moves), mode=mode)
        obs.maybe_flush(timing.step)

    def _observe_totals(
        self, timing: StepTiming, totals: np.ndarray, counts: np.ndarray
    ) -> None:
        """Feed the imbalance analytics (and its DLB counterfactual) one step."""
        tracker = self.imbalance
        if tracker is None:
            return
        counterfactual = None
        if self.dlb_enabled:
            counterfactual = self.accountant.counterfactual_step_time(
                timing.step, counts, self.assignment
            )
        tracker.observe(timing.step, totals, timing.tt, counterfactual)

    def collect_metrics(self, result: RunResult | None = None) -> None:
        """Snapshot the run's stats objects into the metrics registry.

        Call once at the end of a run; feeds the pair-search counters (when
        the runner has them), the traffic log, the balancer stats and the
        timing series, all labelled with the runner's mode.
        """
        obs = self.observability
        if obs is None or obs.metrics is None:
            return
        registry = obs.metrics
        mode = self._mode_label
        stats = getattr(self, "neighbor_stats", None)
        if stats is not None:
            collect_neighbor_stats(registry, stats, mode=mode)
        collect_traffic(registry, self.accountant.traffic, mode=mode)
        if self.balancer is not None:
            collect_balancer(registry, self.balancer.stats, mode=mode)
        if result is not None and len(result.timing):
            collect_timing(registry, result.timing, mode=mode)
        if self.imbalance is not None:
            collect_imbalance(registry, self.imbalance, mode=mode)

    # -- checkpointing -------------------------------------------------------

    def state_dict(self, result: RunResult | None = None) -> dict:
        """Everything mutable, deep-copied: holder map, balancer ledger and
        timing view, pending accounting charges, clocks, the last step's
        times and counts, the flight recorder, the partial records, and the
        runner's own keys (system arrays and the neighbour list's build
        positions for MD, the configurations done for the driven runner)."""
        state = {
            "kind": self.kind,
            "config_token": self._config_token(),
            "step_count": self.step_count,
            "sim_time": self.sim_time,
            "holder": self.assignment.holder.copy(),
            "last_times": self._last_times.copy(),
            "last_counts": (
                self._last_counts.copy() if self._last_counts is not None else None
            ),
            "balancer": self.balancer.state_dict() if self.balancer is not None else None,
            "accountant": self.accountant.state_dict(),
            "events": self.events.state_dict() if self.events is not None else None,
            "imbalance": (
                self.imbalance.state_dict() if self.imbalance is not None else None
            ),
            "records": list(result.records) if result is not None else [],
        }
        state.update(self._own_state())
        return state

    def restore(self, state: dict) -> RunResult:
        """Restore a :meth:`state_dict` snapshot; returns the partial result.

        Raises :class:`~repro.errors.CheckpointError` when the snapshot was
        taken under a different configuration or for a different runner kind.

        The flight recorder's sim buffer is replaced wholesale: the resumed
        run inherits the killed run's events — including its original
        ``run.start`` — and drops anything this runner emitted at
        construction, so the final file is byte-identical to an
        uninterrupted run's.
        """
        if state.get("kind") != self.kind:
            raise CheckpointError(
                f"snapshot is for runner kind {state.get('kind')!r}, not {self.kind!r}"
            )
        if state.get("config_token") != self._config_token():
            raise CheckpointError(
                "snapshot was taken under a different configuration; refusing "
                "to resume (same config + seed is what makes resume bit-identical)"
            )
        self.step_count = int(state["step_count"])
        self.sim_time = float(state["sim_time"])
        self.assignment.holder[...] = state["holder"]
        self._last_times = np.array(state["last_times"], copy=True)
        self._last_counts = (
            np.array(state["last_counts"], copy=True)
            if state["last_counts"] is not None
            else None
        )
        if state["balancer"] is not None and self.balancer is not None:
            self.balancer.load_state_dict(state["balancer"])
        self.accountant.load_state_dict(state["accountant"])
        self._restore_own(state)
        if self.events is not None and state.get("events") is not None:
            self.events.load_state_dict(state["events"])
        if self.imbalance is not None and state.get("imbalance") is not None:
            self.imbalance.load_state_dict(state["imbalance"])
        result = RunResult(dlb_enabled=self.dlb_enabled)
        for record in state["records"]:
            result.append(record)
        return result


class ParallelMDRunner(_ObservedRunner):
    """A parallel MD simulation (real physics + simulated machine).

    ``observability`` (nullable, default off) attaches the trace recorder /
    metrics registry bundle; ``trace_pid`` selects which trace process the
    per-PE tracks land under, so one recorder can hold a DDM and a DLB-DDM
    run side by side.
    """

    kind = "parallel_md"

    def __init__(
        self,
        config: SimulationConfig,
        run_config: RunConfig,
        system: ParticleSystem | None = None,
        observability: Observability | None = None,
        trace_pid: int = 0,
        faults: "FaultInjector | None" = None,
        engine: Engine | None = None,
    ) -> None:
        super().__init__(config, observability, trace_pid, faults, run_config.balancer)
        self.run_config = run_config
        md = config.md
        dec = config.decomposition
        #: Nullable execution engine; ``None`` keeps the classic in-process
        #: force path (one global pair kernel).
        self.engine = engine
        if run_config.timing_mode == "measured" and engine is None:
            raise ConfigurationError(
                "timing_mode='measured' clocks an engine's per-PE force slices; "
                "pass engine='sequential' (api.simulate does this for you)"
            )

        rng = generator(run_config.seed)
        self.system = system if system is not None else build_system(md, rng)
        if abs(self.system.box_length - md.box_length) > 1e-9:
            raise ConfigurationError(
                f"system box {self.system.box_length} != config box {md.box_length}"
            )
        self.potential = LennardJones(cutoff=md.cutoff)
        attractors = attractor_sites(md, rng)
        if engine is not None:
            if run_config.force_backend == "cells":
                raise ConfigurationError(
                    "execution engines cut every PE's slice from one cached "
                    "kd-tree neighbour list; force_backend must be 'kdtree' "
                    f"(or its other spelling 'verlet'), got {run_config.force_backend!r}"
                )
            # Observability must be attached before bind so the engine's
            # bind-time lifecycle events (worker spawns) reach the recorder.
            engine.attach_observability(observability)
            engine.bind(
                EngineContext(
                    n_particles=self.system.n,
                    n_pes=dec.n_pes,
                    box_length=md.box_length,
                    cells_per_side=dec.cells_per_side,
                    potential=self.potential,
                    skin=run_config.skin,
                    neighbor_max_reuse=run_config.neighbor_max_reuse,
                )
            )
            self.force_field = EngineForceField(
                engine,
                self.assignment.cell_owner_map,
                attraction=md.attraction,
                attractors=attractors,
            )
        else:
            self.force_field = ForceField(
                self.potential,
                backend=run_config.force_backend,
                cells_per_side=dec.cells_per_side,
                attraction=md.attraction,
                attractors=attractors,
                skin=run_config.skin,
                max_reuse=run_config.neighbor_max_reuse,
                # Share the runner's grid instead of letting the force field
                # build its own copy per search (the seed rebuilt one per step).
                cell_list=self.cell_list,
            )
        self.integrator = VelocityVerlet(md.dt)
        self.thermostat = VelocityRescale(md.temperature, md.rescale_interval)
        self.integrator.initialize(self.system, self.force_field)

        self._last_counts = self.cell_list.counts(self.system.positions)
        self._announce()

    @property
    def neighbor_stats(self):
        """Pair-search counters (list rebuilds/reuses, candidate ratios)."""
        return self.force_field.stats

    def step(self) -> StepRecord:
        """One full step: redistribution, physics, accounting."""
        moves = self._rebalance()

        force_result = self.integrator.step(self.system, self.force_field)
        self.step_count += 1
        self.thermostat.maybe_rescale(self.system, self.step_count)

        counts = self.cell_list.counts(self.system.positions)
        override = None
        if self.run_config.timing_mode == "measured":
            # The engine's force pass *is* the decomposed pass: its per-PE
            # wall clock replaces the cost model's force times.
            override = self.force_field.last_pass.per_pe_seconds
        timing = self._account(counts, moves, override, forces=self.system.forces)

        concentration = measure_concentration(counts, self.assignment)
        return StepRecord(
            step=self.step_count,
            timing=timing,
            concentration=concentration,
            n_moves=len(moves),
            temperature=temperature(self.system),
            potential_energy=force_result.potential_energy,
        )

    def run(
        self,
        steps: int | None = None,
        checkpoint: "CheckpointManager | None" = None,
        result: RunResult | None = None,
    ) -> RunResult:
        """Run ``steps`` steps (default: the run config's), collecting records.

        ``checkpoint`` (nullable) snapshots the full runner state at the
        manager's cadence; pass the partial ``result`` returned by
        :meth:`restore` to continue a run, with ``steps`` counting only the
        *remaining* steps.
        """
        steps = self.run_config.steps if steps is None else steps
        if result is None:
            result = RunResult(dlb_enabled=self.dlb_enabled)
        for _ in range(steps):
            record = self.step()
            if self.step_count % self.run_config.record_interval == 0:
                result.append(record)
            self._checkpoint_if_due(checkpoint, self.step_count, result)
        return self._finish(result)

    # -- checkpointing -------------------------------------------------------

    def _config_token(self) -> str:
        """Identity of the configuration a snapshot belongs to.

        Frozen-dataclass reprs are deterministic, so a snapshot can refuse
        to restore into a runner built from different settings. The
        concrete balancer name follows the configs (a ``None`` field reads
        ``permanent`` there), the format existing snapshots carry.
        """
        return f"{self.config!r}|{self.run_config!r}|balancer={self.balancer_name}"

    def _own_state(self) -> dict:
        return {
            "positions": self.system.positions.copy(),
            "velocities": self.system.velocities.copy(),
            "forces": self.system.forces.copy(),
            "force_cache": self.force_field.cache_state(),
        }

    def _restore_own(self, state: dict) -> None:
        self.system.positions[...] = state["positions"]
        self.system.velocities[...] = state["velocities"]
        self.system.forces[...] = state["forces"]
        self.force_field.restore_cache_state(
            state["force_cache"], self.system.box_length
        )


class DrivenLoadRunner(_ObservedRunner):
    """Load-balance dynamics driven by an external configuration sequence.

    No forces are integrated: each supplied configuration is binned into
    cells, the step is time-accounted on the virtual machine, and the
    balancer reacts. This isolates the DLB mechanism from the (slow) physics
    that produces concentration, which is exactly what the effective-range
    experiments need.

    The runner owns a single :class:`CellList`; the per-round work and halo
    accounting are stateless box-stencil reductions over its grid, so there
    is nothing to invalidate when the balancer moves cells.
    """

    kind = "driven_load"

    def __init__(
        self,
        config: SimulationConfig,
        rounds_per_config: int = 1,
        observability: Observability | None = None,
        trace_pid: int = 0,
        faults: "FaultInjector | None" = None,
        balancer: str | None = None,
    ) -> None:
        if rounds_per_config <= 0:
            raise ConfigurationError(
                f"rounds_per_config must be positive, got {rounds_per_config}"
            )
        super().__init__(config, observability, trace_pid, faults, balancer)
        self.rounds_per_config = int(rounds_per_config)
        #: Configurations already fully processed (resume skips this many).
        self.configs_done = 0
        self._announce()

    def run(
        self,
        configurations: Iterable[np.ndarray],
        checkpoint: "CheckpointManager | None" = None,
        result: RunResult | None = None,
    ) -> RunResult:
        """Process configurations (position arrays) in order.

        ``checkpoint`` snapshots after each fully processed configuration at
        the manager's cadence (its ``every`` counts configurations here).
        After :meth:`restore`, pass the *same* configuration sequence and the
        returned partial ``result``: the first ``configs_done`` entries are
        skipped and processing continues exactly where the snapshot was taken.
        """
        if result is None:
            result = RunResult(dlb_enabled=self.dlb_enabled)
        skip = self.configs_done
        for index, positions in enumerate(configurations):
            if index < skip:
                continue
            counts = self.cell_list.counts(positions)
            n_moves = 0
            for _ in range(self.rounds_per_config):
                moves = self._rebalance()
                n_moves += len(moves)
                self.step_count += 1
                timing = self._account(counts, moves)
            result.append(
                StepRecord(
                    step=self.step_count,
                    timing=timing,
                    concentration=measure_concentration(counts, self.assignment),
                    n_moves=n_moves,
                )
            )
            self.configs_done = index + 1
            self._checkpoint_if_due(checkpoint, self.configs_done, result)
        return self._finish(result)

    # -- checkpointing -------------------------------------------------------

    def _config_token(self) -> str:
        return (
            f"{self.config!r}|rounds={self.rounds_per_config}"
            f"|balancer={self.balancer_name}"
        )

    def _own_state(self) -> dict:
        return {"configs_done": self.configs_done}

    def _restore_own(self, state: dict) -> None:
        self.configs_done = int(state["configs_done"])
