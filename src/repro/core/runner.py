"""Top-level simulation runners: DDM and DLB-DDM.

:class:`ParallelMDRunner` evolves real LJ dynamics while accounting the
parallel execution on the virtual machine -- the DDM vs DLB-DDM comparison of
Figures 5 and 6 is two instances of it differing only in the balancer name
(``"none"`` is plain DDM).

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

from ..config import RunConfig, SimulationConfig, config_token, mode_label
from ..decomp.assignment import CellAssignment
from ..dlb.strategies import create_balancer, resolve_balancer_name
from ..engine.base import Engine, EngineContext
from ..engine.forcefield import EngineForceField
from ..errors import CheckpointMismatchError, ConfigurationError
from ..md.celllist import CellList
from ..md.forces import ForceField
from ..md.integrator import VelocityVerlet
from ..md.observables import temperature
from ..md.potential import LennardJones
from ..md.simulation import attractor_sites, build_system
from ..md.system import ParticleSystem
from ..md.thermostat import VelocityRescale
from ..obs import (
    Observability,
    collect_events,
    collect_neighbor_stats,
    collect_traffic,
    imbalance_summary,
)
from ..obs.events import EventLog
from ..parallel.costmodel import CellLoad
from ..parallel.instrumentation import StepTiming
from ..rng import generator
from ..theory.concentration import measure_concentration
from .accounting import StepAccountant
from .checkpoint import CheckpointManager
from .results import RunResult, StepRecord

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from ..faults.audit import InvariantAuditor
    from ..faults.injector import FaultInjector

#: Snapshot layout version. 2: the imbalance analytics are computed from the
#: event buffer's ``step`` records instead of being snapshotted on their own,
#: so a version-1 snapshot's buffer cannot resume. 3: forces are folded from
#: fixed force blocks (:mod:`repro.md.kernels`), so an older snapshot's state
#: was integrated under other force bits and cannot resume onto this digest.
#: 4: the config token is :func:`repro.config.config_token`, not the configs'
#: ``repr``. Bump it whenever a default that reaches the token changes.
SNAPSHOT_FORMAT = 4


class _ObservedRunner:
    """The run lifecycle and observability hooks shared by both runners.

    Builds the cell grid, the assignment, the step accountant and the
    balancer, and owns the one balancer round (:meth:`_rebalance`), the one
    accounting tail (:meth:`_account`), the checkpoint step, the run
    epilogue and the snapshot (:meth:`state_dict` / :meth:`restore`).
    Subclasses set :attr:`kind` and ``_token_parts`` (what
    :func:`~repro.config.config_token` keys their snapshots to), finish
    construction with :meth:`_announce`, and supply their own snapshot keys
    through ``_own_state`` / ``_restore_own``.

    The observability hooks are no-ops unless an
    :class:`~repro.obs.Observability` bundle was supplied: the disabled path
    is a single ``None`` check per step, with no allocation. With a bundle,
    each step appends one ``step`` record to its event log; the trace, the
    metrics and the imbalance summary are computed from the log.
    """

    #: Runner kind, stamped into the ``run.start`` event and every snapshot.
    kind: str

    def __init__(
        self,
        config: SimulationConfig,
        observability: Observability | None,
        faults: "FaultInjector | None",
        balancer: str | None,
    ) -> None:
        dec = config.decomposition
        self.config = config
        #: Nullable :class:`~repro.faults.injector.FaultInjector` /
        #: :class:`~repro.faults.audit.InvariantAuditor` (the auditor is
        #: attached after construction); with both ``None`` the step path is
        #: unchanged (one branch per hook).
        self.faults = faults
        self.auditor: InvariantAuditor | None = None
        self.cell_list = CellList(config.md.box_length, dec.cells_per_side)
        self.assignment = CellAssignment(dec.cells_per_side, dec.n_pes)
        #: Concrete balancer strategy name, as events, checkpoints and
        #: result metadata record it. ``"none"`` is plain DDM: no balancer,
        #: no DLB protocol charge, no imbalance counterfactual.
        self.balancer_name = resolve_balancer_name(balancer)
        self.balancer = (
            create_balancer(
                self.assignment,
                config.dlb,
                injector=faults,
                strategy=self.balancer_name,
            )
            if self.balancer_name != "none"
            else None
        )
        self.accountant = StepAccountant(
            config.machine,
            self.cell_list,
            dec.n_pes,
            faults=faults,
            charge_dlb=self.balancer is not None,
        )
        #: The previous step's per-PE times and per-cell counts: what the
        #: next balancer round decides on.
        self._last_times = np.zeros(dec.n_pes, dtype=np.float64)
        self._last_counts: np.ndarray | None = None
        self.step_count = 0
        self.observability = observability
        #: Simulated-clock position (sum of barrier times so far).
        self.sim_time = 0.0
        self._mode_label = mode_label(self.balancer_name)
        #: Nullable flight recorder (the bundle's, shared with the injector
        #: and auditor): the run's one timed record.
        self.events: EventLog | None = (
            observability.events if observability is not None else None
        )
        #: The finished run's imbalance summary, computed from the log's
        #: ``step`` records (None without a log, or before the run ends).
        self.imbalance: dict | None = None

    @property
    def progress(self) -> int:
        """What a checkpoint's cadence counts: steps (configurations for the
        driven runner)."""
        return self.step_count

    def _announce(self) -> None:
        """Emit ``run.start``: the last act of construction, so a runner
        that fails to build records nothing."""
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
                "enabled": self.balancer is not None,
                "policy": dlb.policy,
                "threshold": dlb.threshold,
                "max_sends_per_step": dlb.max_sends_per_step,
                "interval": dlb.interval,
                "balancer": self.balancer_name,
            },
        )

    # -- one step ------------------------------------------------------------

    def _rebalance(self) -> list:
        """One balancer round, when the run has a balancer and the interval
        is due.

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
        load: CellLoad,
        moves: list,
        forces: np.ndarray | None = None,
    ) -> StepTiming:
        """Charge step ``self.step_count`` under ``load`` and run its tail.

        Accounting, the invariant audit, the ``step`` event record and the
        metrics flush, then the simulated clock and the times/counts the next
        balancer round reads. ``forces`` lets the audit check them.
        """
        timing, totals = self.accountant.account_step(
            self.step_count, load, self.assignment
        )
        if self.auditor is not None:
            self.auditor.maybe_audit(
                self.step_count, counts=load.counts, forces=forces, moves=moves
            )
        if self.events is not None:
            self._record_step(load)
        if self.observability is not None:
            self.observability.maybe_flush(timing.step)
        self.sim_time += timing.tt
        self._last_times = totals
        self._last_counts = load.counts
        return timing

    def _checkpoint_if_due(
        self, checkpoint: CheckpointManager | None, result: RunResult
    ) -> None:
        """Snapshot the runner when the manager's cadence asks for one at
        :attr:`progress`."""
        if checkpoint is not None and checkpoint.due(self.progress):
            checkpoint.save(self.step_count, self.state_dict(result))
            if self.events is not None:
                self.events.emit_host(self.step_count, "checkpoint.save")

    def _finish(self, result: RunResult) -> RunResult:
        """The run epilogue: the ``run.end`` event and end-of-run metrics."""
        events = self.events
        if events is not None:
            self.imbalance = imbalance_summary(
                events.records, self.config.decomposition.n_pes
            )
            events.emit(
                self.step_count, "run.end",
                steps=self.step_count,
                sim_time=self.sim_time,
                imbalance=self.imbalance,
            )
        self.collect_metrics()
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

    def _record_step(self, load: CellLoad) -> None:
        """Append this step's ``step`` record: its simulated start, the DLB
        charge, every PE's force, comm and other time and, when a balancer
        runs, the barrier time had every cell stayed at home.

        Called with the step's start position still in ``self.sim_time``;
        the caller advances the simulated clock afterwards.
        """
        components = self.accountant.last_components
        extra = {}
        if self.balancer is not None:
            extra["counterfactual"] = self.accountant.counterfactual_step_time(
                self.step_count, load, self.assignment
            )
        self.events.emit(
            self.step_count, "step",
            start=self.sim_time,
            dlb=components.dlb_time,
            force=components.force_times.tolist(),
            comm=components.comm_times.tolist(),
            other=components.other_times.tolist(),
            **extra,
        )

    def collect_metrics(self) -> None:
        """Fill the metrics registry from the run.

        Called at the end of a run; files the pair-search counters (when
        the runner has them) and the traffic log, labelled with the runner's
        mode and balancer, and every family the event log folds into.
        """
        obs = self.observability
        if obs is None or obs.metrics is None:
            return
        registry = obs.metrics
        labels = {"mode": self._mode_label, "balancer": self.balancer_name}
        stats = getattr(self, "neighbor_stats", None)
        if stats is not None:
            collect_neighbor_stats(registry, stats, **labels)
        collect_traffic(registry, self.accountant.traffic, **labels)
        if self.events is not None:
            collect_events(registry, self.events)

    # -- checkpointing -------------------------------------------------------

    def state_dict(self, result: RunResult | None = None) -> dict:
        """Everything mutable, deep-copied: holder map, balancer timing view
        and strategy state, pending accounting charges, clocks, the last
        step's times and counts, the flight recorder, the partial records,
        the executed steps and moves, and the runner's own keys (system
        arrays and the neighbour list's build positions for MD, the
        configurations done for the driven runner)."""
        state = {
            "format": SNAPSHOT_FORMAT,
            "kind": self.kind,
            "config_token": config_token(**self._token_parts),
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
            "records": list(result.records) if result is not None else [],
            "counts": (
                {"steps": result.steps_run, "moves": result.total_moves}
                if result is not None else {"steps": 0, "moves": 0}
            ),
        }
        state.update(self._own_state())
        return state

    def restore(self, state: dict) -> RunResult:
        """Restore a :meth:`state_dict` snapshot; returns the partial result.

        Raises :class:`~repro.errors.CheckpointMismatchError` when the
        snapshot was taken under a different configuration, for a different
        runner kind, or in an older snapshot format.

        The flight recorder's sim buffer is replaced wholesale: the resumed
        run inherits the killed run's events — including its original
        ``run.start`` — and drops anything this runner emitted at
        construction, so the final file is byte-identical to an
        uninterrupted run's.
        """
        if state.get("format") != SNAPSHOT_FORMAT:
            raise CheckpointMismatchError(
                f"snapshot format {state.get('format', 1)!r} is not "
                f"{SNAPSHOT_FORMAT}: an older layout or force kernel wrote it; "
                "refusing to resume"
            )
        if state.get("kind") != self.kind:
            raise CheckpointMismatchError(
                f"snapshot is for runner kind {state.get('kind')!r}, not {self.kind!r}"
            )
        if state.get("config_token") != config_token(**self._token_parts):
            raise CheckpointMismatchError(
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
        counts = state.get("counts")
        if counts is None:  # written before the counts were kept
            stats = (state["balancer"] or {}).get("stats", {})
            moves = stats.get("lends", 0) + stats.get("returns", 0)
            counts = {"steps": self.progress, "moves": moves}
        return RunResult(
            dlb_enabled=self.balancer is not None,
            records=list(state["records"]),
            steps_run=counts["steps"],
            total_moves=counts["moves"],
        )


class ParallelMDRunner(_ObservedRunner):
    """A parallel MD simulation (real physics + simulated machine).

    ``observability`` (nullable, default off) attaches the event log /
    metrics registry bundle.
    """

    kind = "parallel_md"

    def __init__(
        self,
        config: SimulationConfig,
        run_config: RunConfig,
        system: ParticleSystem | None = None,
        observability: Observability | None = None,
        faults: "FaultInjector | None" = None,
        engine: Engine | None = None,
    ) -> None:
        super().__init__(config, observability, faults, run_config.balancer)
        self.run_config = run_config
        self._token_parts = dict(
            simulation=config, run=run_config, balancer=self.balancer_name
        )
        md = config.md
        dec = config.decomposition
        #: Nullable execution engine; ``None`` runs the force pass in-process
        #: through :class:`~repro.md.forces.ForceField` (same bits either way).
        self.engine = engine

        rng = generator(run_config.seed)
        self.system = system if system is not None else build_system(md, rng)
        if abs(self.system.box_length - md.box_length) > 1e-9:
            raise ConfigurationError(
                f"system box {self.system.box_length} != config box {md.box_length}"
            )
        self.potential = LennardJones(cutoff=md.cutoff)
        attractors = attractor_sites(md, rng)
        if engine is not None:
            # Observability must be attached before bind so the engine's
            # bind-time lifecycle events (worker spawns) reach the recorder.
            engine.attach_observability(observability)
            engine.bind(
                EngineContext(
                    n_particles=self.system.n,
                    n_pes=dec.n_pes,
                    box_length=md.box_length,
                    potential=self.potential,
                    skin=run_config.skin,
                )
            )
            self.force_field = EngineForceField(
                engine, attraction=md.attraction, attractors=attractors
            )
        else:
            self.force_field = ForceField(
                self.potential,
                attraction=md.attraction,
                attractors=attractors,
                skin=run_config.skin,
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

        load = self.accountant.cost_model.load(self.cell_list.counts(self.system.positions))
        timing = self._account(load, moves, forces=self.system.forces)

        concentration = measure_concentration(load.counts, self.assignment)
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
            result = RunResult(dlb_enabled=self.balancer is not None)
        for _ in range(steps):
            record = self.step()
            result.append(
                record, keep=self.step_count % self.run_config.record_interval == 0
            )
            self._checkpoint_if_due(checkpoint, result)
        return self._finish(result)

    # -- checkpointing -------------------------------------------------------

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

    Each configuration is binned once into a ``CellLoad`` (counts and cell
    work) that its ``rounds_per_config`` rounds charge under their own owner
    maps. It is a loop local: nothing is keyed on array identity, invalidated
    when cells move, or snapshotted.
    """

    kind = "driven_load"

    def __init__(
        self,
        config: SimulationConfig,
        rounds_per_config: int = 1,
        observability: Observability | None = None,
        faults: "FaultInjector | None" = None,
        balancer: str | None = None,
    ) -> None:
        if rounds_per_config <= 0:
            raise ConfigurationError(
                f"rounds_per_config must be positive, got {rounds_per_config}"
            )
        super().__init__(config, observability, faults, balancer)
        self.rounds_per_config = int(rounds_per_config)
        self._token_parts = dict(
            simulation=config, balancer=self.balancer_name, rounds=self.rounds_per_config
        )
        #: Configurations already fully processed (resume skips this many).
        self.configs_done = 0
        self._announce()

    @property
    def progress(self) -> int:
        return self.configs_done

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
            result = RunResult(dlb_enabled=self.balancer is not None)
        skip = self.configs_done
        for index, positions in enumerate(configurations):
            if index < skip:
                continue
            load = self.accountant.cost_model.load(self.cell_list.counts(positions))
            n_moves = 0
            for _ in range(self.rounds_per_config):
                moves = self._rebalance()
                n_moves += len(moves)
                self.step_count += 1
                timing = self._account(load, moves)
            result.append(
                StepRecord(
                    step=self.step_count,
                    timing=timing,
                    concentration=measure_concentration(load.counts, self.assignment),
                    n_moves=n_moves,
                )
            )
            self.configs_done = index + 1
            self._checkpoint_if_due(checkpoint, result)
        return self._finish(result)

    # -- checkpointing -------------------------------------------------------

    def _own_state(self) -> dict:
        return {"configs_done": self.configs_done}

    def _restore_own(self, state: dict) -> None:
        self.configs_done = int(state["configs_done"])
