"""Per-step time accounting on the virtual machine.

Given one configuration (per-cell particle counts), one cell-to-PE
assignment and the cell moves the balancer just made, the accountant charges
every PE its force, integration, bookkeeping, halo-exchange and migration
time, synchronises at the barrier, and emits the :class:`StepTiming` record
Figures 5 and 6 are built from.
"""

from __future__ import annotations

import copy

import numpy as np

from ..config import MachineConfig
from ..decomp.assignment import CellAssignment
from ..decomp.halo import HaloExchange, compute_halo
from ..dlb.protocol import Move
from ..md.celllist import CellList
from ..obs.profiler import scope
from ..parallel.costmodel import ComputeCostModel
from ..parallel.instrumentation import StepComponents, StepTiming
from ..parallel.message import TrafficLog
from ..parallel.network import NetworkModel


class StepAccountant:
    """Charges one step's work to the PEs and produces its timing record."""

    def __init__(
        self,
        machine: MachineConfig,
        cell_list: CellList,
        n_pes: int,
        faults=None,
        profiler=None,
    ) -> None:
        self.machine = machine
        self.cell_list = cell_list
        self.n_pes = int(n_pes)
        self.network = NetworkModel(machine)
        self.cost_model = ComputeCostModel(machine, cell_list)
        self.traffic = TrafficLog(n_pes)
        self._pending_migration = np.zeros(n_pes, dtype=np.float64)
        #: Explicit nullable :class:`~repro.obs.profiler.Profiler`. When set,
        #: timings go to it directly; only when ``None`` is the process-global
        #: :func:`~repro.obs.profiler.scope` consulted. Worker processes hand
        #: each accountant its own profiler, so two accountants in different
        #: processes (or the same one) never share hidden global state.
        self.profiler = profiler
        #: Nullable :class:`~repro.faults.injector.FaultInjector`; the
        #: default ``None`` path adds one branch per charge site and nothing
        #: else (the obs-off perf gate covers it).
        self.faults = faults
        #: Per-PE phase breakdown of the most recent :meth:`account_step`
        #: (consumed by the trace recorder and the per-phase report).
        self.last_components: StepComponents | None = None

    def charge_moves(self, moves: list[Move], counts_grid: np.ndarray,
                     assignment: CellAssignment, step: int = 0) -> None:
        """Account the balancer's cell migrations.

        The particle payload of each moved cell is transferred between steps;
        its cost (and the assignment broadcast to the 8 neighbours) lands on
        the *next* step's communication time of both endpoints. With a fault
        injector, each migration ("migration" tag) and assignment broadcast
        ("dlb-bookkeeping" tag) may be delayed, lost-and-retransmitted or
        duplicated -- delivery stays reliable, only the charged time and the
        wire traffic change.
        """
        if not moves:
            return
        cell_particles = counts_grid.reshape(-1)
        for move in moves:
            payload = int(cell_particles[move.cell]) * self.machine.bytes_per_particle
            duration = self.network.transfer_time(payload)
            wire = 1
            if self.faults is not None:
                pert = self.faults.perturb_message(step, move.src, move.dst, "migration")
                duration = pert.perturbed_time(duration)
                wire = pert.attempts
            self._pending_migration[move.src] += duration
            self._pending_migration[move.dst] += duration
            self.traffic.record_bulk(
                move.src, move.dst, payload * wire, count=wire, tag="migration"
            )
            # Step 4 of the protocol: broadcast the new assignment to the
            # 8 neighbours (tiny messages; latency dominated).
            broadcast = 8 * self.network.transfer_time(16)
            wire = 8
            if self.faults is not None:
                pert = self.faults.perturb_message(
                    step, move.src, move.src, "dlb-bookkeeping"
                )
                broadcast = pert.perturbed_time(broadcast)
                wire = 8 * pert.attempts
            self._pending_migration[move.src] += broadcast
            self.traffic.record_bulk(
                move.src, move.src, 16 * wire, count=wire, tag="dlb-bookkeeping"
            )

    def _charge_step(
        self,
        step: int,
        counts_grid: np.ndarray,
        owner: np.ndarray,
        force_times_override: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, HaloExchange, np.ndarray]:
        """Per-PE times of one step under ``owner``, faults applied.

        Returns ``(force_times, other_times, comm_times, halo, attempts)``;
        ``attempts[p]`` is how many times a message fault put PE ``p``'s halo
        exchange on the wire (1 without faults), for the caller that records
        traffic.
        """
        work = self.cost_model.per_pe_work(counts_grid, owner, self.n_pes)
        force_times = (
            np.asarray(force_times_override, dtype=np.float64)
            if force_times_override is not None
            else work.force_times
        )
        other_times = work.integrate_times + work.cell_times
        if self.faults is not None:
            # Compute faults: per-PE slowdown factors and jitter scale
            # every compute bucket; transient stalls land once, on the
            # force phase (the straggler signal DLB reacts to).
            force_times, other_times = self.faults.perturb_compute(
                step, force_times, other_times
            )

        halo = compute_halo(owner, self.cell_list, counts_grid.reshape(-1), self.n_pes)
        comm_times = np.array(
            [
                self.network.particles_time(halo.messages[p], halo.ghost_particles[p])
                for p in range(self.n_pes)
            ]
        )
        attempts = np.ones(self.n_pes, dtype=np.int64)
        if self.faults is not None:
            # Message faults apply at this aggregated per-PE granularity: one
            # "halo" outcome per PE per step perturbs its whole exchange.
            for p in np.flatnonzero(halo.messages).tolist():
                pert = self.faults.perturb_message(step, p, p, "halo")
                comm_times[p] = pert.perturbed_time(float(comm_times[p]))
                attempts[p] = pert.attempts
        return force_times, other_times, comm_times, halo, attempts

    def account_step(
        self,
        step: int,
        counts_grid: np.ndarray,
        assignment: CellAssignment,
        dlb_enabled: bool,
        force_times_override: np.ndarray | None = None,
    ) -> tuple[StepTiming, np.ndarray]:
        """Charge one full step; returns (timing record, per-PE total times).

        ``force_times_override`` substitutes measured wall-clock force times
        for the cost model's (the runner's ``"measured"`` mode).
        """
        timer = (
            self.profiler.timer("accounting.account_step")
            if self.profiler is not None
            else scope("accounting.account_step")
        )
        with timer:
            force_times, other_times, comm_times, halo, attempts = self._charge_step(
                step, counts_grid, assignment.cell_owner_map(), force_times_override
            )
            # Log the halo exchange per tag. Each PE's receive has a matching
            # send among its neighbours, so charging the send side to the
            # receiving PE keeps machine-wide totals exact while staying O(P).
            bytes_per_particle = self.machine.bytes_per_particle
            for p in np.flatnonzero(halo.messages).tolist():
                wire = int(attempts[p])
                self.traffic.record_bulk(
                    p, p,
                    int(halo.ghost_particles[p]) * bytes_per_particle * wire,
                    count=int(halo.messages[p]) * wire,
                    tag="halo",
                )
            comm_times += self._pending_migration
            self._pending_migration[...] = 0.0

            dlb_time = self.machine.dlb_overhead if dlb_enabled else 0.0
            timing = StepTiming.from_components(
                step, force_times, comm_times, other_times, dlb_time
            )
            totals = force_times + comm_times + other_times + dlb_time
            self.last_components = StepComponents(
                force_times=force_times,
                comm_times=comm_times,
                other_times=other_times,
                dlb_time=dlb_time,
            )
            return timing, totals

    def counterfactual_step_time(
        self, step: int, counts_grid: np.ndarray, assignment: CellAssignment
    ) -> float:
        """Barrier time of this step had every cell stayed at its home PE.

        A pure side computation for the imbalance analytics: the same cost
        model, halo accounting and fault perturbations as
        :meth:`account_step` (the injector is stateless, so re-drawing the
        step's faults is exact), but over ``assignment.home`` instead of the
        holder map, with no DLB overhead, no traffic recording and no
        pending-migration mutation. Fault-event emission is suppressed for
        the duration — the counterfactual world must not write to the flight
        recorder.
        """
        faults = self.faults
        saved_events = None
        if faults is not None:
            saved_events = faults.events
            faults.events = None
        try:
            force_times, other_times, comm_times, _, _ = self._charge_step(
                step, counts_grid, assignment.home
            )
            return float((force_times + comm_times + other_times).max())
        finally:
            if faults is not None:
                faults.events = saved_events

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot of the accountant's mutable state (deferred migration
        charges and the cumulative traffic log)."""
        return {
            "pending_migration": self._pending_migration.copy(),
            "traffic": copy.deepcopy(self.traffic),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict`."""
        self._pending_migration[...] = state["pending_migration"]
        self.traffic = copy.deepcopy(state["traffic"])
