"""Per-step time accounting on the virtual machine.

Given one configuration (its per-cell counts and work, a ``CellLoad``), one
cell-to-PE assignment and the cell moves the balancer just made, the
accountant charges every PE its force, integration, bookkeeping,
halo-exchange and migration time, synchronises at the barrier, and emits the
:class:`StepTiming` record Figures 5 and 6 are built from.
"""

from __future__ import annotations

import copy

import numpy as np

from ..config import MachineConfig
from ..decomp.assignment import CellAssignment
from ..decomp.halo import compute_halo
from ..dlb.protocol import Move, MoveBatch
from ..md.celllist import CellList
from ..obs.events import scope
from ..parallel.costmodel import CellLoad, ComputeCostModel
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
        charge_dlb: bool = False,
    ) -> None:
        self.machine = machine
        #: Per-step DLB protocol charge; plain DDM (no balancer) pays none.
        self.dlb_time = machine.dlb_overhead if charge_dlb else 0.0
        self.cell_list = cell_list
        self.n_pes = int(n_pes)
        self.network = NetworkModel(machine)
        self.cost_model = ComputeCostModel(machine, cell_list)
        self.traffic = TrafficLog(n_pes)
        self._pending_migration = np.zeros(n_pes, dtype=np.float64)
        #: Nullable :class:`~repro.faults.injector.FaultInjector`; the
        #: default ``None`` path adds one branch per charge site and nothing
        #: else (the obs-off perf gate covers it).
        self.faults = faults
        #: Per-PE phase breakdown of the most recent :meth:`account_step`
        #: (what the runner's ``step`` event record carries).
        self.last_components: StepComponents | None = None

    def charge_moves(self, moves: MoveBatch | list[Move], counts_grid: np.ndarray,
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
        n_moves = len(moves)
        if not n_moves:
            return
        moves = MoveBatch.of(moves)
        src, dst = moves.src, moves.dst
        # Per move: bytes and messages put on the wire by the cell's payload
        # and by step 4 of the protocol, the broadcast of the new assignment
        # to the 8 neighbours (tiny messages; latency dominated).
        payload = counts_grid.reshape(-1)[moves.cell].astype(np.int64) * self.machine.bytes_per_particle
        # NetworkModel.transfer_time of every payload, same operand order.
        durations = self.machine.latency + payload * self.machine.inv_bandwidth
        broadcasts = np.full(n_moves, 8 * self.network.transfer_time(16))

        def per_pe(pes: np.ndarray, values: np.ndarray) -> np.ndarray:
            # Exact: the weights are integers far below 2**53.
            return np.bincount(pes, values, self.n_pes).astype(np.int64)

        # One payload message and 8 notices per move, unless a message fault
        # puts some on the wire more than once.
        sends = np.bincount(src, minlength=self.n_pes)
        notices_sent = 8 * sends
        if self.faults is not None:
            attempts = np.ones(n_moves, dtype=np.int64)
            notices = np.full(n_moves, 8)
            for k, (a, b) in enumerate(zip(src.tolist(), dst.tolist())):
                pert = self.faults.perturb_message(step, a, b, "migration")
                durations[k] = pert.perturbed_time(float(durations[k]))
                attempts[k] = pert.attempts
                pert = self.faults.perturb_message(step, a, a, "dlb-bookkeeping")
                broadcasts[k] = pert.perturbed_time(float(broadcasts[k]))
                notices[k] *= pert.attempts
            payload = payload * attempts
            sends, notices_sent = per_pe(src, attempts), per_pe(src, notices)
        # ufunc.at is unbuffered: each PE's charges add up in move order
        # (src, dst, src per move), exactly as one scalar ``+=`` per charge.
        np.add.at(
            self._pending_migration,
            np.array((src, dst, src)).T.ravel(),
            np.array((durations, durations, broadcasts)).T.ravel(),
        )
        self.traffic.record_per_pe(
            per_pe(src, payload), per_pe(dst, payload), sends, tag="migration"
        )
        self.traffic.record_per_pe(
            16 * notices_sent, 16 * notices_sent, notices_sent, tag="dlb-bookkeeping"
        )

    def _charge_step(
        self,
        step: int,
        load: CellLoad,
        owner: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-PE times of one step under ``owner``, faults applied.

        Returns ``(force_times, other_times, comm_times, wire_bytes,
        wire_messages)``; the last two are each PE's halo exchange as it went
        on the wire (a message fault may put it there more than once), for
        the caller that records traffic.
        """
        work = self.cost_model.per_pe_work(load, owner, self.n_pes)
        force_times = work.force_times
        other_times = work.integrate_times + work.cell_times
        if self.faults is not None:
            # Compute faults: per-PE slowdown factors and jitter scale
            # every compute bucket; transient stalls land once, on the
            # force phase (the straggler signal DLB reacts to).
            force_times, other_times = self.faults.perturb_compute(
                step, force_times, other_times
            )

        halo = compute_halo(owner, self.cell_list, load.counts.reshape(-1), self.n_pes)
        # NetworkModel.particles_time for every PE at once, same operand order
        # (the byte counts are exact in float64 however they are converted).
        wire_bytes = halo.ghost_particles * self.machine.bytes_per_particle
        wire_messages = halo.messages
        comm_times = (
            wire_messages * self.machine.latency + wire_bytes * self.machine.inv_bandwidth
        )
        if self.faults is not None:
            # Message faults apply at this aggregated per-PE granularity: one
            # "halo" outcome per PE per step perturbs its whole exchange.
            attempts = np.ones(self.n_pes, dtype=np.int64)
            for p in np.flatnonzero(halo.messages).tolist():
                pert = self.faults.perturb_message(step, p, p, "halo")
                comm_times[p] = pert.perturbed_time(float(comm_times[p]))
                attempts[p] = pert.attempts
            wire_bytes, wire_messages = wire_bytes * attempts, wire_messages * attempts
        return force_times, other_times, comm_times, wire_bytes, wire_messages

    def account_step(
        self,
        step: int,
        load: CellLoad,
        assignment: CellAssignment,
    ) -> tuple[StepTiming, np.ndarray]:
        """Charge one full step; returns (timing record, per-PE total times)."""
        with scope("accounting.account_step"):
            force_times, other_times, comm_times, wire_bytes, wire_messages = (
                self._charge_step(step, load, assignment.cell_owner_map())
            )
            # Log the halo exchange per tag. Each PE's receive has a matching
            # send among its neighbours, so charging the send side to the
            # receiving PE keeps machine-wide totals exact while staying O(P).
            # (A machine with no exchange at all gets no "halo" tag.)
            if wire_messages.any():
                self.traffic.record_per_pe(wire_bytes, wire_bytes, wire_messages, tag="halo")
            comm_times += self._pending_migration
            self._pending_migration[...] = 0.0

            dlb_time = self.dlb_time
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
        self, step: int, load: CellLoad, assignment: CellAssignment
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
                step, load, assignment.home
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
