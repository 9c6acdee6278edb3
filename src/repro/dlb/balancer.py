"""The dynamic load balancer: protocol + policy + bookkeeping.

Since the strategy seam landed, this class is a *shell*: it owns the
assignment, the policy config, the bounded-staleness timing view and the
stats counters, and delegates the per-round decision to a
:class:`~repro.dlb.strategies.Balancer` strategy instance. Build instances
by name through :func:`repro.dlb.strategies.create_balancer` (or
``RunConfig.balancer`` for a whole run).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import DLBConfig
from ..decomp.assignment import CellAssignment
from ..errors import ConfigurationError
from ..obs.profiler import scope
from ..parallel.topology import Torus2D
from .protocol import Case, Move
from .strategies import Balancer, DecisionView
from .views import TimingView


@dataclass
class BalancerStats:
    """Cumulative counters of a balancer's activity."""

    steps: int = 0
    lends: int = 0
    returns: int = 0
    idle_steps: int = 0
    moves_per_step: list[int] = field(default_factory=list)

    @property
    def moves_total(self) -> int:
        """Total cells moved (lends + returns)."""
        return self.lends + self.returns

    def as_dict(self) -> dict[str, int]:
        """Flat summary for reports and the metrics exporter."""
        return {
            "steps": self.steps,
            "lends": self.lends,
            "returns": self.returns,
            "idle_steps": self.idle_steps,
            "moves_total": self.moves_total,
        }


class DynamicLoadBalancer:
    """Drives one redistribution round per (configured) step.

    All PEs decide simultaneously from the same per-PE times (the times of
    the *previous* step, exactly as in the paper where each PE broadcasts its
    last-step execution time first). Decisions are conflict-free by
    construction: each PE only moves cells it currently holds, and each cell
    has one holder.
    """

    def __init__(
        self,
        assignment: CellAssignment,
        config: DLBConfig | None = None,
        injector=None,
        *,
        strategy: Balancer,
    ) -> None:
        if assignment.pe_side < 3:
            raise ConfigurationError(
                f"DLB needs a torus side of at least 3 (got {assignment.pe_side}): "
                "smaller tori collapse the 8-neighbour offsets"
            )
        self.assignment = assignment
        self.config = config or DLBConfig()
        self.topology = Torus2D(assignment.pe_side)
        self.stats = BalancerStats()
        self.strategy = strategy
        # Fault injection is strictly opt-in: with no injector the decision
        # path below is byte-for-byte the original (perf gate relies on it).
        self.injector = injector
        self._view: TimingView | None = None
        if injector is not None:
            self._view = TimingView(assignment.n_pes, injector.max_staleness)

    @property
    def strategy_name(self) -> str:
        """Resolved name of the active strategy (stamped into run metadata)."""
        return self.strategy.name

    @property
    def view(self) -> TimingView | None:
        """The bounded-staleness timing view (None without fault injection).

        After :meth:`decide` this holds exactly the per-observer knowledge
        the decision was made from -- the flight recorder snapshots it into
        ``dlb.decision`` events so ``repro explain`` can replay the round.
        """
        return self._view

    def decide(
        self,
        per_pe_times: np.ndarray,
        step: int = 0,
        counts: np.ndarray | None = None,
    ) -> list[Move]:
        """Run one decision round; does not mutate the assignment.

        With a fault injector attached, the step-1 timing broadcast goes
        through a :class:`~repro.dlb.views.TimingView`: dropped reports fall
        back to bounded-staleness last-known values, and a PE with no usable
        neighbour information degrades to the safe no-move decision.

        ``counts`` are optional per-cell particle counts; strategies that
        declare ``needs_counts`` (``sfc``) weight cells by them and degrade
        to uniform weights when they are missing.
        """
        times = np.asarray(per_pe_times, dtype=np.float64)
        if times.shape != (self.assignment.n_pes,):
            raise ConfigurationError(
                f"times shape {times.shape} != ({self.assignment.n_pes},)"
            )
        if self._view is not None:
            self._view.refresh(step, times, self.topology, self.injector)
        if counts is not None:
            # Accept the cell list's (nc, nc, nc) grid: its C-order flatten
            # is exactly the cell-id ordering the assignment uses.
            counts = np.asarray(counts).reshape(-1)
        with scope("dlb.decide"):
            view = DecisionView(
                times=times,
                assignment=self.assignment,
                topology=self.topology,
                config=self.config,
                timing=self._view,
                counts=counts,
            )
            return self.strategy.decide(view, step)

    def apply(self, moves: list[Move]) -> None:
        """Execute decided moves and update counters.

        Constrained strategies (``permanent``) go through the strict
        ``CellAssignment.transfer`` that enforces the permanent-cell
        invariants; unconstrained rivals use ``transfer_any``.
        """
        transfer = (
            self.assignment.transfer
            if self.strategy.constrained
            else self.assignment.transfer_any
        )
        for move in moves:
            transfer(move.cell, move.dst)
            if move.kind is Case.SEND_OWN:
                self.stats.lends += 1
            else:
                self.stats.returns += 1
        self.stats.steps += 1
        self.stats.moves_per_step.append(len(moves))
        if not moves:
            self.stats.idle_steps += 1

    def step(
        self,
        per_pe_times: np.ndarray,
        step: int = 0,
        counts: np.ndarray | None = None,
    ) -> list[Move]:
        """Decide and apply one redistribution round; returns the moves."""
        moves = self.decide(per_pe_times, step=step, counts=counts)
        self.apply(moves)
        return moves

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot of balancer bookkeeping (assignment is snapshotted by
        the runner; the two are restored together)."""
        state: dict = {
            "stats": {
                "steps": self.stats.steps,
                "lends": self.stats.lends,
                "returns": self.stats.returns,
                "idle_steps": self.stats.idle_steps,
                "moves_per_step": list(self.stats.moves_per_step),
            },
            "view": self._view.state_dict() if self._view is not None else None,
            "strategy": {
                "name": self.strategy.name,
                "state": self.strategy.state_dict(),
            },
        }
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict`."""
        stats = state["stats"]
        self.stats.steps = int(stats["steps"])
        self.stats.lends = int(stats["lends"])
        self.stats.returns = int(stats["returns"])
        self.stats.idle_steps = int(stats["idle_steps"])
        self.stats.moves_per_step = list(stats["moves_per_step"])
        if state.get("view") is not None and self._view is not None:
            self._view.load_state_dict(state["view"])
        recorded = state.get("strategy")  # absent in pre-seam checkpoints
        if recorded is not None:
            if recorded["name"] != self.strategy.name:
                raise ConfigurationError(
                    f"checkpoint was written by balancer {recorded['name']!r}; "
                    f"this run uses {self.strategy.name!r} -- rerun with "
                    f"--balancer {recorded['name']}"
                )
            self.strategy.load_state(recorded["state"])
