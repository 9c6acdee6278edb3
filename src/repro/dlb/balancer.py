"""The dynamic load balancer: protocol + policy + bookkeeping.

Since the strategy seam landed, this class is a *shell*: it owns the
assignment, the policy config and the bounded-staleness timing view, and
delegates the per-round decision to a
:class:`~repro.dlb.strategies.Balancer` strategy instance. Build instances
by name through :func:`repro.dlb.strategies.create_balancer` (or
``RunConfig.balancer`` for a whole run).
"""

from __future__ import annotations

import numpy as np

from ..config import DLBConfig
from ..decomp.assignment import CellAssignment
from ..errors import ConfigurationError
from ..obs.events import scope
from ..parallel.topology import Torus2D
from .protocol import Move, MoveBatch
from .strategies import Balancer, DecisionView
from .views import TimingView


class DynamicLoadBalancer:
    """Drives one redistribution round per (configured) step.

    All PEs decide simultaneously from the same per-PE times (the times of
    the *previous* step, exactly as in the paper where each PE broadcasts its
    last-step execution time first). Decisions are conflict-free by
    construction: each PE only moves cells it currently holds, and each cell
    has one holder. A round is one :class:`MoveBatch`: decided, applied and
    charged as arrays.
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
    ) -> MoveBatch | list[Move]:
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

    def apply(self, moves: MoveBatch | list[Move]) -> None:
        """Execute decided moves as one atomic batch.

        Constrained strategies (``permanent``) go through the strict
        ``CellAssignment.transfer`` that enforces the permanent-cell
        invariants; unconstrained rivals use ``transfer_any``. A refused
        batch moves nothing.
        """
        transfer = (
            self.assignment.transfer
            if self.strategy.constrained
            else self.assignment.transfer_any
        )
        moves = MoveBatch.of(moves)
        transfer(moves.cell, moves.dst)

    def step(
        self,
        per_pe_times: np.ndarray,
        step: int = 0,
        counts: np.ndarray | None = None,
    ) -> MoveBatch:
        """Decide and apply one redistribution round; returns the moves."""
        moves = MoveBatch.of(self.decide(per_pe_times, step=step, counts=counts))
        self.apply(moves)
        return moves

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot of balancer bookkeeping (assignment is snapshotted by
        the runner; the two are restored together)."""
        return {
            "view": self._view.state_dict() if self._view is not None else None,
            "strategy": {
                "name": self.strategy.name,
                "state": self.strategy.state_dict(),
            },
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict` (an older
        snapshot's ``stats`` key is ignored)."""
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
