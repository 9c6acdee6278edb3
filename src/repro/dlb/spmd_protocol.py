"""Distributed (SPMD) implementation of the redistribution protocol.

The paper's protocol is a distributed algorithm: step 1 sends each PE's
execution time to its 8 neighbours, steps 2-3 decide locally, step 4
broadcasts the new assignment. :class:`repro.dlb.balancer.DynamicLoadBalancer`
computes the same decisions centrally for speed; this module implements the
message-passing version on the BSP :class:`~repro.parallel.spmd.SPMDExecutor`
-- and a test asserts the two produce *identical* move lists, which is the
strongest evidence that the centralised shortcut is faithful.
"""

from __future__ import annotations

import numpy as np

from ..config import DLBConfig
from ..decomp.assignment import CellAssignment
from ..errors import ConfigurationError
from ..parallel.spmd import SPMDExecutor
from ..parallel.topology import Torus2D
from .protocol import Move
from .strategies import DecisionView, create_strategy
from .views import TimingView

#: Strategies with a distributed formulation. ``sfc`` is global by
#: construction (it re-cuts a curve over *every* cell's weight), so it has
#: no SPMD equivalent and :func:`spmd_decide` rejects it with a clear error.
SPMD_STRATEGIES = ("permanent", "diffusion", "none")


def spmd_decide(
    assignment: CellAssignment,
    per_pe_times: np.ndarray,
    max_sends_per_step: int = 1,
    injector=None,
    step: int = 0,
    view: "TimingView | None" = None,
    strategy: str = "permanent",
    config: "DLBConfig | None" = None,
) -> list[Move]:
    """One distributed decision round; returns the moves in PE order.

    Superstep 1: every rank posts its last-step time to its 8 neighbours.
    Superstep 2: every rank applies the strategy's per-rank rule
    (``Balancer.decide_for_rank`` -- the very code the centralised round
    loops over, so the two cannot drift apart).

    With an ``injector``, the broadcast goes through the executor's fault
    hook: a dropped report simply never appears in the receiver's inbox, and
    the receiver falls back to the bounded-staleness last-known value in
    ``view`` (pass the same ``view`` across steps to carry staleness over).
    The hook consults ``injector.report_delivered(step, src, dst)`` -- the
    exact query the centralised balancer makes -- so the two implementations
    observe identical drop patterns and stay move-for-move equivalent.

    ``strategy`` selects among the distributed-capable strategies
    (:data:`SPMD_STRATEGIES`): ``permanent`` runs the paper's case analysis,
    ``diffusion`` the per-rank flux rule (each rank only sheds cells it
    holds), ``none`` broadcasts times but never moves. ``sfc`` raises
    :class:`~repro.errors.ConfigurationError` -- use a centralised engine.
    """
    times = np.asarray(per_pe_times, dtype=np.float64)
    n_pes = assignment.n_pes
    if times.shape != (n_pes,):
        raise ConfigurationError(f"times shape {times.shape} != ({n_pes},)")
    if assignment.pe_side < 3:
        raise ConfigurationError("SPMD protocol needs a torus side of at least 3")
    if strategy not in SPMD_STRATEGIES:
        raise ConfigurationError(
            f"balancer {strategy!r} has no distributed formulation; the SPMD "
            f"decide path supports {SPMD_STRATEGIES} -- run 'sfc' on a "
            "centralised engine instead"
        )
    if config is None:
        config = DLBConfig(max_sends_per_step=max_sends_per_step)

    topology = Torus2D(assignment.pe_side)
    fault_hook = None
    if injector is not None:
        if view is None:
            view = TimingView(n_pes, injector.max_staleness)

        def fault_hook(_superstep: int, src: int, dst: int) -> int:
            return 1 if injector.report_delivered(step, src, dst) else 0

    executor = SPMDExecutor(n_pes, fault_hook=fault_hook)

    def broadcast_times(rank: int, ex: SPMDExecutor) -> None:
        for neighbor in topology.neighbors(rank):
            ex.send(rank, neighbor, float(times[rank]))

    executor.superstep(broadcast_times)

    moves: list[Move] = []
    rule = create_strategy(strategy)
    decision_view = DecisionView(
        times=times,
        assignment=assignment,
        topology=topology,
        config=config,
        timing=view,
    )

    def decide(rank: int, ex: SPMDExecutor) -> None:
        if view is not None:
            # Fold this round's inbox into the rank's persistent view:
            # delivered reports refresh it, holes age the last-known value.
            received = dict(ex.inbox(rank))
            view.observe(rank, rank, float(times[rank]))
            for neighbor in topology.neighbors(rank):
                if neighbor in received:
                    view.observe(rank, neighbor, received[neighbor])
                else:
                    view.miss(rank, neighbor)
        # The rule's view-aware fastest_for reads the state folded above.
        moves.extend(rule.decide_for_rank(decision_view, rank))

    executor.superstep(decide)
    return moves
