"""Offline replay of balancer decisions from the flight recorder.

A ``dlb.decision`` event records the round's complete inputs: the per-PE
times the balancer consumed, the pre-round lent-cell set (enough to rebuild
the holder map), and — under fault injection — the post-refresh
:class:`~repro.dlb.views.TimingView` matrices. Every strategy's rule is a
pure function of the :class:`~repro.dlb.strategies.DecisionView` built from
those inputs, so replay runs the strategy's own rule -- there is no second
copy to drift -- bit-exactly long after the run finished, and cross-checks
it against the moves the log says were made.

``repro explain <events.jsonl> --step K`` renders the replay as a
human-readable "why cells moved" narrative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import DLBConfig, from_dict
from ..decomp.assignment import CellAssignment
from ..errors import AnalysisError
from ..parallel.topology import Torus2D
from .protocol import Case, Move
from .strategies import (
    SPMD_STRATEGIES,
    Balancer,
    DecisionView,
    available,
    create_strategy,
)
from .views import TimingView

__all__ = [
    "ReplayedDecision",
    "explain_events",
    "find_run_start",
    "render_explanation",
    "replay_decision",
]


def find_run_start(records: list[dict]) -> dict:
    """The log's ``run.start`` record (the replay's static context)."""
    for record in records:
        if record.get("kind") == "run.start":
            return record
    raise AnalysisError("event log has no run.start record")


@dataclass
class ReplayedDecision:
    """One replayed balancer round and its cross-check against the log."""

    step: int
    replayed_moves: list[dict]
    logged_moves: list[dict]
    narrative: list[str]

    @property
    def matches(self) -> bool:
        """Whether the replay reproduced the logged moves exactly, in order."""
        return self.replayed_moves == self.logged_moves


def replay_decision(run_start: dict, event: dict) -> ReplayedDecision:
    """Re-run one logged balancer round from its recorded inputs.

    Rebuilds the pre-round assignment from the event's lent set and the
    timing view from its logged matrices (when present) into one
    :class:`~repro.dlb.strategies.DecisionView`, then runs the rule of the
    ``balancer`` strategy the ``run.start`` record names (logs predating the
    strategy seam replay as ``permanent``) -- the strategy's own round, not
    a copy. For strategies where every PE decides for itself
    (``permanent``, ``diffusion``) the round's moves are narrated grouped
    by source PE, each PE from its own view of the round; global ones
    (``sfc``) narrate move by move. A log recorded by a
    strategy this build does not know raises
    :class:`~repro.errors.AnalysisError` instead of reporting a spurious
    divergence.
    """
    dlb = run_start.get("dlb") or {}
    balancer_name = dlb.get("balancer", "permanent")
    if balancer_name not in available():
        raise AnalysisError(
            f"event log was recorded with balancer {balancer_name!r}, which "
            f"is not registered in this build (known: {list(available())}); "
            "cannot replay its decisions"
        )
    n_pes = int(run_start["n_pes"])
    assignment = CellAssignment(int(run_start["cells_per_side"]), n_pes)
    for cell, holder in event.get("lent") or []:
        # Mirror runner.restore: the holder map is data, not a protocol step.
        assignment.holder[int(cell)] = int(holder)
    times = np.asarray(event["times"], dtype=np.float64)
    if times.shape != (n_pes,):
        raise AnalysisError(
            f"decision at step {event.get('step')} logged {times.shape} times "
            f"for a {n_pes}-PE machine"
        )
    timing: TimingView | None = None
    view_state = event.get("view")
    if view_state is not None:
        timing = TimingView(n_pes)
        timing.load_state_dict(view_state)
    counts = event.get("counts")
    # run.start logs the DLB config's fields beside the run's own two keys.
    config = from_dict(
        DLBConfig, {k: v for k, v in dlb.items() if k not in ("enabled", "balancer")}
    )
    view = DecisionView(
        times=times,
        assignment=assignment,
        topology=Torus2D(assignment.pe_side),
        config=config,
        timing=timing,
        counts=np.asarray(counts, dtype=np.int64) if counts is not None else None,
    )
    strategy = create_strategy(balancer_name)
    step = int(event["step"])
    moves = list(strategy.decide(view, step))
    if balancer_name in SPMD_STRATEGIES:
        narrative = _narrate_per_pe(strategy, view, moves)
    else:
        narrative = [
            f"PE {move.src} ({float(times[move.src]):.4g} s) {_verb(move)} cell "
            f"{int(move.cell)} to PE {move.dst} "
            f"({float(times[move.dst]):.4g} s) [{balancer_name}]"
            for move in moves
        ]
    return ReplayedDecision(
        step=step,
        replayed_moves=[
            {
                "cell": int(move.cell),
                "src": int(move.src),
                "dst": int(move.dst),
                "case": move.kind.value,
            }
            for move in moves
        ],
        logged_moves=list(event.get("moves") or []),
        narrative=narrative,
    )


def _verb(move: Move) -> str:
    return "lent" if move.kind is Case.SEND_OWN else "returned"


def _narrate_per_pe(
    strategy: Balancer, view: DecisionView, moves: list[Move]
) -> list[str]:
    """The round's moves grouped by source PE, in PE order, each PE narrated
    from the fastest neighbour and policy verdict the round saw for it."""
    sent_by: dict[int, list[Move]] = {}
    for move in moves:
        sent_by.setdefault(move.src, []).append(move)
    narrative: list[str] = []
    threshold = view.config.threshold
    for pe in range(view.assignment.n_pes):
        fastest = int(view.fastest[pe])
        if fastest == pe:
            continue
        my_time = float(view.times[pe])
        fast_time = float(view.fast_time[pe])
        if not view.acting[pe]:
            narrative.append(
                f"PE {pe} ({my_time:.4g} s) saw fastest neighbour PE {fastest} "
                f"({fast_time:.4g} s) but stayed under the {threshold:g} "
                f"imbalance threshold — no move"
            )
            continue
        sent = sent_by.get(pe, [])
        for move in sent:
            narrative.append(
                f"PE {pe} ({my_time:.4g} s) {_verb(move)} cell {int(move.cell)} to "
                f"PE {move.dst} ({fast_time:.4g} s"
                + (", last-known report" if view.timing is not None else "")
                + ")"
            )
        if not sent:
            reason = (
                "had no eligible cell (permanent wall or nothing left to lend/return)"
                if strategy.constrained
                else f"the {strategy.name} rule moved no cell"
            )
            narrative.append(
                f"PE {pe} ({my_time:.4g} s) wanted to offload toward fastest "
                f"PE {fastest} ({fast_time:.4g} s) but {reason}"
            )
    return narrative


def explain_events(
    records: list[dict], step: int | None = None
) -> list[ReplayedDecision]:
    """Replay the log's balancer rounds (all, or only the one at ``step``).

    Raises :class:`~repro.errors.AnalysisError` when ``step`` names a step
    with no recorded decision.
    """
    run_start = find_run_start(records)
    decisions = [
        record
        for record in records
        if record.get("kind") == "dlb.decision"
        and (step is None or int(record["step"]) == step)
    ]
    if step is not None and not decisions:
        recorded = sorted(
            {int(r["step"]) for r in records if r.get("kind") == "dlb.decision"}
        )
        raise AnalysisError(
            f"no balancer decision recorded at step {step} "
            f"(decisions at steps {recorded[:12]}{'...' if len(recorded) > 12 else ''})"
        )
    return [replay_decision(run_start, event) for event in decisions]


def render_explanation(decision: ReplayedDecision) -> str:
    """The human-readable block ``repro explain`` prints for one round."""
    check = (
        "replay matches the log"
        if decision.matches
        else "REPLAY DIVERGES FROM THE LOG"
    )
    lines = [
        f"step {decision.step}: {len(decision.logged_moves)} move(s) — {check}"
    ]
    lines.extend(f"  {line}" for line in decision.narrative)
    if not decision.narrative:
        lines.append("  every PE already saw itself as fastest — nothing to move")
    if not decision.matches:
        lines.append(f"  logged:   {decision.logged_moves}")
        lines.append(f"  replayed: {decision.replayed_moves}")
    return "\n".join(lines)
