"""The permanent-cell protocol as one PE's scalar rule: the test oracle.

``repro`` decides a round for every PE at once, as arrays
(:class:`~repro.dlb.strategies.PermanentCellsBalancer`). This module keeps
the rule the way Section 2.3 states it -- one PE at a time: find the fastest
PE of the neighbourhood, classify the offset, then pick the one cell
``C_send`` -- so the array round has something to be held to move for move.
Nothing under ``src/`` imports it.
"""

from __future__ import annotations

import numpy as np

from repro.decomp.assignment import CellAssignment
from repro.dlb.protocol import Case, Move, classify_case
from repro.dlb.views import TimingView
from repro.parallel.topology import Torus2D


def lendable(assignment: CellAssignment, pe: int, offset: tuple[int, int]) -> np.ndarray:
    """``pe``'s movable cells still at home, in the order it lends toward
    ``offset`` (nearest the receiver first, then depth ``z``, then id)."""
    order = CellAssignment.LEND_OFFSETS.index(offset)
    block = assignment.movable_blocks(np.array([order]), np.array([pe]))[0]
    return block[assignment.holder[block] == pe]


def borrowed_by(assignment: CellAssignment, pe: int, lender: int) -> np.ndarray:
    """Cells with home ``lender`` currently held by ``pe`` (ascending), read
    from the whole map: the definition the round's block lookup must meet."""
    return np.flatnonzero((assignment.home == lender) & (assignment.holder == pe))


def decide_move(
    assignment: CellAssignment, topology: Torus2D, pe: int, fastest: int
) -> Move | None:
    """Apply the case analysis for ``pe`` with ``fastest`` as the target.

    Returns the decided :class:`Move`, or ``None`` when the case yields
    ``C_send = 0``.
    """
    offset = topology.offset(pe, fastest)
    case = classify_case(offset)
    if case in (Case.SELF, Case.NOTHING):
        return None
    if case is Case.SEND_OWN:
        # Lend the at-home movable cell closest to the receiver.
        cells = lendable(assignment, pe, offset)
    else:
        # Case 3: return one previously borrowed cell to its home.
        cells = borrowed_by(assignment, pe, fastest)
    if not cells.size:
        return None
    return Move(cell=int(cells[0]), src=pe, dst=fastest, kind=case)


def fastest_for(
    times: np.ndarray, topology: Torus2D, pe: int, timing: TimingView | None = None
) -> tuple[int, float]:
    """``(fastest, fast_time)`` as ``pe`` believes it: a scan of its
    neighbourhood in OFFSETS order (first minimum wins), or the
    bounded-staleness belief of ``timing``."""
    neighborhood = topology.neighborhood(pe)
    if timing is not None:
        # Strictly faster usable reports win, scanned in neighbourhood order;
        # with none usable the PE elects itself.
        best_pe, best = pe, float(times[pe])
        for peer in neighborhood[1:]:
            value = timing.effective(pe, peer)
            if value is not None and value < best:
                best_pe, best = peer, value
        return best_pe, timing.effective(pe, best_pe)
    fastest = neighborhood[int(np.argmin(times[neighborhood]))]
    return fastest, float(times[fastest])


def decide_for_rank(
    assignment: CellAssignment,
    topology: Torus2D,
    times: np.ndarray,
    pe: int,
    timing: TimingView | None = None,
) -> Move | None:
    """One PE's move: at most one cell toward its fastest PE."""
    fastest, _ = fastest_for(times, topology, pe, timing)
    if fastest == pe:
        return None
    return decide_move(assignment, topology, pe, fastest)


def rank_round(
    assignment: CellAssignment,
    times: np.ndarray,
    timing: TimingView | None = None,
) -> list[Move]:
    """A whole round: every PE's rule in PE order, none seeing another's picks
    (each PE only moves cells it holds, so none needs to)."""
    topology = Torus2D(assignment.pe_side)
    moves = (
        decide_for_rank(assignment, topology, times, pe, timing)
        for pe in range(assignment.n_pes)
    )
    return [move for move in moves if move is not None]
