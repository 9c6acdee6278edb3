"""The cell redistribution protocol of Section 2.3.

Every step, each PE:

1. sends its last-step execution time to its 8 neighbours;
2. finds the fastest PE among itself and those neighbours;
3. decides a cell ``C_send`` by the case analysis below;
4. broadcasts the new assignment to its neighbours.

The case analysis, for PE(i, j) and the fastest PE at relative offset
``(di, dj)``:

* **Case 1** -- offset in {(-1,-1), (-1,0), (0,-1)}: send one of PE(i,j)'s own
  movable cells (if any remain at home).
* **Case 2** -- offset in {(-1,+1), (+1,-1)}: no cell can be sent (the
  permanent wall blocks those diagonals).
* **Case 3** -- offset in {(0,+1), (+1,0), (+1,+1)}: if PE(i,j) previously
  *received* cells from the fastest PE, return one of them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..decomp.assignment import CellAssignment
from ..errors import ProtocolError
from ..parallel.topology import Torus2D


class Case(enum.Enum):
    """Outcome class of the protocol's case analysis."""

    SELF = "self"
    SEND_OWN = "send_own"
    NOTHING = "nothing"
    RETURN_BORROWED = "return_borrowed"


#: Offsets toward which a PE may lend its own movable cells.
CASE1_OFFSETS = frozenset({(-1, -1), (-1, 0), (0, -1)})
#: Offsets toward which nothing can ever be sent.
CASE2_OFFSETS = frozenset({(-1, 1), (1, -1)})
#: Offsets from which cells were borrowed and may be returned.
CASE3_OFFSETS = frozenset({(0, 1), (1, 0), (1, 1)})


def classify_case(offset: tuple[int, int]) -> Case:
    """Classify a neighbour offset into the protocol's cases."""
    if offset == (0, 0):
        return Case.SELF
    if offset in CASE1_OFFSETS:
        return Case.SEND_OWN
    if offset in CASE2_OFFSETS:
        return Case.NOTHING
    if offset in CASE3_OFFSETS:
        return Case.RETURN_BORROWED
    raise ProtocolError(f"offset {offset} is not an 8-neighbour offset")


@dataclass(frozen=True)
class Move:
    """One cell transfer decided by the protocol."""

    cell: int
    src: int
    dst: int
    kind: Case


def _first_free(cells: np.ndarray, exclude: set[int]) -> int | None:
    """First of ``cells`` not in ``exclude``, or ``None``.

    At most ``len(exclude)`` leading cells can be excluded, so one more than
    that is all that needs looking at.
    """
    for cell in cells[: len(exclude) + 1].tolist():
        if cell not in exclude:
            return cell
    return None


def decide_move(
    assignment: CellAssignment,
    topology: Torus2D,
    pe: int,
    fastest: int,
    exclude: set[int] | None = None,
) -> Move | None:
    """Apply the case analysis for ``pe`` with ``fastest`` as the target.

    Returns the decided :class:`Move`, or ``None`` when the case yields
    ``C_send = 0``. ``exclude`` lists cells already committed this step (used
    when a PE may send more than one cell per step).
    """
    exclude = exclude or set()
    offset = topology.offset(pe, fastest)
    case = classify_case(offset)
    if case in (Case.SELF, Case.NOTHING):
        return None
    if case is Case.SEND_OWN:
        # Lend the at-home movable cell closest to the receiver.
        cells = assignment.lendable(pe, offset)
    else:
        # Case 3: return one previously borrowed cell to its home.
        cells = assignment.borrowed_by(pe, fastest)
    cell = _first_free(cells, exclude)
    return None if cell is None else Move(cell=cell, src=pe, dst=fastest, kind=case)
