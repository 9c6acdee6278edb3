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

from ..errors import ProtocolError


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


#: The case of each offset ``(di, dj)`` at ``3 * di + dj + 4`` (its
#: :attr:`Torus2D.offset_code <repro.parallel.topology.Torus2D.offset_code>`).
CODE_CASES = tuple(classify_case((di, dj)) for di in (-1, 0, 1) for dj in (-1, 0, 1))


@dataclass(frozen=True, eq=False)
class MoveBatch:
    """One round's moves as parallel arrays, in decision order.

    The balancer decides, applies and charges a round through the arrays;
    iterating yields :class:`Move` records for the consumers that log or
    narrate moves one at a time, and a batch equals any sequence of the
    same moves in the same order.
    """

    cell: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    #: True for a Case 1 lend (:attr:`Case.SEND_OWN`), False for a return.
    lend: np.ndarray

    @classmethod
    def of(cls, moves) -> MoveBatch:
        """``moves`` as a batch (a batch is returned as it is)."""
        if isinstance(moves, MoveBatch):
            return moves
        rows = [(m.cell, m.src, m.dst, m.kind is Case.SEND_OWN) for m in moves]
        cell, src, dst, lend = np.array(rows, dtype=np.int64).reshape(-1, 4).T
        return cls(cell, src, dst, lend.astype(bool))

    def __len__(self) -> int:
        return len(self.cell)

    def __iter__(self):
        columns = (self.cell, self.src, self.dst, self.lend)
        for cell, src, dst, lend in zip(*(column.tolist() for column in columns)):
            yield Move(cell, src, dst, Case.SEND_OWN if lend else Case.RETURN_BORROWED)

    def __eq__(self, other) -> bool:
        if isinstance(other, (MoveBatch, list, tuple)):
            return list(self) == list(other)
        return NotImplemented
