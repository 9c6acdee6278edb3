"""Virtual interconnect of the square-pillar decomposition: a 2-D torus.

The topology answers two questions: who are a PE's neighbours, and what is
the relative offset between two PEs (the DLB protocol classifies its cases
by that offset).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError


class Torus2D:
    """2-D torus of ``side x side`` PEs with 8-neighbour connectivity.

    PE(i, j) has flat id ``i * side + j``. This is the virtual interconnect of
    the square-pillar decomposition (Figure 3).
    """

    #: Relative offsets of the 8 neighbours, row-major.
    OFFSETS: tuple[tuple[int, int], ...] = (
        (-1, -1),
        (-1, 0),
        (-1, 1),
        (0, -1),
        (0, 1),
        (1, -1),
        (1, 0),
        (1, 1),
    )

    def __init__(self, side: int) -> None:
        if side <= 0:
            raise ConfigurationError(f"torus side must be positive, got {side}")
        self.side = int(side)
        self.n_pes = self.side * self.side
        i, j = np.divmod(np.arange(self.n_pes)[:, None], self.side)
        di, dj = np.array(((0, 0),) + self.OFFSETS).T
        #: ``(P, 9)``: row ``pe`` is ``neighborhood(pe)``, so an ``argmin``
        #: along a row breaks ties exactly as a scan in OFFSETS order does.
        self.neighborhood_table = ((i + di) % self.side) * self.side + (j + dj) % self.side
        self.neighborhood_table.setflags(write=False)

    def coords(self, pe: int) -> tuple[int, int]:
        """Torus coordinates ``(i, j)`` of a flat PE id."""
        self._check(pe)
        return pe // self.side, pe % self.side

    def flat(self, i: int, j: int) -> int:
        """Flat PE id of (wrapped) torus coordinates."""
        return (i % self.side) * self.side + (j % self.side)

    def neighbors(self, pe: int) -> list[int]:
        """Distinct 8-neighbourhood of ``pe`` (fewer on tiny tori)."""
        i, j = self.coords(pe)
        out = {self.flat(i + di, j + dj) for di, dj in self.OFFSETS}
        out.discard(pe)
        return sorted(out)

    def neighborhood(self, pe: int) -> list[int]:
        """``pe`` followed by its 8 neighbours in OFFSETS order (may repeat on
        tiny tori); the DLB protocol iterates this fixed order so ties are
        broken deterministically."""
        self._check(pe)
        return self.neighborhood_table[pe].tolist()

    def offset(self, src: int, dst: int) -> tuple[int, int]:
        """Minimal signed offset ``(di, dj)`` from ``src`` to ``dst``.

        Each component is folded into ``[-side/2, side/2)``; for tori of side
        >= 3 adjacent PEs always yield components in {-1, 0, 1}.
        """
        self._check(src)
        side, half = self.side, self.side // 2
        di = (dst // side - src // side + half) % side - half
        dj = (dst % side - src % side + half) % side - half
        return di, dj

    def _check(self, pe: int) -> None:
        if not 0 <= pe < self.n_pes:
            raise ConfigurationError(f"PE {pe} out of range [0, {self.n_pes})")
