"""Pluggable balancer strategies behind the :class:`Balancer` protocol.

A fixed table maps strategy names to classes. A run's strategy comes from
its config alone (``None`` means ``permanent``), and every layer downstream
-- runner, checkpoints, flight recorder, ``repro explain`` -- carries that
concrete name. The fourth balancer name, ``none``, has no strategy: it is
plain DDM, and the runner builds no balancer for it.

Every strategy runs one round per step at the protocol's fixed cadence
(Section 2.3): there is no interval, no send quota and no imbalance
threshold to set. Strategies are stateless -- a round is a pure function of
its :class:`DecisionView` -- so a checkpoint holds no strategy state.

Three strategies ship:

``permanent``
    The paper's permanent-cell protocol (the default): each PE that is not
    its own fastest sends at most one cell toward the fastest PE it knows
    of, decided for every PE at once as arrays; tier-1 tests hold it move
    for move to the scalar per-PE rule kept in ``tests/dlb/rank_rule.py``.
``diffusion``
    Nearest-neighbour load diffusion (Demirel & Sbalzarini): every
    overloaded PE sends one cell toward its fastest neighbour when half the
    time difference covers at least one cell's estimated cost (each PE acts
    independently on cells it holds, so the scheme is conflict-free, like
    ``permanent``).
``sfc``
    Space-filling-curve repartition: cells are walked along a Morton
    (z-order) curve over the cross-section, weighted by particle counts,
    and the curve is re-cut into ``P`` equal-weight chunks; the first ``P``
    cells off their chunk move each round. This is a *global* method -- it
    needs every PE's counts at once -- so it has no per-PE decision.

Rival strategies (``diffusion``, ``sfc``) are **unconstrained**: they may
move any cell anywhere, so they bypass the permanent-cell invariants (the
assignment's :meth:`~repro.decomp.assignment.CellAssignment.transfer_any`
path) and the :class:`~repro.faults.audit.InvariantAuditor` relaxes its
permanent-pinning and case-ledger checks for them. Ownership conservation
-- every cell has exactly one holder -- always holds for every strategy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import BALANCER_NAMES
from ..decomp.assignment import CellAssignment
from ..errors import ConfigurationError
from ..parallel.topology import Torus2D
from .protocol import CODE_CASES, Case, Move, MoveBatch
from .views import TimingView


def resolve_balancer_name(requested: str | None) -> str:
    """The concrete strategy name of a request: ``None`` is ``"permanent"``
    (the paper's protocol); unknown names raise."""
    name = "permanent" if requested is None else requested
    if name not in BALANCER_NAMES:
        raise ConfigurationError(
            f"unknown balancer {name!r}; choose one of {BALANCER_NAMES}"
        )
    return name


@dataclass
class DecisionView:
    """Everything one decision round may read, bundled for ``decide()``.

    ``timing`` is the bounded-staleness :class:`TimingView` (present exactly
    when fault injection is active); ``counts`` are per-cell particle counts
    (present when the runner has them -- strategies with ``needs_counts``
    degrade to uniform weights when they are missing).

    Every PE decides at the same moment, so each one's beliefs are found
    here once, as arrays: ``fastest[pe]`` and ``fast_time[pe]`` (the fastest
    PE of its neighbourhood and that PE's time, as ``pe`` believes them) and
    ``acting[pe]`` (not its own fastest, so it offloads).
    """

    times: np.ndarray
    assignment: CellAssignment
    topology: Torus2D
    timing: TimingView | None = None
    counts: np.ndarray | None = None

    def __post_init__(self) -> None:
        table = self.topology.neighborhood_table
        pes = np.arange(len(table))
        if self.timing is None:
            # First minimum wins: ties break as a scan in OFFSETS order does.
            self.fastest = table[pes, self.times[table].argmin(axis=1)]
            self.fast_time = self.times[self.fastest]
        else:
            # Each PE's bounded-staleness belief: its own time, then every
            # neighbour report it may still use, in the same column order.
            heard = self.timing.times[pes[:, None], table]
            heard[self.timing.age[pes[:, None], table] > self.timing.max_staleness] = np.inf
            heard[:, 0] = self.times
            self.fastest = table[pes, heard.argmin(axis=1)]
            self.fast_time = self.timing.times[pes, self.fastest]
        self.acting = self.fastest != pes


class Balancer:
    """Contract shared by all balancer strategies.

    Subclasses implement :meth:`decide` -- one redistribution round, reading
    a :class:`DecisionView` and returning its moves (a :class:`Move` list or
    a :class:`MoveBatch`) *without* mutating the assignment. A strategy keeps
    no state between rounds, so checkpoints and replays need only the view.
    """

    #: Strategy name (its key in the strategy table); subclasses override.
    name = "abstract"
    #: True when every decided move obeys the permanent-cell invariants
    #: (lend-to-lower-neighbours only); the balancer shell applies moves
    #: through the strict ``CellAssignment.transfer`` for constrained
    #: strategies and through ``transfer_any`` otherwise.
    constrained = True
    #: True when :meth:`decide` wants per-cell particle counts in the view.
    needs_counts = False

    def decide(self, view: DecisionView, step: int = 0) -> list[Move] | MoveBatch:
        """Run one decision round; must not mutate ``view.assignment``."""
        raise NotImplementedError


#: Per offset code (:attr:`Torus2D.offset_code`) of a PE's fastest neighbour:
#: the :meth:`CellAssignment.movable_blocks` order it picks from, or -1 when
#: it sends nothing (itself, Case 2).
_PICK_ORDER = np.array([
    CellAssignment.LEND_OFFSETS.index((code // 3 - 1, code % 3 - 1))
    if case is Case.SEND_OWN
    else CellAssignment.ASCENDING if case is Case.RETURN_BORROWED
    else -1
    for code, case in enumerate(CODE_CASES)
])


def _first_held(
    holder: np.ndarray, blocks: np.ndarray, pes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(row, cell)``: the first cell of each row of ``blocks`` that
    ``pes[row]`` holds, in row order; rows holding none are left out."""
    held = holder[blocks] == pes[:, None]
    rows = np.flatnonzero(held.any(axis=1))
    if not rows.size:
        return rows, rows
    return rows, blocks[rows, held[rows].argmax(axis=1)]


class PermanentCellsBalancer(Balancer):
    """The paper's protocol, decided for every PE at once.

    The offset of each acting PE's fastest neighbour picks its candidate
    block from the assignment's static tables -- Case 1 its own movable cells
    in lend order toward that offset, Case 3 the lender's movable cells in
    ascending order -- and the PE sends the first of them it still holds
    (``C_send``, one cell). PEs act only on cells they hold, so picks never
    collide; moves come out in PE order.
    """

    name = "permanent"
    constrained = True

    def decide(self, view: DecisionView, step: int = 0) -> MoveBatch:
        pes = view.acting.nonzero()[0]
        fastest = view.fastest[pes]
        order = _PICK_ORDER[view.topology.offset_code[pes, fastest]]
        sending = order >= 0
        pes, fastest, order = pes[sending], fastest[sending], order[sending]
        lending = order != CellAssignment.ASCENDING
        blocks = view.assignment.movable_blocks(order, np.where(lending, pes, fastest))
        rows, cells = _first_held(view.assignment.holder, blocks, pes)
        return MoveBatch(cell=cells, src=pes[rows], dst=fastest[rows], lend=lending[rows])


def _column_torus_distance(
    cells: np.ndarray, target_pe: int, assignment: CellAssignment
) -> np.ndarray:
    """L1 torus distance (in cell columns) from cells to a PE's block centre."""
    nc = assignment.cells_per_side
    m = assignment.m
    column = cells // nc
    cx, cy = np.divmod(column, nc)
    ti, tj = assignment.pe_coords(target_pe)
    centre_x = ti * m + (m - 1) / 2.0
    centre_y = tj * m + (m - 1) / 2.0
    dx = np.abs(cx - centre_x)
    dy = np.abs(cy - centre_y)
    return np.minimum(dx, nc - dx) + np.minimum(dy, nc - dy)


class DiffusionBalancer(Balancer):
    """Nearest-neighbour load diffusion (Demirel & Sbalzarini).

    Every PE compares its own time against the fastest neighbour it knows
    of; when slower, it sends one cell once half the time difference (the
    diffusive flux) covers one cell's estimated cost, ``my_time /
    cells_held`` -- crude, but self-correcting over steps exactly as
    diffusion schemes are. The cell geometrically closest to the receiver
    moves (ties broken by depth then id, like the paper's protocol), which
    keeps the partition roughly compact without enforcing it.

    Unconstrained: permanent cells may move and any 8-neighbour may receive,
    so the assignment's strict lending invariants do not apply.
    """

    name = "diffusion"
    constrained = False

    def decide(self, view: DecisionView, step: int = 0) -> list[Move]:
        assignment = view.assignment
        moves: list[Move] = []
        for pe in np.flatnonzero(view.acting).tolist():
            fastest = int(view.fastest[pe])
            my_time = float(view.times[pe])
            held = np.flatnonzero(assignment.holder == pe)
            if held.size <= 1 or my_time <= 0:
                continue
            per_cell = my_time / held.size
            flux = 0.5 * (my_time - float(view.fast_time[pe]))
            if flux / per_cell < 1:  # natural hysteresis: small imbalances stay put
                continue
            distance = _column_torus_distance(held, fastest, assignment)
            z = held % assignment.cells_per_side
            cell = int(held[np.lexsort((held, z, distance))[0]])
            kind = Case.RETURN_BORROWED if int(assignment.home[cell]) == fastest else Case.SEND_OWN
            moves.append(Move(cell, pe, fastest, kind))
        return moves


def _morton_interleave(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Morton (z-order) code of non-negative integer coordinate arrays."""
    code = np.zeros(np.shape(x), dtype=np.int64)
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    for bit in range(16):
        code |= ((x >> bit) & 1) << (2 * bit + 1)
        code |= ((y >> bit) & 1) << (2 * bit)
    return code


class SFCBalancer(Balancer):
    """Space-filling-curve repartition of cell ownership.

    Walks every cell column along a Morton curve over the cross-section
    (cells within a column stay contiguous, preserving the pillar locality
    the force pass likes), weights each cell by its particle count plus one
    (pure geometry when counts are unavailable), and cuts the curve into
    ``P`` chunks of equal cumulative weight. Chunk ``k`` belongs to the PE
    with Morton rank ``k``, so neighbouring chunks land on geometrically
    nearby PEs. Moves are the cells whose target differs from their current
    holder, in curve order and at most ``P`` per round -- the partition
    converges to the SFC cut over a few steps instead of migrating half the
    box at once.

    Global by construction (needs every cell's weight), hence no per-PE
    decision.
    """

    name = "sfc"
    constrained = False
    needs_counts = True

    def decide(self, view: DecisionView, step: int = 0) -> MoveBatch:
        assignment = view.assignment
        nc = assignment.cells_per_side
        n_cells = assignment.n_cells
        n_pes = assignment.n_pes
        if view.counts is not None:
            weights = np.asarray(view.counts, dtype=np.float64) + 1.0
            if weights.shape != (n_cells,):
                raise ConfigurationError(
                    f"counts shape {np.shape(view.counts)} != ({n_cells},)"
                )
        else:
            weights = np.ones(n_cells, dtype=np.float64)

        columns = np.arange(nc * nc)
        cx, cy = np.divmod(columns, nc)
        column_order = columns[np.argsort(_morton_interleave(cx, cy), kind="stable")]
        # Cells of column c are ids c*nc .. c*nc+nc-1; keep them contiguous.
        walk = (column_order[:, None] * nc + np.arange(nc)[None, :]).ravel()

        w = weights[walk]
        # Chunk of each cell: centre-of-mass position along the curve against
        # P-1 equal-weight boundaries.
        centre = np.cumsum(w) - w / 2.0
        total = float(w.sum())
        boundaries = np.arange(1, n_pes) * (total / n_pes)
        chunk = np.searchsorted(boundaries, centre, side="left")

        pes = np.arange(n_pes)
        pi, pj = np.divmod(pes, assignment.pe_side)
        pe_by_rank = pes[np.argsort(_morton_interleave(pi, pj), kind="stable")]
        target = np.empty(n_cells, dtype=np.int64)
        target[walk] = pe_by_rank[chunk]

        holder = assignment.holder
        cells = walk[holder[walk] != target[walk]][:n_pes]
        dst = target[cells]
        return MoveBatch(
            cell=cells, src=holder[cells], dst=dst, lend=assignment.home[cells] != dst
        )


# -- the strategy table ----------------------------------------------------------

#: Strategies whose round is every PE deciding for itself (an SPMD
#: formulation), so ``repro explain`` narrates them PE by PE from the view's
#: per-PE beliefs. ``sfc`` is global and has no per-PE decision.
SPMD_STRATEGIES = ("permanent", "diffusion")

#: The class of every name in :data:`~repro.config.BALANCER_NAMES` but
#: ``"none"``, which balances nothing.
_STRATEGIES: dict[str, type[Balancer]] = {
    cls.name: cls for cls in (PermanentCellsBalancer, DiffusionBalancer, SFCBalancer)
}


def available() -> tuple[str, ...]:
    """Strategy names, sorted: every balancer name but ``"none"``."""
    return tuple(sorted(_STRATEGIES))


def create_strategy(name: str | None = None) -> Balancer:
    """Instantiate the strategy for ``name`` (``None`` is ``permanent``)."""
    name = resolve_balancer_name(name)
    if name not in _STRATEGIES:
        raise ConfigurationError("balancer 'none' is plain DDM: no strategy to build")
    return _STRATEGIES[name]()


def create_balancer(
    assignment: CellAssignment,
    injector=None,
    strategy: str | None = None,
):
    """Build a :class:`~repro.dlb.balancer.DynamicLoadBalancer` around the
    strategy named ``strategy`` (``None`` is ``permanent``)."""
    from .balancer import DynamicLoadBalancer

    return DynamicLoadBalancer(
        assignment, injector=injector, strategy=create_strategy(strategy)
    )
