"""Pluggable balancer strategies behind the :class:`Balancer` protocol.

A fixed table maps strategy names to classes. A run's strategy comes from
its config alone (``None`` means ``permanent``), and every layer downstream
-- runner, checkpoints, flight recorder, ``repro explain`` -- carries that
concrete name.

Four strategies ship:

``permanent``
    The paper's permanent-cell protocol (the default). The decision loop
    here is the exact code previously inlined in
    :class:`~repro.dlb.balancer.DynamicLoadBalancer.decide`; tier-1 tests
    assert move-for-move identity and run-digest identity through the seam.
``diffusion``
    Nearest-neighbour load diffusion (Demirel & Sbalzarini): every
    overloaded PE pushes cells toward its fastest neighbour, with the number
    of cells proportional to half the time difference (each PE acts
    independently on cells it holds, so the scheme is conflict-free and is
    one per-rank rule, like ``permanent``).
``sfc``
    Space-filling-curve repartition: cells are walked along a Morton
    (z-order) curve over the cross-section, weighted by particle counts,
    and the curve is re-cut into ``P`` equal-weight chunks. This is a
    *global* method -- it needs every PE's counts at once -- so it has no
    per-rank rule and overrides the whole round instead.
``none``
    Decides no moves, ever. Formalizes the no-balance counterfactual the
    flight-recorder analytics compare against: DLB bookkeeping still runs
    (and is still charged by the cost model), only redistribution is off.

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

from ..config import BALANCER_NAMES, DLBConfig
from ..decomp.assignment import CellAssignment
from ..errors import ConfigurationError
from ..parallel.topology import Torus2D
from .protocol import Case, Move, decide_move
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

    A view is built per round and its ``times`` are that round's, so without
    a ``timing`` view every PE's fastest neighbour is found here, once, as
    one ``argmin`` over the topology's static neighbourhood table.
    """

    times: np.ndarray
    assignment: CellAssignment
    topology: Torus2D
    config: DLBConfig
    timing: TimingView | None = None
    counts: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.timing is None:
            table = self.topology.neighborhood_table
            column = self.times[table].argmin(axis=1)
            self._fastest = table[np.arange(len(table)), column].tolist()

    def fastest_for(self, pe: int) -> tuple[int, float]:
        """``(fastest, fast_time)`` as believed by ``pe``.

        With a timing view this is the bounded-staleness belief; without it
        the argmin over the fixed neighbourhood order (first minimum wins,
        so ties break exactly as a scan in that order would).
        """
        if self.timing is not None:
            fastest = self.timing.fastest_known(pe, self.times, self.topology)
            believed = self.timing.effective(pe, fastest)
            assert believed is not None  # fastest_known only picks usable views
            return fastest, believed
        fastest = self._fastest[pe]
        return fastest, float(self.times[fastest])

    def wants_rebalance(self, my_time: float, fast_time: float) -> bool:
        """The receiver-selection policy gate (shared by all strategies)."""
        if self.config.policy == "fastest":
            return True
        # "threshold" policy: only move when relative imbalance is large enough.
        if fast_time <= 0:
            return my_time > 0
        return (my_time - fast_time) / fast_time > self.config.threshold


class Balancer:
    """Contract shared by all balancer strategies.

    Subclasses implement :meth:`decide` -- one redistribution round, reading
    a :class:`DecisionView` and returning the :class:`Move` list *without*
    mutating the assignment. Strategies with internal state participate in
    checkpointing through :meth:`state_dict` / :meth:`load_state`; all four
    built-ins are stateless.
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

    def decide(self, view: DecisionView, step: int = 0) -> list[Move]:
        """Run one decision round; must not mutate ``view.assignment``.

        The default round is every PE applying :meth:`decide_for_rank` in PE
        order; global strategies (``sfc``) override it.
        """
        moves: list[Move] = []
        for pe in range(view.assignment.n_pes):
            moves.extend(self.decide_for_rank(view, pe))
        return moves

    def decide_for_rank(self, view: DecisionView, pe: int) -> list[Move]:
        """One rank's local rule. PEs act only on cells they hold, so a
        round is this rule applied rank by rank in PE order."""
        raise NotImplementedError

    def state_dict(self) -> dict:
        """Checkpoint snapshot of strategy-internal state."""
        return {}

    def load_state(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict`."""


class PermanentCellsBalancer(Balancer):
    """The paper's protocol, extracted move-for-move from the pre-seam code.

    Per PE: find the fastest of the 8-neighbourhood (bounded-staleness view
    under faults), gate on the policy, then run the offset case analysis
    (:func:`repro.dlb.protocol.decide_move`) up to ``max_sends_per_step``
    times with already-committed cells excluded.
    """

    name = "permanent"
    constrained = True

    def decide_for_rank(self, view: DecisionView, pe: int) -> list[Move]:
        fastest, fast_time = view.fastest_for(pe)
        if fastest == pe:
            return []
        if not view.wants_rebalance(float(view.times[pe]), fast_time):
            return []
        moves: list[Move] = []
        exclude: set[int] = set()
        for _ in range(view.config.max_sends_per_step):
            move = decide_move(view.assignment, view.topology, pe, fastest, exclude)
            if move is None:
                break
            exclude.add(move.cell)
            moves.append(move)
        return moves


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
    of; when slower, it sheds cells whose summed estimated cost approaches
    half the time difference (the diffusive flux), capped by
    ``max_sends_per_step``. Cost per cell is estimated as ``my_time /
    cells_held`` -- crude, but self-correcting over steps exactly as
    diffusion schemes are. Cells geometrically closest to the receiver move
    first (ties broken by depth then id, like the paper's protocol), which
    keeps the partition roughly compact without enforcing it.

    Unconstrained: permanent cells may move and any 8-neighbour may receive,
    so the assignment's strict lending invariants do not apply.
    """

    name = "diffusion"
    constrained = False

    def decide_for_rank(self, view: DecisionView, pe: int) -> list[Move]:
        fastest, fast_time = view.fastest_for(pe)
        if fastest == pe:
            return []
        my_time = float(view.times[pe])
        if not view.wants_rebalance(my_time, fast_time):
            return []
        held = np.flatnonzero(view.assignment.holder == pe)
        if held.size <= 1 or my_time <= 0:
            return []
        per_cell = my_time / held.size
        flux = 0.5 * (my_time - fast_time)
        quota = min(
            view.config.max_sends_per_step,
            int(flux / per_cell),
            int(held.size) - 1,
        )
        if quota <= 0:  # natural hysteresis: small imbalances stay put
            return []
        distance = _column_torus_distance(held, fastest, view.assignment)
        z = held % view.assignment.cells_per_side
        order = np.lexsort((held, z, distance))
        home = view.assignment.home
        moves = []
        for cell in held[order[:quota]]:
            kind = Case.RETURN_BORROWED if int(home[cell]) == fastest else Case.SEND_OWN
            moves.append(Move(int(cell), pe, fastest, kind))
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
    holder, emitted in curve order and capped at ``max_sends_per_step * P``
    per round -- the partition converges to the SFC cut over a few steps
    instead of migrating half the box at once.

    Global by construction (needs every cell's weight), hence no
    per-rank rule: it overrides :meth:`Balancer.decide`.
    """

    name = "sfc"
    constrained = False
    needs_counts = True

    def decide(self, view: DecisionView, step: int = 0) -> list[Move]:
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
        home = assignment.home
        budget = view.config.max_sends_per_step * n_pes
        moves: list[Move] = []
        for cell in walk:
            if len(moves) >= budget:
                break
            src = int(holder[cell])
            dst = int(target[cell])
            if src == dst:
                continue
            kind = Case.RETURN_BORROWED if int(home[cell]) == dst else Case.SEND_OWN
            moves.append(Move(int(cell), src, dst, kind))
        return moves


class NoBalancer(Balancer):
    """The no-balance counterfactual: never moves a cell.

    Running with ``balancer="none"`` keeps the whole DLB machinery -- timing
    exchange, decision events, cost-model overhead -- while pinning every
    cell at home, which is exactly the baseline the imbalance analytics
    (and the balancer comparison matrix) measure rivals against.
    """

    name = "none"
    constrained = True  # vacuously: no move ever violates an invariant

    def decide_for_rank(self, view: DecisionView, pe: int) -> list[Move]:
        return []


# -- the strategy table ----------------------------------------------------------

#: Strategies whose round is one per-rank rule (an SPMD formulation): each
#: rank runs :meth:`Balancer.decide_for_rank` on its own view, so ``repro
#: explain`` replays and narrates them PE by PE. ``sfc`` is global and has
#: none.
SPMD_STRATEGIES = ("permanent", "diffusion", "none")

#: The class of every name in :data:`~repro.config.BALANCER_NAMES`.
_STRATEGIES: dict[str, type[Balancer]] = {
    cls.name: cls
    for cls in (PermanentCellsBalancer, DiffusionBalancer, SFCBalancer, NoBalancer)
}


def available() -> tuple[str, ...]:
    """Strategy names, sorted (for docs, CLI help and errors)."""
    return tuple(sorted(BALANCER_NAMES))


def create_strategy(name: str | None = None) -> Balancer:
    """Instantiate the strategy for ``name`` (``None`` is ``permanent``)."""
    return _STRATEGIES[resolve_balancer_name(name)]()


def create_balancer(
    assignment: CellAssignment,
    config: DLBConfig | None = None,
    injector=None,
    strategy: str | None = None,
):
    """Build a :class:`~repro.dlb.balancer.DynamicLoadBalancer` around the
    strategy named ``strategy`` (``None`` is ``permanent``)."""
    from .balancer import DynamicLoadBalancer

    return DynamicLoadBalancer(
        assignment, config, injector=injector, strategy=create_strategy(strategy)
    )
