"""One decision round against a per-PE reference that shares no code with it.

The round reads three static tables (the torus neighbourhood table, each
PE's home block and its lend order) where the parent commit rebuilt a
neighbourhood list, scanned the whole cell map and sorted the candidates
once per PE. The reference below is that parent code, byte for byte, written
against nothing but ``home`` / ``holder`` / ``permanent`` and plain
arithmetic, so a table that is built wrong cannot hide behind itself. Under
dropped timing reports the reference also folds its own view of every PE's
neighbour times, straight from the injector's verdicts, instead of reading
the balancer's ``TimingView``. Every scenario runs the balancer and the
reference in lock-step over an evolving map and compares the move lists;
seeded table and view bugs show the comparison actually trips.
"""

import math

import numpy as np
import pytest

from repro.config import DLBConfig
from repro.decomp.assignment import CellAssignment
from repro.dlb.protocol import Case, Move
from repro.dlb.strategies import _column_torus_distance, create_balancer
from repro.faults import FaultInjector, FaultPlan, TimingFaultRule

OFFSETS = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))
CASE1 = {(-1, -1), (-1, 0), (0, -1)}
CASE3 = {(0, 1), (1, 0), (1, 1)}
NEVER = np.iinfo(np.int64).max // 2  # age of a report never received


# -- the parent's per-PE code --------------------------------------------------


def ref_neighborhood(side, pe):
    i, j = pe // side, pe % side
    return [pe] + [((i + di) % side) * side + ((j + dj) % side) for di, dj in OFFSETS]


def ref_offset(side, src, dst):
    di_raw = (dst // side) - (src // side)
    dj_raw = (dst % side) - (src % side)
    di = int(di_raw - side * math.floor(di_raw / side + 0.5))
    dj = int(dj_raw - side * math.floor(dj_raw / side + 0.5))
    return di, dj


def ref_pick_own_movable(assignment, pe, offset, exclude):
    candidates = np.flatnonzero(
        (assignment.home == pe) & (assignment.holder == pe) & ~assignment.permanent
    )
    if exclude:
        candidates = candidates[~np.isin(candidates, list(exclude))]
    if len(candidates) == 0:
        return None
    nc = assignment.cells_per_side
    m = assignment.m
    column, z = np.divmod(candidates, nc)
    cx, cy = np.divmod(column, nc)
    u, v = cx % m, cy % m
    di, dj = offset
    distance = np.zeros(len(candidates))
    if di < 0:
        distance = distance + u
    if dj < 0:
        distance = distance + v
    order = np.lexsort((candidates, z, distance))
    return int(candidates[order[0]])


def ref_decide_move(assignment, pe, fastest, exclude):
    offset = ref_offset(assignment.pe_side, pe, fastest)
    if offset in CASE1:
        cell = ref_pick_own_movable(assignment, pe, offset, exclude)
        if cell is None:
            return None
        return Move(cell=cell, src=pe, dst=fastest, kind=Case.SEND_OWN)
    if offset not in CASE3:
        return None
    borrowed = np.flatnonzero((assignment.home == fastest) & (assignment.holder == pe))
    if exclude:
        borrowed = borrowed[~np.isin(borrowed, list(exclude))]
    if len(borrowed) == 0:
        return None
    return Move(cell=int(borrowed[0]), src=pe, dst=fastest, kind=Case.RETURN_BORROWED)


class RefView:
    """Each PE's last-heard neighbour times and their ages, in plain arrays."""

    def __init__(self, n_pes, max_staleness):
        self.heard = np.zeros((n_pes, n_pes))
        self.age = np.full((n_pes, n_pes), NEVER, dtype=np.int64)
        self.max_staleness = max_staleness

    def fold(self, step, times, injector):
        """Step 1 of the protocol: every PE hears itself and each distinct
        8-neighbour unless the injector drops the report; a dropped report
        ages the last value heard."""
        n = len(times)
        hood = [ref_neighborhood(math.isqrt(n), dst) for dst in range(n)]
        links = np.zeros((n, n), dtype=bool)  # [dst, src]
        links[np.repeat(np.arange(n), 9), np.concatenate(hood)] = True
        verdict = np.array([[injector.report_delivered(step, src, dst)
                             for src in range(n)] for dst in range(n)])
        delivered, missed = links & verdict, links & ~verdict
        self.heard[delivered] = np.broadcast_to(times, (n, n))[delivered]
        self.age[missed & (self.age < NEVER)] += 1
        self.age[delivered] = 0


def ref_fastest(assignment, times, pe, view):
    hood = ref_neighborhood(assignment.pe_side, pe)
    if view is None:
        fastest = hood[int(np.argmin(times[hood]))]
        return fastest, float(times[fastest])
    best_pe, best = pe, float(times[pe])
    for peer in hood[1:]:
        if view.age[pe, peer] <= view.max_staleness and view.heard[pe, peer] < best:
            best, best_pe = float(view.heard[pe, peer]), peer
    return best_pe, float(view.heard[pe, best_pe])


def ref_wants_rebalance(config, my_time, fast_time):
    if config.policy == "fastest":
        return True
    if fast_time <= 0:
        return my_time > 0
    return (my_time - fast_time) / fast_time > config.threshold


def ref_permanent_round(assignment, times, config, view=None):
    moves = []
    for pe in range(assignment.n_pes):
        fastest, fast_time = ref_fastest(assignment, times, pe, view)
        if fastest == pe:
            continue
        if not ref_wants_rebalance(config, float(times[pe]), fast_time):
            continue
        exclude = set()
        for _ in range(config.max_sends_per_step):
            move = ref_decide_move(assignment, pe, fastest, exclude)
            if move is None:
                break
            exclude.add(move.cell)
            moves.append(move)
    return moves


def ref_diffusion_round(assignment, times, config, view=None):
    moves = []
    for pe in range(assignment.n_pes):
        fastest, fast_time = ref_fastest(assignment, times, pe, view)
        if fastest == pe:
            continue
        my_time = float(times[pe])
        if not ref_wants_rebalance(config, my_time, fast_time):
            continue
        held = np.flatnonzero(assignment.holder == pe)
        if held.size <= 1 or my_time <= 0:
            continue
        per_cell = my_time / held.size
        flux = 0.5 * (my_time - fast_time)
        quota = min(config.max_sends_per_step, int(flux / per_cell), int(held.size) - 1)
        if quota <= 0:
            continue
        distance = _column_torus_distance(held, fastest, assignment)
        z = held % assignment.cells_per_side
        order = np.lexsort((held, z, distance))
        for cell in held[order[:quota]]:
            kind = (
                Case.RETURN_BORROWED
                if int(assignment.home[cell]) == fastest
                else Case.SEND_OWN
            )
            moves.append(Move(int(cell), pe, fastest, kind))
    return moves


REFERENCE_ROUNDS = {"permanent": ref_permanent_round, "diffusion": ref_diffusion_round}


# -- lock-step driver ----------------------------------------------------------


def tied_times(rng, n_pes):
    """Quarter-valued times: most neighbourhoods hold several equal minima."""
    return rng.integers(1, 4, n_pes) / 4.0


def run_in_lockstep(
    strategy, nc, n_pes, schedule, config=None, plan=None, sabotage=None
):
    """Balancer and reference side by side; returns the balancer's assignment."""
    config = config or DLBConfig()
    live = CellAssignment(nc, n_pes)
    mirror = CellAssignment(nc, n_pes)
    injector = FaultInjector(plan, n_pes) if plan is not None else None
    balancer = create_balancer(live, config, injector=injector, strategy=strategy)
    if sabotage is not None:
        sabotage(balancer)
    view = RefView(n_pes, injector.max_staleness) if injector is not None else None
    reference_round = REFERENCE_ROUNDS[strategy]
    total = 0
    for step, times in enumerate(schedule):
        if view is not None:
            view.fold(step, times, injector)
        expected = reference_round(mirror, times, config, view)
        assert balancer.step(times, step=step) == expected, f"round {step}"
        for move in expected:
            mirror.holder[move.cell] = move.dst
        assert np.array_equal(live.holder, mirror.holder)
        total += len(expected)
    assert total > 0
    return live


def random_schedule(n_pes, rounds, seed, draw=tied_times):
    rng = np.random.default_rng(seed)
    return [draw(rng, n_pes) for _ in range(rounds)]


class TestRoundEqualsPerPEReference:
    @pytest.mark.parametrize("nc,n_pes", [(9, 9), (12, 16), (18, 36)])
    @pytest.mark.parametrize("max_sends", [1, 3])
    def test_permanent_on_tied_times(self, nc, n_pes, max_sends):
        run_in_lockstep(
            "permanent", nc, n_pes, random_schedule(n_pes, 30, seed=nc + max_sends),
            DLBConfig(max_sends_per_step=max_sends),
        )

    def test_permanent_on_distinct_times_with_threshold(self):
        schedule = random_schedule(
            16, 30, seed=5, draw=lambda rng, n: rng.uniform(0.1, 2.0, n)
        )
        run_in_lockstep(
            "permanent", 12, 16, schedule, DLBConfig(policy="threshold", threshold=0.25)
        )

    def test_permanent_through_exhausted_movable_sets(self):
        """One PE stays fastest until its lenders run dry, then each lender in
        turn is fastest until the slow sink has nothing of theirs left: empty
        picks and cut-short bursts in both Case 1 and Case 3."""
        n_pes, sink, lenders = 9, 0, (1, 3, 4)
        lend = np.ones(n_pes)
        lend[sink] = 0.1
        schedule = [lend] * 15
        live = run_in_lockstep("permanent", 9, n_pes, schedule, DLBConfig(max_sends_per_step=3))
        assert all(live.movable_at_home(pe).size == 0 for pe in lenders)
        assert all(live.borrowed_by(sink, pe).size == 36 for pe in lenders)
        for lender in lenders:
            back = np.ones(n_pes)
            back[sink], back[lender] = 5.0, 0.1
            schedule = schedule + [back] * 15
        live = run_in_lockstep("permanent", 9, n_pes, schedule, DLBConfig(max_sends_per_step=3))
        assert all(live.borrowed_by(sink, pe).size == 0 for pe in lenders)

    @pytest.mark.parametrize("max_sends", [1, 3])
    def test_permanent_under_dropped_reports(self, max_sends):
        plan = FaultPlan(seed=11, timing=TimingFaultRule(drop=0.3, max_staleness=2))
        run_in_lockstep(
            "permanent", 12, 16, random_schedule(16, 30, seed=7),
            DLBConfig(max_sends_per_step=max_sends), plan=plan,
        )

    @pytest.mark.parametrize("plan", [None, FaultPlan(seed=3, timing=TimingFaultRule(drop=0.3))])
    def test_diffusion(self, plan):
        schedule = random_schedule(
            16, 25, seed=9, draw=lambda rng, n: rng.integers(1, 9, n) / 4.0
        )
        run_in_lockstep(
            "diffusion", 12, 16, schedule, DLBConfig(max_sends_per_step=3), plan=plan
        )


# -- the comparison must trip on a wrong table ---------------------------------


def swap_table_columns(balancer):
    """Seeded bug: neighbourhood table columns not in OFFSETS order."""
    table = balancer.topology.neighborhood_table
    balancer.topology.neighborhood_table = table[:, [0, 8, 7, 6, 5, 4, 3, 2, 1]]


def lend_ignoring_depth(balancer):
    """Seeded bug: lend order sorted by (distance, cell), ``z`` forgotten."""
    assignment = balancer.assignment
    nc, m = assignment.cells_per_side, assignment.m
    for (di, dj), table in assignment._lend_order.items():
        column = table // nc
        u, v = (column // nc) % m, (column % nc) % m
        order = np.lexsort((table, u * (di < 0) + v * (dj < 0)))
        assignment._lend_order[di, dj] = np.take_along_axis(table, order, axis=1)


class TestSeededTableBugsAreCaught:
    @pytest.mark.parametrize("strategy", ["permanent", "diffusion"])
    def test_wrong_column_order_changes_the_tie_break(self, strategy):
        schedule = random_schedule(16, 30, seed=1)
        run_in_lockstep(strategy, 12, 16, schedule, DLBConfig(max_sends_per_step=3))
        with pytest.raises(AssertionError, match="round"):
            run_in_lockstep(
                strategy, 12, 16, schedule, DLBConfig(max_sends_per_step=3),
                sabotage=swap_table_columns,
            )

    def test_lend_order_without_depth_changes_the_pick(self):
        schedule = random_schedule(16, 30, seed=1)
        with pytest.raises(AssertionError, match="round"):
            run_in_lockstep("permanent", 12, 16, schedule, sabotage=lend_ignoring_depth)


def miss_without_aging(balancer):
    """Seeded view bug: a dropped report leaves the last value fresh."""
    balancer.view.miss = lambda observer, src: None


def observe_own_time(balancer):
    """Seeded view bug: a delivered report carries the receiver's own time
    (``refresh`` observes the receiver first) instead of the sender's."""
    view = balancer.view

    def observe(observer, src, value):
        view.times[observer, src] = view.times[observer, observer] if src != observer else value
        view.age[observer, src] = 0

    view.observe = observe


class TestSeededViewBugsAreCaught:
    @pytest.mark.parametrize("sabotage", [miss_without_aging, observe_own_time])
    def test_reference_folds_its_own_view(self, sabotage):
        plan = FaultPlan(seed=11, timing=TimingFaultRule(drop=0.3, max_staleness=2))
        schedule = random_schedule(16, 30, seed=7)
        run_in_lockstep("permanent", 12, 16, schedule, DLBConfig(), plan=plan)
        with pytest.raises(AssertionError, match="round"):
            run_in_lockstep(
                "permanent", 12, 16, schedule, DLBConfig(), plan=plan, sabotage=sabotage
            )
