"""The dynamic load balancer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DLBConfig
from repro.decomp.assignment import CellAssignment
from repro.decomp.validation import check_eight_neighbor_property
from repro.dlb.balancer import DynamicLoadBalancer
from repro.dlb.strategies import create_balancer
from repro.dlb.protocol import Case
from repro.errors import ConfigurationError
from repro.obs.events import LogFold
from repro.obs.imbalance import ImbalanceFold
from tests.dlb.rank_rule import borrowed_by


def make_balancer(nc: int = 9, n_pes: int = 9, **kwargs) -> DynamicLoadBalancer:
    return create_balancer(
        CellAssignment(nc, n_pes), DLBConfig(**kwargs), strategy="permanent"
    )


def run_stats(*rounds) -> LogFold:
    """A run's balancer counters, folded from its rounds' ``dlb.decision``
    records (each move's ``case`` as the runner records it)."""
    fold = LogFold()
    fold.imbalance = ImbalanceFold(9)
    fold.add([
        {"kind": "dlb.decision", "moves": [{"case": m.kind.value} for m in moves]}
        for moves in rounds
    ])
    return fold


class TestConstruction:
    def test_rejects_small_torus(self):
        with pytest.raises(ConfigurationError):
            create_balancer(CellAssignment(4, 4), strategy="permanent")  # 2x2 torus

    def test_rejects_wrong_times_shape(self):
        balancer = make_balancer()
        with pytest.raises(ConfigurationError):
            balancer.decide(np.zeros(4))


class TestDecide:
    def test_balanced_times_still_follow_protocol(self):
        # With exactly equal times each PE's "fastest" is itself -> no moves.
        balancer = make_balancer()
        moves = balancer.decide(np.ones(9))
        assert moves == []

    def test_slow_pe_sends_toward_fast_neighbor(self):
        balancer = make_balancer()
        times = np.ones(9)
        fast = balancer.assignment.pe_flat(0, 1)
        times[fast] = 0.1
        moves = balancer.decide(times)
        # Every PE for which `fast` is an admissible direction sends one cell.
        assert moves
        for move in moves:
            assert move.dst == fast
            assert move.kind is Case.SEND_OWN

    def test_each_pe_sends_at_most_max_sends(self):
        balancer = make_balancer(max_sends_per_step=2)
        times = np.ones(9)
        times[0] = 0.1
        moves = balancer.decide(times)
        per_src = {}
        for move in moves:
            per_src[move.src] = per_src.get(move.src, 0) + 1
        assert all(v <= 2 for v in per_src.values())

    def test_no_duplicate_cells_in_one_round(self):
        balancer = make_balancer(max_sends_per_step=3)
        times = np.arange(9, dtype=float) + 1
        moves = balancer.decide(times)
        cells = [m.cell for m in moves]
        assert len(cells) == len(set(cells))

    def test_threshold_policy_ignores_small_imbalance(self):
        balancer = make_balancer(policy="threshold", threshold=0.5)
        times = np.ones(9)
        times[0] = 0.9  # only ~11% faster than the rest
        assert balancer.decide(times) == []

    def test_threshold_policy_acts_on_large_imbalance(self):
        balancer = make_balancer(policy="threshold", threshold=0.5)
        times = np.ones(9)
        fast = balancer.assignment.pe_flat(0, 1)
        times[fast] = 0.1
        assert balancer.decide(times)


class TestApplyAndStats:
    def test_apply_transfers_cells(self):
        balancer = make_balancer()
        times = np.ones(9)
        fast = balancer.assignment.pe_flat(0, 1)
        times[fast] = 0.1
        moves = balancer.step(times)
        for move in moves:
            assert balancer.assignment.holder[move.cell] == move.dst

    def test_stats_track_lends_and_returns(self):
        balancer = make_balancer()
        times = np.ones(9)
        fast = balancer.assignment.pe_flat(0, 1)
        times[fast] = 0.1
        moves = balancer.step(times)
        stats = run_stats(moves)
        assert stats.lends > 0
        assert stats.lends + stats.returns == len(moves)
        assert stats.rounds == 1

    def test_returns_flow_back(self):
        balancer = make_balancer()
        assignment = balancer.assignment
        times = np.ones(9)
        receiver = assignment.pe_flat(0, 1)
        times[receiver] = 0.1
        balancer.step(times)
        # PE(1, 1) lent a cell to PE(0, 1) (offset (-1, 0)). Make the lender
        # distinctly fastest so the receiver's case analysis returns it.
        lender = assignment.pe_flat(1, 1)
        assert len(borrowed_by(assignment, receiver, lender)) > 0
        times = np.ones(9)
        times[receiver] = 10.0
        times[lender] = 0.1
        moves = balancer.step(times)
        returned = [
            m for m in moves if m.kind is Case.RETURN_BORROWED and m.src == receiver
        ]
        assert returned
        assert returned[0].dst == lender

    def test_idle_steps_counted(self):
        balancer = make_balancer()
        stats = run_stats(balancer.step(np.ones(9)))
        assert (stats.rounds, stats.idle_rounds, stats.largest_round) == (1, 1, 0)


class TestConvergence:
    def test_reduces_synthetic_hotspot(self):
        """A 10x-loaded centre PE sheds work to its receivers.

        Full balance is impossible by design -- the hot PE's permanent cells
        alone exceed the average load (the DLB limit of Section 2.3) -- but
        the spread must drop substantially and total work stays conserved.
        """
        assignment = CellAssignment(9, 9)
        balancer = create_balancer(assignment, strategy="permanent")
        cell_work = np.ones(9**3)
        hot = 4
        cell_work[assignment.home == hot] = 10.0

        def per_pe_times():
            owner = assignment.cell_owner_map()
            return np.bincount(owner, weights=cell_work, minlength=9)

        initial = per_pe_times()
        for _ in range(120):
            balancer.step(per_pe_times())
        final = per_pe_times()
        assert np.ptp(final) < 0.75 * np.ptp(initial)
        assert final[hot] < initial[hot]
        assert final.sum() == pytest.approx(initial.sum())

    def test_balances_mild_distributed_imbalance(self):
        """A within-limit imbalance (heavier movable region) balances well."""
        assignment = CellAssignment(9, 9)
        balancer = create_balancer(assignment, strategy="permanent")
        cell_work = np.ones(9**3)
        hot = 4
        # Only the hot PE's *movable* cells are heavier: fully sheddable.
        movable_cells = (assignment.home == hot) & ~assignment.permanent
        cell_work[movable_cells] = 3.0

        def per_pe_times():
            owner = assignment.cell_owner_map()
            return np.bincount(owner, weights=cell_work, minlength=9)

        initial_spread = np.ptp(per_pe_times())
        for _ in range(120):
            balancer.step(per_pe_times())
        assert np.ptp(per_pe_times()) < 0.5 * initial_spread

    def test_cell_conservation_under_long_runs(self):
        assignment = CellAssignment(9, 9)
        balancer = create_balancer(assignment, strategy="permanent")
        rng = np.random.default_rng(5)
        for _ in range(100):
            balancer.step(rng.uniform(0.5, 1.5, 9))
        assert assignment.cell_counts_per_pe().sum() == 9**3
        assignment.validate()

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_eight_neighbor_property_is_invariant(self, seed):
        """The headline invariant: no sequence of balancer steps ever breaks
        the 8-neighbour structure (that is what permanent cells are for)."""
        assignment = CellAssignment(6, 9)
        balancer = create_balancer(assignment, strategy="permanent")
        rng = np.random.default_rng(seed)
        for _ in range(50):
            balancer.step(rng.uniform(0.1, 2.0, 9))
        check_eight_neighbor_property(assignment)
        assignment.validate()
