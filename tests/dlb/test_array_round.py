"""The array round against the scalar per-PE rule, and the atomic apply.

:class:`~repro.dlb.strategies.PermanentCellsBalancer` decides every PE's
moves at once, as arrays. ``tests/dlb/rank_rule.py`` keeps the protocol the
way Section 2.3 states it, one PE at a time with picked cells excluded one
by one. Over evolving holder maps the two must agree move for move: on tori
of side 3, 4 and 6, under both policies, for one to three sends per step,
with zero and tied times, and with dropped timing reports.

A round is applied as one batch, so a batch that breaks an invariant must
leave the holder map and the counters exactly as they were.
"""

import numpy as np
import pytest

from repro.config import DLBConfig
from repro.decomp.assignment import CellAssignment
from repro.dlb.protocol import Case, Move, MoveBatch
from repro.dlb.strategies import create_balancer
from repro.errors import ProtocolError
from repro.faults import FaultInjector, FaultPlan, TimingFaultRule
from tests.dlb.rank_rule import rank_round

GEOMETRIES = [(9, 9), (12, 16), (18, 36)]  # torus sides 3, 4 and 6
POLICIES = {
    "fastest": {},
    "threshold": {"policy": "threshold", "threshold": 0.25},
}


def tied(rng, n_pes):
    """Quarter-valued times: most neighbourhoods hold several equal minima."""
    return rng.integers(1, 4, n_pes) / 4.0


def with_zeros(rng, n_pes):
    """Times of 0, 0.5 and 1: zero fast times hit the threshold gate's
    ``fast_time <= 0`` branch, and zero ties abound."""
    return rng.integers(0, 3, n_pes) / 2.0


def distinct(rng, n_pes):
    return rng.uniform(0.1, 2.0, n_pes)


def run_against_rank_rule(nc, n_pes, config, draw, rounds=30, seed=0, plan=None):
    """Decide each round both ways on the same evolving map; returns the
    numbers of lends and returns made."""
    assignment = CellAssignment(nc, n_pes)
    injector = FaultInjector(plan, n_pes) if plan is not None else None
    balancer = create_balancer(assignment, config, injector=injector)
    rng = np.random.default_rng(seed)
    kinds = {Case.SEND_OWN: 0, Case.RETURN_BORROWED: 0}
    for step in range(rounds):
        times = draw(rng, n_pes)
        moves = balancer.decide(times, step=step)
        # The view now holds this round's beliefs; the rule reads them
        # through the view's scalar queries.
        expected = rank_round(assignment, times, config, balancer.view)
        assert moves == expected, f"round {step}"
        balancer.apply(moves)
        for move in expected:
            kinds[move.kind] += 1
    return kinds


class TestArrayRoundEqualsRankRule:
    @pytest.mark.parametrize("nc,n_pes", GEOMETRIES)
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("max_sends", [1, 2, 3])
    @pytest.mark.parametrize("draw", [tied, with_zeros, distinct])
    def test_move_for_move(self, nc, n_pes, policy, max_sends, draw):
        config = DLBConfig(max_sends_per_step=max_sends, **POLICIES[policy])
        kinds = run_against_rank_rule(nc, n_pes, config, draw, seed=nc + max_sends)
        assert kinds[Case.SEND_OWN] > 0

    @pytest.mark.parametrize("nc,n_pes", GEOMETRIES)
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_move_for_move_under_dropped_reports(self, nc, n_pes, policy):
        plan = FaultPlan(seed=nc, timing=TimingFaultRule(drop=0.3, max_staleness=2))
        config = DLBConfig(max_sends_per_step=2, **POLICIES[policy])
        kinds = run_against_rank_rule(nc, n_pes, config, distinct, plan=plan)
        assert kinds[Case.SEND_OWN] > 0

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_no_movable_cells_no_moves(self, policy):
        """m = 1: every column is wall, so no PE ever has a cell to send."""
        config = DLBConfig(max_sends_per_step=2, **POLICIES[policy])
        kinds = run_against_rank_rule(3, 9, config, distinct, rounds=5)
        assert kinds == {Case.SEND_OWN: 0, Case.RETURN_BORROWED: 0}

    def test_lends_and_returns_both_occur(self):
        """Long enough for lent cells to come back: Case 3 is exercised."""
        kinds = run_against_rank_rule(12, 16, DLBConfig(max_sends_per_step=3), tied,
                                      rounds=60)
        assert kinds[Case.SEND_OWN] > 0 and kinds[Case.RETURN_BORROWED] > 0


# -- one atomic batch per round --------------------------------------------------


def _illegal_moves(assignment):
    """One legal lend from PE 4 and, per invariant, a move that breaks it."""
    lower = np.flatnonzero(assignment.lends_to[4]).tolist()
    first, second = assignment.movable_at_home(4)[:2].tolist()
    wall = int(np.flatnonzero(assignment.permanent & (assignment.home == 4))[0])
    legal = Move(first, 4, lower[0], Case.SEND_OWN)
    upper = assignment.pe_flat(2, 1)
    assert upper not in lower
    return legal, {
        "permanent": Move(wall, 4, lower[0], Case.SEND_OWN),
        "no-op": Move(second, 4, 4, Case.SEND_OWN),
        "not-lower": Move(second, 4, upper, Case.SEND_OWN),
        "duplicate": Move(first, 4, lower[1], Case.SEND_OWN),
        "cell-out-of-range": Move(10**6, 4, lower[0], Case.SEND_OWN),
        "pe-out-of-range": Move(second, 4, 99, Case.SEND_OWN),
    }


class TestApplyIsAtomic:
    @pytest.mark.parametrize(
        "illegal",
        ["permanent", "no-op", "not-lower", "duplicate", "cell-out-of-range",
         "pe-out-of-range"],
    )
    @pytest.mark.parametrize("legal_first", [True, False])
    def test_refused_batch_changes_nothing(self, illegal, legal_first):
        assignment = CellAssignment(9, 9)
        balancer = create_balancer(assignment)
        legal, broken = _illegal_moves(assignment)
        batch = [legal, broken[illegal]] if legal_first else [broken[illegal], legal]
        holder = assignment.holder.copy()
        with pytest.raises(ProtocolError):
            balancer.apply(batch)
        assert np.array_equal(assignment.holder, holder)

    def test_legal_batch_moves_and_counts(self):
        assignment = CellAssignment(9, 9)
        balancer = create_balancer(assignment)
        legal, _ = _illegal_moves(assignment)
        back = Move(legal.cell, legal.dst, 4, Case.RETURN_BORROWED)
        balancer.apply([legal])
        balancer.apply([back])
        assert np.array_equal(assignment.holder, assignment.home)
        # The lend flags are what a run's lend and return counts fold.
        assert MoveBatch.of([legal, back]).lend.tolist() == [True, False]
