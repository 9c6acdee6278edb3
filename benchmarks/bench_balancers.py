"""Balancer-strategy benchmarks: the decision path's cost per round.

The strategy seam (PR 10) routes every balancer decision through
``repro.dlb.strategies``; these benchmarks time one decision round per
registered strategy on the same machine/timing snapshot and gate the seam's
overhead: the ``permanent`` strategy through the registry must stay within a
small factor of the pre-seam inline loop (re-created here from the scalar
``decide_move`` of ``tests/dlb/rank_rule.py``), and must decide move-for-move
identically. Results land in ``BENCH_kernels.json`` under
``balancer_round_*`` so ``benchmarks/check_regression.py`` can track the
decision path across PRs.
"""

import numpy as np
import pytest

from conftest import record_kernel
from repro.decomp.assignment import CellAssignment
from repro.dlb.strategies import available, create_balancer
from repro.parallel.topology import Torus2D
from tests.dlb.rank_rule import decide_move

NC = 12
N_PES = 9


@pytest.fixture()
def assignment():
    return CellAssignment(NC, N_PES)


@pytest.fixture(scope="module")
def times():
    return np.random.default_rng(1).uniform(0.5, 1.5, N_PES)


@pytest.fixture(scope="module")
def counts():
    # A skewed per-cell occupancy so the sfc curve cut has real weights.
    rng = np.random.default_rng(2)
    return rng.poisson(3.0, NC**3).astype(np.int64)


def _inline_permanent_round(assignment, topology, times, max_sends):
    """The pre-seam decision loop, byte-for-byte (the overhead baseline)."""
    moves = []
    committed = {}
    for pe in range(assignment.n_pes):
        neighborhood = topology.neighborhood(pe)
        fastest = int(neighborhood[int(np.argmin(times[neighborhood]))])
        if fastest == pe:
            continue
        exclude = committed.setdefault(pe, set())
        for _ in range(max_sends):
            move = decide_move(assignment, topology, pe, fastest, exclude)
            if move is None:
                break
            exclude.add(move.cell)
            moves.append(move)
    return moves


def test_balancer_round_inline_baseline(benchmark, assignment, times, kernel_log):
    """The pre-seam inline loop: what the seam's overhead is measured against."""
    topology = Torus2D(assignment.pe_side)
    moves = benchmark(
        _inline_permanent_round, assignment, topology, times, 1
    )
    record_kernel(kernel_log, benchmark, "balancer_round_inline_permanent")
    assert isinstance(moves, list)


@pytest.mark.parametrize("strategy", sorted(available()))
def test_balancer_round(benchmark, assignment, times, counts, strategy, kernel_log):
    """One decision round per registered strategy, same snapshot."""
    balancer = create_balancer(assignment, strategy=strategy)
    moves = benchmark(balancer.decide, times, 0, counts)
    record_kernel(kernel_log, benchmark, f"balancer_round_{strategy}")
    assert all(move.src != move.dst for move in moves)


def test_permanent_seam_matches_and_gates_overhead(assignment, times, kernel_log):
    """The seam is move-for-move identical to the inline loop and not
    meaningfully slower.

    The factor is deliberately loose (3x on a sub-millisecond path, under
    CI jitter); the point is catching an accidental per-round rebuild of
    something expensive, not micro-variance.
    """
    import timeit

    topology = Torus2D(assignment.pe_side)
    balancer = create_balancer(assignment, strategy="permanent")
    seam_moves = balancer.decide(times)
    inline_moves = _inline_permanent_round(assignment, topology, times, 1)
    assert seam_moves == inline_moves

    rounds = 200
    seam_s = timeit.timeit(lambda: balancer.decide(times), number=rounds) / rounds
    inline_s = (
        timeit.timeit(
            lambda: _inline_permanent_round(assignment, topology, times, 1),
            number=rounds,
        )
        / rounds
    )
    kernel_log["balancer_seam_over_inline"] = {
        "mean_s": seam_s,
        "min_s": seam_s,
        "rounds": rounds,
    }
    assert seam_s <= 3.0 * inline_s + 1e-4, (
        f"seam decision round {seam_s:.6f}s vs inline {inline_s:.6f}s"
    )
