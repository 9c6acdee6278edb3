"""Supporting kernel benchmarks: the building blocks' costs.

Not a paper table -- these time the substrate operations (pair search on
uniform *and* clustered configurations, Verlet-list reuse across a real
multi-step run, force kernel, cell list construction, halo accounting, one
DLB round, one accounted step) so regressions in the hot paths are visible.

Results are also written to ``BENCH_kernels.json`` at the repo root (see
``conftest.record_kernel``); ``benchmarks/check_regression.py`` diffs a fresh
file against the committed baseline.

The clustered cases matter: a candidate generator whose cost follows the
fullest cell collapses exactly on the concentrated configurations this paper
studies (C0/C sweeps, Figures 9-10), which uniform-only benchmarks cannot see.

The ``kernel_numpy`` entry times the pair kernel of :mod:`repro.md.kernels`
on the clustered configuration's exact pair list.
"""

import numpy as np
import pytest

from conftest import record_kernel
from repro.config import (
    DecompositionConfig,
    DLBConfig,
    MachineConfig,
    MDConfig,
    RunConfig,
    SimulationConfig,
)
from repro.core.accounting import StepAccountant
from repro.core.runner import ParallelMDRunner
from repro.decomp.assignment import CellAssignment
from repro.decomp.halo import compute_halo
from repro.dlb.strategies import create_balancer
from repro.md.celllist import CellList
from repro.md.forces import forces_from_pairs
from repro.md.neighbors import pairs_celllist, pairs_kdtree
from repro.md.potential import LennardJones
from repro.md.simulation import SerialSimulation

N = 4096
BOX = (N / 0.256) ** (1.0 / 3.0)
NC = int(BOX // 2.5)


@pytest.fixture(scope="module")
def positions():
    return np.random.default_rng(0).uniform(0.0, BOX, (N, 3))


@pytest.fixture(scope="module")
def clustered_positions():
    """Half the gas collapsed into a blob: the paper's concentration regime.

    The blob's cells hold tens of particles while most cells are near-empty:
    the occupancy skew a candidate generator has to stay linear under.
    """
    rng = np.random.default_rng(1)
    blob = rng.normal(BOX / 2.0, BOX / 18.0, (N // 2, 3))
    rest = rng.uniform(0.0, BOX, (N - N // 2, 3))
    return np.mod(np.vstack([blob, rest]), BOX)


def test_pairs_kdtree(benchmark, positions, kernel_log):
    pairs = benchmark(pairs_kdtree, positions, BOX, 2.5)
    record_kernel(kernel_log, benchmark, "pairs_kdtree")
    assert len(pairs) > N  # dense enough to be a meaningful workload


def test_pairs_celllist(benchmark, positions, kernel_log):
    cell_list = CellList(BOX, NC)
    pairs = benchmark(pairs_celllist, positions, cell_list, 2.5)
    record_kernel(kernel_log, benchmark, "pairs_celllist")
    assert len(pairs) > N


def test_pairs_celllist_clustered(benchmark, clustered_positions, kernel_log):
    """The CSR generator on the skewed-occupancy configuration."""
    cell_list = CellList(BOX, NC)
    pairs = benchmark(pairs_celllist, clustered_positions, cell_list, 2.5)
    record_kernel(kernel_log, benchmark, "pairs_celllist_clustered")
    assert len(pairs) > N


@pytest.fixture(scope="module")
def clustered_pairs(clustered_positions):
    """The exact (within-cut-off) pair list of the clustered configuration.

    Timing the kernel on it isolates the pair math's cost at the paper's
    adversarial occupancy skew.
    """
    return pairs_kdtree(clustered_positions, BOX, 2.5)


def test_kernel_numpy(benchmark, clustered_positions, clustered_pairs, kernel_log):
    """The pair kernel on the clustered exact pair list."""
    result = benchmark(
        forces_from_pairs, clustered_positions, clustered_pairs, BOX, LennardJones(), N
    )
    record_kernel(kernel_log, benchmark, "kernel_numpy")
    assert result.n_pairs == len(clustered_pairs)


def test_serial_run_verlet(benchmark, kernel_log):
    """Multi-step serial MD over the cached neighbour list: list reuse.

    This is the end-to-end shape of the tentpole win -- the pair search runs
    only once some particle has moved ``skin / 2``, not every step.
    """
    config = MDConfig(n_particles=1000, density=0.256)
    sim = SerialSimulation(config, seed=7)

    benchmark.pedantic(sim.run, args=(20,), rounds=3, iterations=1)
    record_kernel(kernel_log, benchmark, "serial_run_verlet_20steps")
    stats = sim.neighbor_stats
    assert stats.rebuilds <= max(1, stats.evaluations // 5)


def test_serial_run_kdtree(benchmark, kernel_log):
    """The same run again: one cached path, so this tracks
    ``serial_run_verlet_20steps`` (it searched every step until PR 12)."""
    config = MDConfig(n_particles=1000, density=0.256)
    sim = SerialSimulation(config, seed=7)

    benchmark.pedantic(sim.run, args=(20,), rounds=3, iterations=1)
    record_kernel(kernel_log, benchmark, "serial_run_kdtree_20steps")


def test_force_accumulation(benchmark, positions, kernel_log):
    potential = LennardJones()
    pairs = pairs_kdtree(positions, BOX, 2.5)
    result = benchmark(forces_from_pairs, positions, pairs, BOX, potential)
    record_kernel(kernel_log, benchmark, "force_accumulation")
    assert result.n_pairs == len(pairs)


def test_cell_counts(benchmark, positions, kernel_log):
    cell_list = CellList(BOX, NC)
    counts = benchmark(cell_list.counts, positions)
    record_kernel(kernel_log, benchmark, "cell_counts")
    assert counts.sum() == N


def test_halo_accounting(benchmark, positions, kernel_log):
    cell_list = CellList(BOX, 12)
    assignment = CellAssignment(12, 9)
    counts = cell_list.counts(positions).reshape(-1)
    halo = benchmark(compute_halo, assignment.cell_owner_map(), cell_list, counts, 9)
    record_kernel(kernel_log, benchmark, "halo_accounting")
    assert halo.ghost_cells.sum() > 0


def test_dlb_decision_round(benchmark, kernel_log):
    assignment = CellAssignment(12, 9)
    balancer = create_balancer(assignment, strategy="permanent")
    times = np.random.default_rng(1).uniform(0.5, 1.5, 9)

    def round_():
        moves = balancer.decide(times)
        return moves

    moves = benchmark(round_)
    record_kernel(kernel_log, benchmark, "dlb_decision_round")
    assert isinstance(moves, list)


def _parallel_runner(observability=None) -> ParallelMDRunner:
    config = SimulationConfig(
        md=MDConfig(n_particles=1000, density=0.256),
        decomposition=DecompositionConfig(cells_per_side=6, n_pes=9),
        dlb=DLBConfig(enabled=True),
    )
    return ParallelMDRunner(
        config, RunConfig(steps=10, seed=7), observability=observability
    )


def test_parallel_step_obs_off(benchmark, kernel_log):
    """The runner's step with observability disabled (the default path).

    Paired with ``parallel_step_obs_on`` below; check_regression.py's
    ``--overhead-kernels`` guard asserts the disabled path stays within a few
    percent of itself across PRs, and the on/off ratio is recorded under
    ``derived.obs_on_over_off`` for the <5% disabled-overhead claim.
    """
    runner = _parallel_runner()

    def ten_steps():
        for _ in range(10):
            runner.step()

    benchmark.pedantic(ten_steps, rounds=3, iterations=1)
    record_kernel(kernel_log, benchmark, "parallel_step_obs_off")
    assert runner.observability is None


def test_parallel_step_obs_on(benchmark, kernel_log):
    """The same ten steps with the full trace+metrics+profiler bundle live."""
    from repro.obs import Observability

    obs = Observability.create()
    runner = _parallel_runner(observability=obs)

    def ten_steps():
        with obs.activate():
            for _ in range(10):
                runner.step()

    benchmark.pedantic(ten_steps, rounds=3, iterations=1)
    record_kernel(kernel_log, benchmark, "parallel_step_obs_on")
    assert len(obs.trace) > 0


def test_parallel_step_events_off(benchmark, kernel_log):
    """Ten steps with an observability bundle but the flight recorder off.

    This is the events-disabled contract: a runner that carries metrics but
    no EventLog must stay within the overhead gate of the fully-dark
    ``parallel_step_obs_off`` baseline — every event hook is one ``None``
    check (see ``check_regression.py``'s ``--overhead-kernels``).
    """
    from repro.obs import MetricsRegistry, Observability

    obs = Observability(metrics=MetricsRegistry())
    runner = _parallel_runner(observability=obs)

    def ten_steps():
        for _ in range(10):
            runner.step()

    benchmark.pedantic(ten_steps, rounds=3, iterations=1)
    record_kernel(kernel_log, benchmark, "parallel_step_events_off")
    assert runner.events is None


def test_parallel_step_events_on(benchmark, kernel_log):
    """The same ten steps with the flight recorder live."""
    from repro.obs import Observability

    obs = Observability.create(trace=False, metrics=False, profiler=False,
                               events=True)
    runner = _parallel_runner(observability=obs)

    def ten_steps():
        for _ in range(10):
            runner.step()

    benchmark.pedantic(ten_steps, rounds=3, iterations=1)
    record_kernel(kernel_log, benchmark, "parallel_step_events_on")
    assert len(obs.events) > 0


def test_accounted_step(benchmark, positions, kernel_log):
    cell_list = CellList(BOX, 12)
    assignment = CellAssignment(12, 9)
    accountant = StepAccountant(MachineConfig(), cell_list, 9)
    load = accountant.cost_model.load(cell_list.counts(positions))
    timing, totals = benchmark(
        accountant.account_step, 1, load, assignment, True
    )
    record_kernel(kernel_log, benchmark, "accounted_step")
    assert timing.tt > 0
    assert totals.shape == (9,)
