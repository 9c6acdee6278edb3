"""Top-level runners."""

import numpy as np
import pytest

from repro.config import (
    DecompositionConfig,
    DLBConfig,
    MDConfig,
    RunConfig,
    SimulationConfig,
)
from repro.core.runner import DrivenLoadRunner, ParallelMDRunner
from repro.decomp.validation import check_eight_neighbor_property
from repro.engine import SequentialEngine
from repro.errors import ConfigurationError
from repro.workloads.concentration import ConcentrationSchedule


def small_sim_config(dlb_enabled: bool = True) -> SimulationConfig:
    return SimulationConfig(
        md=MDConfig(n_particles=1000, density=0.256),
        decomposition=DecompositionConfig(cells_per_side=6, n_pes=9),
        dlb=DLBConfig(enabled=dlb_enabled),
    )


class TestParallelMDRunner:
    def test_rejects_non_pillar_shape(self):
        config = SimulationConfig(
            md=MDConfig(n_particles=1000, density=0.256),
            decomposition=DecompositionConfig(cells_per_side=6, n_pes=2, shape="plane"),
        )
        with pytest.raises(ConfigurationError):
            ParallelMDRunner(config, RunConfig(steps=1))

    def test_short_run_produces_records(self):
        runner = ParallelMDRunner(small_sim_config(), RunConfig(steps=5, seed=1))
        result = runner.run()
        assert len(result.records) == 5
        assert result.dlb_enabled

    def test_record_interval(self):
        runner = ParallelMDRunner(
            small_sim_config(), RunConfig(steps=6, seed=1, record_interval=3)
        )
        result = runner.run()
        assert [r.step for r in result.records] == [3, 6]

    def test_ddm_runner_never_moves_cells(self):
        runner = ParallelMDRunner(small_sim_config(False), RunConfig(steps=5, seed=1))
        result = runner.run()
        assert not result.dlb_enabled
        assert result.total_moves == 0
        assert np.array_equal(runner.assignment.holder, runner.assignment.home)

    def test_deterministic(self):
        a = ParallelMDRunner(small_sim_config(), RunConfig(steps=5, seed=3)).run()
        b = ParallelMDRunner(small_sim_config(), RunConfig(steps=5, seed=3)).run()
        assert np.allclose(a.tt, b.tt)

    def test_physics_identical_with_and_without_dlb(self):
        # DLB only changes *where* cells are computed, never the dynamics.
        ra = ParallelMDRunner(small_sim_config(True), RunConfig(steps=5, seed=3))
        rb = ParallelMDRunner(small_sim_config(False), RunConfig(steps=5, seed=3))
        ra.run()
        rb.run()
        assert np.allclose(ra.system.positions, rb.system.positions)
        assert np.allclose(ra.system.velocities, rb.system.velocities)

    def test_eight_neighbor_property_after_run(self):
        # A permanent-cell protocol guarantee, which rivals do not make.
        runner = ParallelMDRunner(
            small_sim_config(), RunConfig(steps=10, seed=2, balancer="permanent")
        )
        runner.run()
        check_eight_neighbor_property(runner.assignment)
        runner.assignment.validate()

    def test_measured_mode_runs(self):
        with SequentialEngine() as engine:
            runner = ParallelMDRunner(
                small_sim_config(), RunConfig(steps=2, seed=1, timing_mode="measured"),
                engine=engine,
            )
            result = runner.run()
        assert len(result.records) == 2
        assert result.timing.fmax[0] > 0

    def test_measured_mode_without_an_engine_is_refused(self):
        with pytest.raises(ConfigurationError, match="engine='sequential'"):
            ParallelMDRunner(
                small_sim_config(), RunConfig(steps=2, seed=1, timing_mode="measured")
            )

    def test_concentration_recorded(self):
        runner = ParallelMDRunner(small_sim_config(), RunConfig(steps=3, seed=1))
        result = runner.run()
        assert all(r.concentration.n >= 1.0 for r in result.records)

    def test_rejects_mismatched_system_box(self):
        from repro.md.system import ParticleSystem

        config = small_sim_config()
        bad = ParticleSystem(np.ones((10, 3)), box_length=5.0)
        with pytest.raises(ConfigurationError):
            ParallelMDRunner(config, RunConfig(steps=1), system=bad)


class TestDrivenLoadRunner:
    def test_processes_schedule(self):
        config = small_sim_config()
        schedule = ConcentrationSchedule(
            n_particles=1000, box_length=config.md.box_length, n_steps=8, seed=1
        )
        result = DrivenLoadRunner(config).run(schedule)
        assert len(result.records) == 8

    def test_rounds_per_config_multiplies_steps(self):
        config = small_sim_config()
        schedule = ConcentrationSchedule(
            n_particles=1000, box_length=config.md.box_length, n_steps=4, seed=1
        )
        runner = DrivenLoadRunner(config, rounds_per_config=3)
        result = runner.run(schedule)
        assert len(result.records) == 4
        assert runner.step_count == 12

    def test_rejects_bad_rounds(self):
        with pytest.raises(ConfigurationError):
            DrivenLoadRunner(small_sim_config(), rounds_per_config=0)

    def test_dlb_balances_better_than_ddm(self):
        """The headline qualitative claim on a concentrating workload."""
        late_spreads = {}
        for dlb_enabled in (False, True):
            config = small_sim_config(dlb_enabled)
            schedule = ConcentrationSchedule(
                n_particles=1000,
                box_length=config.md.box_length,
                n_steps=40,
                n_droplets=24,
                seed=5,
            )
            result = DrivenLoadRunner(config, rounds_per_config=3).run(schedule)
            late_spreads[dlb_enabled] = float(result.spread[-10:].mean())
        assert late_spreads[True] < late_spreads[False]

    def test_eight_neighbor_property_after_sweep(self):
        config = small_sim_config()
        schedule = ConcentrationSchedule(
            n_particles=1000, box_length=config.md.box_length, n_steps=20, seed=2
        )
        # Pinned to permanent: rivals are not bound by the 8-neighbour
        # protocol this test asserts.
        runner = DrivenLoadRunner(config, rounds_per_config=2,
                                  balancer="permanent")
        runner.run(schedule)
        check_eight_neighbor_property(runner.assignment)
        runner.assignment.validate()


class TestVerletBackendRunner:
    def test_verlet_backend_runs_and_reuses(self):
        runner = ParallelMDRunner(
            small_sim_config(), RunConfig(steps=10, seed=2, force_backend="verlet")
        )
        runner.run()
        stats = runner.neighbor_stats
        assert stats.reuses > 0
        assert stats.rebuilds <= max(1, 10 // 5) + 1
        assert stats.reuse_ratio > 0.5

    def test_verlet_physics_matches_kdtree(self):
        a = ParallelMDRunner(small_sim_config(), RunConfig(steps=8, seed=3))
        b = ParallelMDRunner(
            small_sim_config(), RunConfig(steps=8, seed=3, force_backend="verlet")
        )
        ra, rb = a.run(), b.run()
        pa = np.array([r.potential_energy for r in ra.records])
        pb = np.array([r.potential_energy for r in rb.records])
        assert np.allclose(pa, pb, rtol=1e-8)

    def test_measured_mode_with_verlet_reuses_candidates(self):
        with SequentialEngine() as engine:
            runner = ParallelMDRunner(
                small_sim_config(),
                RunConfig(steps=3, seed=1, force_backend="verlet", timing_mode="measured"),
                engine=engine,
            )
            result = runner.run()
        assert len(result.records) == 3
        assert result.timing.fmax[0] > 0
        # One rebuild at initialization; the decomposed passes ride the cache.
        assert runner.neighbor_stats.rebuilds <= 2

    def test_shared_cell_list_with_cells_backend(self):
        runner = ParallelMDRunner(
            small_sim_config(), RunConfig(steps=2, seed=1, force_backend="cells")
        )
        runner.run()
        # The force field must adopt the runner's grid, not build its own.
        assert runner.force_field._cell_list is runner.cell_list
