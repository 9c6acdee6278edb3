"""Top-level runners."""

from dataclasses import replace

import numpy as np
import pytest

from repro import api
from repro.config import (
    DecompositionConfig,
    MDConfig,
    RunConfig,
    SimulationConfig,
)
from repro.core.runner import DrivenLoadRunner, ParallelMDRunner
from repro.decomp.validation import check_eight_neighbor_property
from repro.engine import SequentialEngine
from repro.errors import ConfigurationError
from repro.parallel.costmodel import ComputeCostModel
from repro.workloads.concentration import ConcentrationSchedule


def small_sim_config() -> SimulationConfig:
    return SimulationConfig(
        md=MDConfig(n_particles=1000, density=0.256),
        decomposition=DecompositionConfig(cells_per_side=6, n_pes=9),
    )


class TestParallelMDRunner:
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

    def test_summary_counts_every_step_at_any_record_interval(self):
        every, sparse = (
            api.result_payload(api.simulate(small_sim_config(), run=RunConfig(
                steps=40, seed=1, record_interval=interval
            )))
            for interval in (1, 20)
        )
        assert every["steps_run"] == sparse["steps_run"] == 40
        for key in ("steps", "total_moves"):
            assert every["summary"][key] == sparse["summary"][key]
        assert every["summary"]["steps"] == 40
        assert every["summary"]["total_moves"] > 0

    def test_counts_survive_a_checkpoint_resume(self, tmp_path):
        run = RunConfig(steps=40, seed=1, record_interval=20)
        full = api.simulate(small_sim_config(), run=run)
        policy = api.CheckpointPolicy(directory=str(tmp_path), every=10)
        api.simulate(small_sim_config(), run=run, checkpoints=policy, stop_after=25)
        resumed = api.simulate(small_sim_config(), run=run, checkpoints=replace(
            policy, resume=True
        ))
        assert resumed.digest() == full.digest()
        assert resumed.summary() == full.summary()
        assert (resumed.steps_run, resumed.total_moves) == (40, full.total_moves)

    def test_ddm_runner_never_moves_cells(self):
        runner = ParallelMDRunner(
            small_sim_config(), RunConfig(steps=5, seed=1, balancer="none")
        )
        result = runner.run()
        assert not result.dlb_enabled
        assert runner.balancer is None
        assert result.total_moves == 0
        assert np.array_equal(runner.assignment.holder, runner.assignment.home)

    def test_deterministic(self):
        a = ParallelMDRunner(small_sim_config(), RunConfig(steps=5, seed=3)).run()
        b = ParallelMDRunner(small_sim_config(), RunConfig(steps=5, seed=3)).run()
        assert np.allclose(a.tt, b.tt)

    def test_physics_identical_with_and_without_dlb(self):
        # DLB only changes *where* cells are computed, never the dynamics.
        ra = ParallelMDRunner(small_sim_config(), RunConfig(steps=5, seed=3))
        rb = ParallelMDRunner(
            small_sim_config(), RunConfig(steps=5, seed=3, balancer="none")
        )
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
        config = small_sim_config()
        for balancer in ("none", "permanent"):
            schedule = ConcentrationSchedule(
                n_particles=1000,
                box_length=config.md.box_length,
                n_steps=40,
                n_droplets=24,
                seed=5,
            )
            result = DrivenLoadRunner(
                config, rounds_per_config=3, balancer=balancer
            ).run(schedule)
            late_spreads[balancer] = float(result.spread[-10:].mean())
        assert late_spreads["permanent"] < late_spreads["none"]

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

    @staticmethod
    def charged_force_times(monkeypatch, configurations, reuse_first_load=False):
        """``(configuration index, owner map, force times)`` of every round."""
        runner = DrivenLoadRunner(small_sim_config(), rounds_per_config=3)
        accountant = runner.accountant
        if reuse_first_load:  # seeded bug: the first configuration's load, forever
            loads = []
            real_load = accountant.cost_model.load

            def first_load(counts):
                if not loads:
                    loads.append(real_load(counts))
                return loads[0]

            monkeypatch.setattr(accountant.cost_model, "load", first_load)
        charged = []
        real_account_step = accountant.account_step

        def account_step(step, load, assignment, *args):
            result = real_account_step(step, load, assignment, *args)
            charged.append((
                (step - 1) // runner.rounds_per_config,
                assignment.cell_owner_map().copy(),
                accountant.last_components.force_times.copy(),
            ))
            return result

        monkeypatch.setattr(accountant, "account_step", account_step)
        runner.run(configurations)
        return runner, charged

    @pytest.mark.parametrize("reuse_first_load", [False, True])
    def test_each_round_charges_its_own_configuration(self, monkeypatch, reuse_first_load):
        """The load is built once per configuration and every round of it
        charges that load under the round's own owner map: a stale load
        (the previous configuration's counts) must show in the force times."""
        box = small_sim_config().md.box_length
        rng = np.random.default_rng(3)
        configurations = [  # a uniform gas, then everything in one corner
            rng.uniform(0.0, box, (1000, 3)),
            rng.uniform(0.0, box / 3, (1000, 3)),
        ]
        runner, charged = self.charged_force_times(
            monkeypatch, configurations, reuse_first_load
        )
        assert [index for index, _, _ in charged] == [0, 0, 0, 1, 1, 1]
        owners = [owner for _, owner, _ in charged]
        assert any(not np.array_equal(owner, owners[0]) for owner in owners)
        model = ComputeCostModel(runner.config.machine, runner.cell_list)

        def charged_as_configured():
            for index, owner, force_times in charged:
                counts = runner.cell_list.counts(configurations[index])
                expected = model.per_pe_work(model.load(counts), owner, 9).force_times
                assert np.array_equal(force_times, expected), index

        if not reuse_first_load:
            charged_as_configured()
            return
        with pytest.raises(AssertionError):
            charged_as_configured()


class TestVerletBackendRunner:
    def test_verlet_backend_runs_and_reuses(self):
        runner = ParallelMDRunner(
            small_sim_config(), RunConfig(steps=10, seed=2)
        )
        runner.run()
        stats = runner.neighbor_stats
        assert stats.reuses > 0
        assert stats.rebuilds <= max(1, 10 // 5) + 1
        assert stats.reuse_ratio > 0.5

    def test_verlet_physics_matches_kdtree(self):
        # The legacy "verlet" spelling is still accepted and selects nothing.
        a = ParallelMDRunner(small_sim_config(), RunConfig(steps=8, seed=3))
        b = ParallelMDRunner(
            small_sim_config(), RunConfig(steps=8, seed=3, force_backend="verlet")
        )
        assert a.run().digest() == b.run().digest()

    def test_engine_passes_reuse_candidates(self):
        with SequentialEngine() as engine:
            runner = ParallelMDRunner(
                small_sim_config(), RunConfig(steps=3, seed=1), engine=engine
            )
            result = runner.run()
        assert len(result.records) == 3
        assert result.fmax[0] > 0
        # One rebuild at initialization; the decomposed passes ride the cache.
        assert runner.neighbor_stats.rebuilds <= 2
