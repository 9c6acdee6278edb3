"""Cross-module integration tests: the paper's claims end to end."""

import numpy as np
import pytest

from repro import DecompositionConfig, MDConfig, RunConfig, SimulationConfig
from repro.core.runner import DrivenLoadRunner, ParallelMDRunner
from repro.decomp.validation import check_eight_neighbor_property
from repro.md.kernels import forces_from_pairs
from repro.md.neighbors import canonical_pairs, pairs_kdtree
from repro.theory.bounds import upper_bound
from repro.workloads.concentration import ConcentrationSchedule
from tests.helpers import sequential_passes


class TestDLBHelpsOnConcentratingWorkload:
    """Figure 5/6 in miniature: DDM diverges, DLB-DDM stays balanced."""

    @pytest.fixture(scope="class")
    def runs(self):
        results = {}
        # nc = 9 gives m = 3 on 9 PEs: enough movable cells for the
        # balancer to show its effect at this scale.
        config = SimulationConfig(
            md=MDConfig(n_particles=3000, density=0.256),
            decomposition=DecompositionConfig(cells_per_side=9, n_pes=9),
        )
        for balancer in ("none", "permanent"):
            schedule = ConcentrationSchedule(
                n_particles=3000,
                box_length=config.md.box_length,
                n_steps=60,
                n_droplets=60,
                seed=13,
            )
            results[balancer] = DrivenLoadRunner(
                config, rounds_per_config=4, balancer=balancer
            ).run(schedule)
        return results

    def test_ddm_spread_grows(self, runs):
        spread = runs["none"].spread
        assert spread[-5:].mean() > 3 * spread[:5].mean()

    def test_dlb_spread_stays_lower(self, runs):
        # Mid-run the balancer is within its limit and holds the spread far
        # below DDM's; late in the sweep the concentration exceeds the DLB
        # limit (Section 2.3) and the gap narrows -- but never closes.
        mid = slice(20, 40)
        assert runs["permanent"].spread[mid].mean() < 0.6 * runs["none"].spread[mid].mean()
        assert runs["permanent"].spread[-10:].mean() < 0.8 * runs["none"].spread[-10:].mean()

    def test_dlb_tt_lower_late_in_run(self, runs):
        assert runs["permanent"].tt[-10:].mean() < runs["none"].tt[-10:].mean()

    def test_dlb_actually_moved_cells(self, runs):
        assert runs["permanent"].total_moves > 0
        assert runs["none"].total_moves == 0

    def test_trajectories_identical_workload(self, runs):
        # Both modes see the same configurations -> same global C0/C series.
        assert np.allclose(
            runs["permanent"].trajectory.c0_ratio, runs["none"].trajectory.c0_ratio
        )


class TestParallelCorrectnessDuringMD:
    def test_decomposed_forces_stay_exact_through_dlb_run(self):
        """After DLB has migrated cells mid-run, an engine's force pass
        still reproduces the global kernel exactly."""
        config = SimulationConfig(
            md=MDConfig(n_particles=1000, density=0.256, attraction=0.5, n_attractors=5),
            decomposition=DecompositionConfig(cells_per_side=6, n_pes=9),
        )
        runner = ParallelMDRunner(config, RunConfig(steps=30, seed=4))
        runner.run()
        assert runner.balancer is not None
        assert (runner.assignment.holder != runner.assignment.home).any()  # DLB moved cells
        system = runner.system
        pairs = canonical_pairs(
            pairs_kdtree(system.positions, system.box_length, runner.potential.cutoff)
        )
        want = forces_from_pairs(
            system.positions, pairs, system.box_length, runner.potential
        )
        (decomposed,) = sequential_passes(
            system.positions, system.box_length, runner.potential
        )
        assert np.array_equal(decomposed.force.forces, want.forces)
        assert decomposed.force.n_pairs == want.n_pairs

    def test_structure_invariants_after_md_run(self):
        config = SimulationConfig(
            md=MDConfig(n_particles=1000, density=0.256, attraction=0.5, n_attractors=5),
            decomposition=DecompositionConfig(cells_per_side=6, n_pes=9),
        )
        # Pinned to permanent: the structural invariants under test are the
        # permanent-cell protocol's, which rival strategies don't promise.
        runner = ParallelMDRunner(
            config, RunConfig(steps=30, seed=4, balancer="permanent")
        )
        runner.run()
        check_eight_neighbor_property(runner.assignment)
        runner.assignment.validate()


class TestBoundaryBelowTheory:
    def test_experimental_points_below_upper_bound(self):
        """Section 4.2: every experimental boundary point lies below f(m, n)."""
        from repro.campaign import CampaignSpec, drain_report

        spec = CampaignSpec.boundary_grid(
            "below-theory", m_values=(3,), pe_counts=(9,), densities=(0.256,),
            n_repetitions=3, n_steps=80, density_seed_offset=False,
        )
        (group,) = drain_report(spec).boundary_groups
        assert group.points, "no boundary detected in any repetition"
        for point in group.points:
            assert point.c0_ratio < upper_bound(3, point.n)
