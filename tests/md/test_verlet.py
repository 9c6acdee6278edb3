"""Verlet neighbour-list caching: correctness, invalidation, reuse."""

import numpy as np
import pytest

from repro.config import MDConfig, RunConfig
from repro.engine.base import EngineContext
from repro.errors import GeometryError
from repro.md.celllist import CellList
from repro.md.forces import ForceField, forces_from_pairs
from repro.md.neighbors import (
    NeighborStats,
    VerletList,
    canonical_pairs,
    pairs_celllist,
    pairs_kdtree,
)
from repro.md.potential import LennardJones
from repro.md.simulation import SerialSimulation
from repro.md.system import ParticleSystem

BOX = 10.5
CUTOFF = 2.5


def uniform_positions(rng, n=200):
    return rng.uniform(0.0, BOX, (n, 3))


def clustered_positions(rng, n=200):
    """A dense blob (attraction-driven morphology) wrapped into the box."""
    return np.mod(rng.normal(BOX / 2.0, 0.9, (n, 3)), BOX)


class TestVerletListConstruction:
    def test_rejects_non_positive_skin(self):
        with pytest.raises(GeometryError):
            VerletList(BOX, CUTOFF, 0.0)
        with pytest.raises(GeometryError):
            VerletList(BOX, CUTOFF, -0.1)

    def test_clamps_skin_to_half_box(self):
        v = VerletList(6.0, 2.5, 1.0)  # 2*(2.5+1.0) > 6: only 0.5 of skin fits
        assert v.radius == 3.0
        assert v.skin == pytest.approx(0.5)

    def test_rejects_cutoff_beyond_half_box(self):
        with pytest.raises(GeometryError):
            VerletList(4.0, 2.5, 0.4)

    def test_no_room_for_skin_searches_on_every_move(self, rng):
        v = VerletList(5.0, 2.5, 0.4)  # L = 2*r_c: what kdtree always accepted
        assert v.skin == 0.0
        pos = rng.uniform(0.0, 5.0, (60, 3))
        for _ in range(3):
            got = v.pairs(pos)
            assert np.array_equal(got, canonical_pairs(pairs_kdtree(pos, 5.0, 2.5)))
            pos = np.mod(pos + 1e-6, 5.0)
        assert v.stats.rebuilds == 3 and v.stats.reuses == 0

    def test_reuse_cap_is_gone_from_every_layer(self):
        # The skin/2 displacement test is the only rebuild trigger.
        lj = LennardJones(cutoff=CUTOFF)
        md = MDConfig(n_particles=27, density=0.2)
        with pytest.raises(TypeError):
            VerletList(BOX, CUTOFF, 0.4, max_reuse=20)
        with pytest.raises(TypeError):
            ForceField(lj, max_reuse=20)
        with pytest.raises(TypeError):
            SerialSimulation(md, neighbor_max_reuse=20)
        with pytest.raises(TypeError):
            RunConfig(steps=1, neighbor_max_reuse=20)
        with pytest.raises(TypeError):
            EngineContext(27, 1, BOX, 4, lj, neighbor_max_reuse=20)

    def test_rejects_unknown_builder(self):
        # Builds always use the kd-tree search; there is no builder to pick.
        with pytest.raises(TypeError):
            VerletList(BOX, CUTOFF, 0.4, builder="cells")
        with pytest.raises(TypeError):
            VerletList(BOX, CUTOFF, 0.4, cells_per_side=4)

    def test_pair_search_axis_is_gone_from_every_layer(self):
        # The cached kd-tree list is the only pair search: nothing selects one.
        lj = LennardJones(cutoff=CUTOFF)
        md = MDConfig(n_particles=27, density=0.2)
        for build in (
            lambda: ForceField(lj, cells_per_side=4),
            lambda: ForceField(lj, cell_list=CellList(BOX, 4)),
            lambda: SerialSimulation(md, backend="kdtree"),
            lambda: SerialSimulation(md, cells_per_side=4),
        ):
            with pytest.raises(TypeError):
                build()


class TestVerletListSemantics:
    def test_first_call_builds(self, rng):
        v = VerletList(BOX, CUTOFF, 0.4)
        pos = uniform_positions(rng)
        assert not v.is_built
        assert v.needs_rebuild(pos)
        v.candidates(pos)
        assert v.is_built
        assert v.stats.rebuilds == 1 and v.stats.reuses == 0

    def test_unmoved_positions_reuse(self, rng):
        v = VerletList(BOX, CUTOFF, 0.4)
        pos = uniform_positions(rng)
        first = v.candidates(pos)
        second = v.candidates(pos)
        assert first is second
        assert v.stats.reuses == 1

    def test_small_displacement_reuses(self, rng):
        v = VerletList(BOX, CUTOFF, 0.4)
        pos = uniform_positions(rng)
        v.candidates(pos)
        nudged = np.mod(pos + 0.05, BOX)  # |delta| = 0.087 < skin/2 = 0.2
        assert not v.needs_rebuild(nudged)
        v.candidates(nudged)
        assert v.stats.rebuilds == 1

    def test_large_displacement_rebuilds(self, rng):
        v = VerletList(BOX, CUTOFF, 0.4)
        pos = uniform_positions(rng)
        v.candidates(pos)
        moved = pos.copy()
        moved[0] = np.mod(moved[0] + 0.3, BOX)  # > skin/2
        assert v.needs_rebuild(moved)
        v.candidates(moved)
        assert v.stats.rebuilds == 2

    def test_displacement_check_is_minimum_image(self, rng):
        v = VerletList(BOX, CUTOFF, 0.4)
        pos = uniform_positions(rng)
        pos[0] = [0.05, 5.0, 5.0]
        v.candidates(pos)
        # Crossing the periodic wall is a tiny *physical* move, not a box-size one.
        crossed = pos.copy()
        crossed[0] = [BOX - 0.05, 5.0, 5.0]
        assert v.max_displacement_sq(crossed) < 0.2**2
        assert not v.needs_rebuild(crossed)

    def test_particle_count_change_rebuilds(self, rng):
        v = VerletList(BOX, CUTOFF, 0.4)
        pos = uniform_positions(rng)
        v.candidates(pos)
        assert v.needs_rebuild(pos[:-1])

    def test_invalidate_forces_rebuild(self, rng):
        v = VerletList(BOX, CUTOFF, 0.4)
        pos = uniform_positions(rng)
        v.candidates(pos)
        v.invalidate()
        assert v.needs_rebuild(pos)
        v.candidates(pos)
        assert v.stats.rebuilds == 2

    def test_never_rebuilds_inside_half_skin(self, rng):
        v = VerletList(BOX, CUTOFF, 0.4)
        home = uniform_positions(rng)
        v.candidates(home)
        for call in range(200):
            # Jitter about the build positions: |delta| <= 0.08 * sqrt(3) < 0.2.
            pos = np.mod(home + rng.uniform(-0.08, 0.08, home.shape), BOX)
            got = v.pairs(pos)
            if call % 20 == 0:
                assert np.array_equal(got, canonical_pairs(pairs_kdtree(pos, BOX, CUTOFF)))
        assert v.stats.rebuilds == 1 and v.stats.reuses == 200

    def test_pairs_exact_after_drift_within_skin(self, rng):
        v = VerletList(BOX, CUTOFF, 0.4)
        pos = uniform_positions(rng, 300)
        v.pairs(pos)
        # Random walk in small increments: every intermediate pair set must
        # exactly match a fresh search even while the list is being reused.
        for _ in range(6):
            pos = np.mod(pos + rng.normal(0.0, 0.03, pos.shape), BOX)
            got = canonical_pairs(v.pairs(pos))
            want = canonical_pairs(pairs_kdtree(pos, BOX, CUTOFF))
            assert np.array_equal(got, want)
        assert v.stats.reuses > 0  # the walk must actually exercise the cache

    def test_pairs_exact_on_clustered_config(self, rng):
        v = VerletList(BOX, CUTOFF, 0.4)
        pos = clustered_positions(rng, 250)
        for _ in range(4):
            pos = np.mod(pos + rng.normal(0.0, 0.03, pos.shape), BOX)
            got = canonical_pairs(v.pairs(pos))
            want = canonical_pairs(pairs_kdtree(pos, BOX, CUTOFF))
            assert np.array_equal(got, want)

    def test_cells_builder_matches_kdtree_builder(self, rng):
        # The linked-cell search (once the "cells" builder) is the reference.
        pos = uniform_positions(rng, 250)
        got = VerletList(BOX, CUTOFF, 0.1).pairs(pos)
        want = canonical_pairs(pairs_celllist(pos, CellList(BOX, 4), CUTOFF))
        assert np.array_equal(got, want)

    def test_candidates_are_canonically_ordered(self, rng):
        v = VerletList(BOX, CUTOFF, 0.4)
        got = v.candidates(clustered_positions(rng))
        assert np.array_equal(got, canonical_pairs(got))

    def test_state_dict_rebuilds_list_from_reference(self, rng):
        v = VerletList(BOX, CUTOFF, 0.4)
        pos = uniform_positions(rng)
        v.candidates(pos)
        v.candidates(np.mod(pos + 0.01, BOX))
        state = v.state_dict()
        assert set(state) == {"reference"}  # no (M, 2) array
        restored = VerletList(BOX, CUTOFF, 0.4)
        restored.load_state_dict(state)
        assert restored.stats.rebuilds == 0  # the original build was counted
        nudged = np.mod(pos + 0.02, BOX)
        assert np.array_equal(restored.candidates(nudged), v.candidates(nudged))
        assert restored.stats.reuses == 1

    def test_loads_snapshot_that_still_carries_pairs(self, rng):
        # Pre-canonical snapshots pickled the pair array in search order, and
        # snapshots from before the reuse cap was removed carry its streak.
        pos = uniform_positions(rng)
        old = {
            "pairs": pairs_kdtree(pos, BOX, CUTOFF + 0.4)[::-1].copy(),
            "reference": pos.copy(),
            "reuse_streak": 4,
        }
        v = VerletList(BOX, CUTOFF, 0.4)
        v.load_state_dict(old)
        assert np.array_equal(v.candidates(pos), canonical_pairs(old["pairs"]))

    def test_unbuilt_state_round_trips(self):
        v = VerletList(BOX, CUTOFF, 0.4)
        restored = VerletList(BOX, CUTOFF, 0.4)
        restored.load_state_dict(v.state_dict())
        assert not restored.is_built

    def test_shared_stats_object(self, rng):
        stats = NeighborStats()
        v = VerletList(BOX, CUTOFF, 0.4, stats=stats)
        v.candidates(uniform_positions(rng))
        assert stats.rebuilds == 1


class TestForceFieldVerletBackend:
    @pytest.fixture
    def lj(self):
        return LennardJones(cutoff=CUTOFF)

    @pytest.mark.parametrize("make_positions", [uniform_positions, clustered_positions])
    def test_pair_sets_match_kdtree_and_cells(self, lj, rng, make_positions):
        pos = make_positions(rng)
        got = ForceField(lj).find_pairs(ParticleSystem(pos.copy(), box_length=BOX))
        kdtree = canonical_pairs(pairs_kdtree(pos, BOX, CUTOFF))
        cells = canonical_pairs(pairs_celllist(pos, CellList(BOX, 4), CUTOFF))
        assert np.array_equal(got, kdtree)
        assert np.array_equal(got, cells)

    def test_rejects_bad_skin(self, lj):
        with pytest.raises(Exception):
            ForceField(lj, skin=0.0)

    def test_compute_matches_kdtree(self, lj, rng):
        pos = clustered_positions(rng)
        pairs = canonical_pairs(pairs_kdtree(pos, BOX, CUTOFF))
        fa = forces_from_pairs(pos, pairs, BOX, lj, len(pos))
        fb = ForceField(lj).compute(ParticleSystem(pos.copy(), box_length=BOX))
        # The cached candidates filter down to the exact canonical pair list:
        # bit-identical, not merely close.
        assert np.array_equal(fa.forces, fb.forces)
        assert fa.potential_energy == fb.potential_energy
        assert fa.n_pairs == fb.n_pairs

    def test_stats_count_rebuilds_and_evaluations(self, lj, rng):
        field = ForceField(lj)
        system = ParticleSystem(uniform_positions(rng), box_length=BOX)
        field.compute(system)
        field.compute(system)
        assert field.stats.rebuilds == 1
        assert field.stats.reuses == 1
        assert field.stats.evaluations == 2
        assert 0.0 < field.stats.acceptance_ratio <= 1.0

    def test_invalidate_cache(self, lj, rng):
        field = ForceField(lj)
        system = ParticleSystem(uniform_positions(rng), box_length=BOX)
        field.compute(system)
        field.invalidate_cache()
        field.compute(system)
        assert field.stats.rebuilds == 2


def searching_every_step(config: MDConfig, seed: int) -> SerialSimulation:
    """A simulation whose list is rebuilt on every evaluation, as the seed's
    per-step search did."""
    sim = SerialSimulation(config, seed=seed)
    sim.force_field.verlet_list.needs_rebuild = lambda positions: True
    return sim


class TestSerialSimulationVerlet:
    def test_energy_trajectory_matches_seed_backend(self):
        config = MDConfig(n_particles=216, density=0.256)
        seed_sim = searching_every_step(config, seed=3)
        seed_run = seed_sim.run(50)
        verlet_sim = SerialSimulation(config, seed=3)
        verlet_run = verlet_sim.run(50)
        assert np.array_equal(seed_run.total_energies, verlet_run.total_energies)
        assert [r.n_pairs for r in seed_run.records] == [
            r.n_pairs for r in verlet_run.records
        ]
        assert seed_sim.neighbor_stats.reuses == 0
        assert verlet_sim.neighbor_stats.reuses > 0

    def test_clustered_trajectory_matches_seed_backend(self):
        config = MDConfig(
            n_particles=216, density=0.256, attraction=0.05, n_attractors=3
        )
        seed_run = searching_every_step(config, seed=5).run(50)
        verlet_run = SerialSimulation(config, seed=5).run(50)
        assert np.array_equal(seed_run.total_energies, verlet_run.total_energies)

    def test_rebuilds_at_most_one_per_five_steps_on_quickstart_workload(self):
        # The quickstart preset's physics (bench-m2: paper density/temperature
        # plus the nucleation attraction): the acceptance criterion of the
        # caching layer.
        from repro.workloads.presets import get_preset

        preset = get_preset("bench-m2")
        config = preset.simulation_config().md
        sim = SerialSimulation(config, seed=7)
        steps = 40
        sim.run(steps)
        stats = sim.neighbor_stats
        assert stats.evaluations == steps + 1  # + the initial force evaluation
        assert stats.rebuilds <= max(1, steps // 5)
        assert stats.reuse_ratio > 0.8

    def test_invalidation_across_thermostat_rescale(self):
        # An aggressive thermostat (rescale every 5 steps at a hot target)
        # changes velocities abruptly; the displacement criterion must keep
        # the cached list exact through every rescale. The thin skin makes it
        # fire several times inside the 30 steps.
        config = MDConfig(
            n_particles=125, density=0.2, temperature=2.0, rescale_interval=5
        )
        sim = SerialSimulation(config, seed=11, skin=0.1)
        box = sim.system.box_length
        for _ in range(30):
            sim.step()
            got = canonical_pairs(sim.force_field.find_pairs(sim.system))
            want = canonical_pairs(
                pairs_kdtree(sim.system.positions, box, config.cutoff)
            )
            assert np.array_equal(got, want)
        # The hot, frequently-kicked gas must have tripped the skin criterion.
        assert sim.neighbor_stats.rebuilds >= 3
