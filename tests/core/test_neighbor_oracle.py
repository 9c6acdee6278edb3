"""The neighbour list as an oracle, not as examples.

:class:`ForceField` feeds the kernel its cached list in canonical order, so
for *any* configuration

(a) every step agrees bit for bit with the kernel run over the paper's
    linked-cell search (:func:`pairs_celllist`, 26-neighbour stencil);
(b) the digest does not depend on when the cached list was last rebuilt,
    even when it is rebuilt every step;
(c) the cached list never misses a pair (and the check that says so trips
    on a list reused past ``skin / 2``);
(d) a run killed on, just before or just after a rebuild step resumes onto
    the uninterrupted digest *and* pair-search counters.
"""

import functools

import numpy as np
import pytest

from repro import api
from repro.config import (
    DecompositionConfig,
    MDConfig,
    RunConfig,
    SimulationConfig,
)
from repro.core.runner import ParallelMDRunner
from repro.md.celllist import CellList
from repro.md.kernels import forces_from_pairs
from repro.md.neighbors import (
    VerletList,
    canonical_pairs,
    pairs_celllist,
    pairs_kdtree,
)
from repro.md.simulation import SerialSimulation
from repro.md.system import ParticleSystem

CELLS_PER_SIDE = 6
#: A skin thin enough that the ``skin / 2`` displacement test rebuilds the
#: list twice inside :data:`STEPS` in every configuration (around steps 22
#: and 44; at the default 0.4 the first rebuild comes near step 58).
SKIN = 0.15
#: Long enough for those two rebuilds and the thermostat rescale at step 50.
STEPS = 64


def sim_config(n_particles: int = 1000, density: float = 0.256) -> SimulationConfig:
    return SimulationConfig(
        md=MDConfig(n_particles=n_particles, density=density),
        decomposition=DecompositionConfig(cells_per_side=CELLS_PER_SIDE, n_pes=9),
    )


def _thermal(positions: np.ndarray, md: MDConfig, rng) -> ParticleSystem:
    velocities = rng.normal(0.0, np.sqrt(md.temperature), positions.shape)
    velocities -= velocities.mean(axis=0)
    return ParticleSystem(np.mod(positions, md.box_length), velocities, md.box_length)


def clustered_system(md: MDConfig, seed: int = 5) -> ParticleSystem:
    """One dense droplet (70 % of the particles) in a thin lattice gas."""
    rng = np.random.default_rng(seed)
    box, centre = md.box_length, md.box_length / 2.0
    n_blob = int(0.7 * md.n_particles)
    axis = np.arange(-8, 9) * 1.12
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    radius = np.linalg.norm(grid, axis=1)
    blob = grid[np.argsort(radius, kind="stable")[:n_blob]] + centre
    sites = (np.indices((9, 9, 9)).reshape(3, -1).T + 0.5) * (box / 9.0)
    free = sites[np.linalg.norm(sites - centre, axis=1) > np.sort(radius)[n_blob] + 1.2]
    gas = free[rng.choice(len(free), md.n_particles - n_blob, replace=False)]
    positions = np.vstack([blob, gas]) + rng.uniform(-0.05, 0.05, (md.n_particles, 3))
    return _thermal(positions, md, rng)


def near_cutoff_system(md: MDConfig, seed: int = 5) -> ParticleSystem:
    """Cubic lattice whose fourth shell sits on r_c, split by a 1e-7 jitter."""
    rng = np.random.default_rng(seed)
    per_side = round(md.n_particles ** (1 / 3))
    sites = np.indices((per_side,) * 3).reshape(3, -1).T * (md.box_length / per_side)
    return _thermal(sites + rng.uniform(-1e-7, 1e-7, sites.shape), md, rng)


#: name -> (SimulationConfig, system factory or None for the seeded FCC gas)
CONFIGURATIONS = {
    "uniform": (sim_config(), None),
    "clustered": (sim_config(), clustered_system),
    # 12^3 sites at spacing 1.25: second neighbours along an axis at 2.5 = r_c.
    "near_cutoff": (sim_config(1728, 1728 / 15.0**3), near_cutoff_system),
}


def fresh_system(name: str) -> ParticleSystem | None:
    config, factory = CONFIGURATIONS[name]
    return factory(config.md) if factory is not None else None


def test_near_cutoff_configuration_straddles_the_cutoff():
    config, factory = CONFIGURATIONS["near_cutoff"]
    system = factory(config.md)
    inside = len(pairs_kdtree(system.positions, system.box_length, 2.5))
    wider = len(pairs_kdtree(system.positions, system.box_length, 2.5 + 1e-6))
    narrower = len(pairs_kdtree(system.positions, system.box_length, 2.5 - 1e-6))
    assert narrower < inside < wider


# -- (a) one answer: the linked-cell reference -----------------------------------


def assert_matches_linked_cell_reference(name: str) -> SerialSimulation:
    """Step ``name`` under the cached list and check every force evaluation
    against the kernel over the linked-cell pairs of the same positions."""
    config, _ = CONFIGURATIONS[name]
    sim = SerialSimulation(config.md, seed=3, system=fresh_system(name), skin=SKIN)
    cells = CellList(sim.system.box_length, CELLS_PER_SIDE)
    for step in range(1, STEPS + 1):
        got = sim.integrator.step(sim.system, sim.force_field)
        sim.thermostat.maybe_rescale(sim.system, step)
        positions = sim.system.positions
        pairs = canonical_pairs(pairs_celllist(positions, cells, sim.potential.cutoff))
        want = forces_from_pairs(
            positions, pairs, sim.system.box_length, sim.potential, sim.system.n
        )
        assert np.array_equal(got.forces, want.forces), f"forces differ at step {step}"
        assert got.potential_energy == want.potential_energy, step
        assert got.virial == want.virial, step
        assert got.n_pairs == want.n_pairs, step
    return sim


@pytest.mark.parametrize("name", CONFIGURATIONS)
def test_backends_bit_identical_every_step(name):
    # The cached list against the linked-cell reference (once the "cells"
    # backend, now searched only here).
    sim = assert_matches_linked_cell_reference(name)
    assert sim.neighbor_stats.rebuilds >= 3  # initial + two by displacement
    assert sim.neighbor_stats.reuses > 0


def test_linked_cell_check_trips_on_a_list_never_rebuilt(monkeypatch):
    # Seeded bug: build the list once and reuse it for the whole run.
    monkeypatch.setattr(
        VerletList, "needs_rebuild", lambda self, positions: not self.is_built
    )
    with pytest.raises(AssertionError, match="forces differ"):
        assert_matches_linked_cell_reference("clustered")


@pytest.mark.parametrize("name", CONFIGURATIONS)
def test_backends_share_one_run_digest(name, monkeypatch):
    # Both accepted ``force_backend`` labels run the one cached list; a run
    # that searches on every evaluation (the linked-cell schedule) must end
    # on the same digest.
    config, _ = CONFIGURATIONS[name]
    digests = {}
    for backend in ("kdtree", "verlet"):
        result = api.simulate(
            config,
            run=RunConfig(steps=STEPS, seed=3, force_backend=backend, skin=SKIN),
            system=fresh_system(name),
        )
        digests[backend] = result.digest()
        assert result.meta["neighbor_stats"]["rebuilds"] >= 3
    with monkeypatch.context() as patch:
        patch.setattr(VerletList, "needs_rebuild", lambda self, positions: True)
        result = api.simulate(
            config, run=RunConfig(steps=STEPS, seed=3, skin=SKIN),
            system=fresh_system(name),
        )
    digests["every_step"] = result.digest()
    assert result.meta["neighbor_stats"]["reuses"] == 0
    assert len(set(digests.values())) == 1, digests


# -- (b) rebuild-schedule independence --------------------------------------------


@pytest.mark.parametrize("invalidate_at", [1, 13, 21, 22, 50, "every_step"])
def test_digest_independent_of_rebuild_schedule(invalidate_at):
    config, _ = CONFIGURATIONS["clustered"]
    run = RunConfig(steps=STEPS, seed=3, skin=SKIN)
    plain = ParallelMDRunner(config, run, system=fresh_system("clustered"))
    want = plain.run()

    runner = ParallelMDRunner(config, run, system=fresh_system("clustered"))
    if invalidate_at == "every_step":
        # A full search on every evaluation, as the paper's linked cells do.
        runner.force_field.verlet_list.needs_rebuild = lambda positions: True
        result = runner.run()
        assert runner.neighbor_stats.reuses == 0
        assert runner.neighbor_stats.rebuilds == STEPS + 1
        assert result.digest() == want.digest()
        return
    result = runner.run(invalidate_at)
    runner.force_field.invalidate_cache()
    assert not runner.force_field.verlet_list.is_built  # next step must search
    result = runner.run(STEPS - invalidate_at, result=result)
    assert result.digest() == want.digest()


# -- (c) no missed pair -------------------------------------------------------------


def hot_clustered_simulation() -> SerialSimulation:
    """Fast-moving droplet under a thin skin: the displacement criterion
    has to fire about every ten steps."""
    md = MDConfig(n_particles=1000, density=0.256, temperature=2.0, dt=0.004)
    return SerialSimulation(md, seed=3, system=clustered_system(md), skin=0.1)


def assert_no_missed_pair(sim: SerialSimulation, steps: int) -> None:
    box, cutoff = sim.system.box_length, sim.config.cutoff
    for step in range(1, steps + 1):
        sim.step()
        got = sim.force_field.find_pairs(sim.system)
        want = canonical_pairs(pairs_kdtree(sim.system.positions, box, cutoff))
        assert np.array_equal(got, want), f"pair set differs at step {step}"


def test_no_missed_pair_over_clustered_run():
    sim = hot_clustered_simulation()
    assert_no_missed_pair(sim, 100)
    assert sim.neighbor_stats.rebuilds >= 5
    assert sim.neighbor_stats.reuse_ratio > 0.5


def test_missed_pair_check_trips_on_overlong_reuse(monkeypatch):
    # Seeded bug: keep reusing the list however far the particles have moved.
    monkeypatch.setattr(
        VerletList, "needs_rebuild", lambda self, positions: not self.is_built
    )
    with pytest.raises(AssertionError, match="pair set differs"):
        assert_no_missed_pair(hot_clustered_simulation(), 100)


# -- (d) kill -> resume around a rebuild ----------------------------------------------


#: The kill-and-resume drills: 30 clustered steps under the thin skin.
KILL_RUN = RunConfig(steps=30, seed=3, skin=SKIN)


@functools.cache
def first_rebuild_step() -> int:
    """The first step of :data:`KILL_RUN` whose force evaluation rebuilds the
    list (by displacement), found by a dry run."""
    config, _ = CONFIGURATIONS["clustered"]
    runner = ParallelMDRunner(config, KILL_RUN, system=fresh_system("clustered"))
    for step in range(1, KILL_RUN.steps):
        runner.step()
        if runner.neighbor_stats.rebuilds > 1:
            return step
    raise AssertionError("no displacement rebuild inside the kill-drill horizon")


@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["before", "on", "after"])
def test_kill_and_resume_around_a_rebuild(tmp_path, offset):
    config, _ = CONFIGURATIONS["clustered"]
    kill_at = first_rebuild_step() + offset
    full = api.simulate(config, run=KILL_RUN, system=fresh_system("clustered"))
    killed = api.simulate(
        config, run=KILL_RUN, system=fresh_system("clustered"),
        checkpoints=api.CheckpointPolicy(directory=tmp_path, every=kill_at),
        stop_after=kill_at,
    )
    assert killed.meta["neighbor_stats"]["rebuilds"] == (1 if offset < 0 else 2)
    resumed = api.simulate(
        config, run=KILL_RUN, system=fresh_system("clustered"),
        checkpoints=api.CheckpointPolicy(directory=tmp_path, resume=True),
    )
    assert resumed.meta["resumed_at"] == kill_at
    assert resumed.digest() == full.digest()
    assert resumed.meta["neighbor_stats"] == full.meta["neighbor_stats"]
