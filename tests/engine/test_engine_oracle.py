"""The engines' shared neighbour list as an oracle, not as examples.

Every execution unit cuts its PE slices out of one cached, canonically
ordered list, and local ids are ascending global ids, so for *any*
configuration

(a) ``sequential``, ``multiprocess`` (any worker count) and the classic
    ``ForceField("kdtree")`` path give bitwise-equal forces and positions on
    every step, the two engines one run digest, and all of them one rebuild
    schedule;
(b) no pass ever misses a pair (and the check that says so trips on a list
    that is never rebuilt);
(c) a ``multiprocess`` run killed just before, on or just after a rebuild
    step resumes onto the uninterrupted digest;
(d) ``RunConfig.skin`` reaches the engine's units: it moves the pair-search
    counters and never the digest;
(e) ``"measured"`` timing still clocks every PE that owns particles, and a PE
    that owns none cuts an empty slice.
"""

from contextlib import ExitStack

import numpy as np
import pytest

from repro import api
from repro.config import MDConfig, RunConfig, SimulationConfig
from repro.core.ddm import pair_table, pe_force_slice
from repro.core.runner import ParallelMDRunner
from repro.decomp.assignment import CellAssignment
from repro.engine import MultiprocessEngine, SequentialEngine
from repro.engine import base as engine_base
from repro.md.celllist import CellList
from repro.md.neighbors import VerletList, canonical_pairs, pairs_kdtree
from repro.md.potential import LennardJones
from repro.md.system import ParticleSystem
from tests.core.test_neighbor_oracle import (
    CONFIGURATIONS,
    STEPS,
    clustered_system,
    fresh_system,
)

# -- (a) one answer across engines and the classic path ---------------------------


@pytest.mark.parametrize("name", CONFIGURATIONS)
def test_engines_and_classic_path_bit_identical_every_step(name):
    config, _ = CONFIGURATIONS[name]
    run = RunConfig(steps=STEPS, seed=3)
    with ExitStack() as stack:
        engines = {
            "classic": None,
            "sequential": SequentialEngine(),
            **{f"multiprocess-{w}": MultiprocessEngine(workers=w) for w in (1, 2, 3)},
        }
        runners = {
            label: ParallelMDRunner(
                config, run, system=fresh_system(name),
                engine=None if engine is None else stack.enter_context(engine),
            )
            for label, engine in engines.items()
        }
        results = dict.fromkeys(runners)
        classic = runners["classic"]
        for step in range(1, STEPS + 1):
            for label, runner in runners.items():
                results[label] = runner.run(1, result=results[label])
            for label, runner in runners.items():
                assert np.array_equal(runner.system.forces, classic.system.forces), (label, step)
                assert np.array_equal(
                    runner.system.positions, classic.system.positions
                ), (label, step)
        assert results["sequential"].total_moves > 0  # DLB moved cells under the passes

        digests = {label: results[label].digest() for label in runners if label != "classic"}
        assert len(set(digests.values())) == 1, digests
        # Same positions, same criterion: one rebuild schedule everywhere,
        # incl. the two reuse-cap rebuilds (evaluations 22 and 43).
        want = classic.neighbor_stats
        assert want.rebuilds >= 3 and want.reuses > 0
        for label, runner in runners.items():
            got = runner.neighbor_stats
            assert (got.rebuilds, got.reuses, got.candidate_pairs) == (
                want.rebuilds, want.reuses, want.candidate_pairs
            ), label
        # Split pairs are evaluated by both owners, so an engine counts more.
        assert runners["sequential"].neighbor_stats.accepted_pairs >= want.accepted_pairs


# -- (b) no missed pair ---------------------------------------------------------------


def hot_clustered_runner(engine) -> ParallelMDRunner:
    """Fast-moving droplet under a thin skin and no reuse cap: the
    displacement criterion has to fire about every ten steps."""
    config, _ = CONFIGURATIONS["clustered"]
    md = MDConfig(n_particles=1000, density=0.256, temperature=2.0, dt=0.004)
    hot = SimulationConfig(md=md, decomposition=config.decomposition, dlb=config.dlb)
    run = RunConfig(steps=100, seed=3, skin=0.1, neighbor_max_reuse=0)
    return ParallelMDRunner(hot, run, system=clustered_system(md), engine=engine)


def assert_no_missed_pair(monkeypatch, steps: int) -> ParallelMDRunner:
    seen = []

    def recording_pair_table(positions, *args):
        table = pair_table(positions, *args)
        seen.append((positions.copy(), table.pairs))
        return table

    monkeypatch.setattr(engine_base, "pair_table", recording_pair_table)
    with SequentialEngine() as engine:
        runner = hot_clustered_runner(engine)
        for step in range(1, steps + 1):
            runner.step()
            positions, got = seen[-1]
            want = canonical_pairs(
                pairs_kdtree(positions, runner.system.box_length, runner.potential.cutoff)
            )
            assert np.array_equal(got, want), f"pair set differs at step {step}"
            split = runner.force_field.last_pass.per_pe_pairs.sum() - len(want)
            assert 0 <= split <= len(want)
    assert len(seen) == steps + 1  # one table per pass, incl. the initial one
    return runner


def test_no_pass_misses_a_pair(monkeypatch):
    runner = assert_no_missed_pair(monkeypatch, 100)
    assert runner.neighbor_stats.rebuilds >= 5
    assert runner.neighbor_stats.reuse_ratio > 0.5


def test_missed_pair_check_trips_on_a_list_never_rebuilt(monkeypatch):
    # Seeded bug: keep reusing the list however far the particles have moved.
    monkeypatch.setattr(
        VerletList, "needs_rebuild", lambda self, positions: not self.is_built
    )
    with pytest.raises(AssertionError, match="pair set differs"):
        assert_no_missed_pair(monkeypatch, 100)


# -- (c) kill -> resume around a rebuild ----------------------------------------------


@pytest.mark.parametrize("kill_at", [20, 21, 22])
def test_multiprocess_kill_and_resume_around_a_rebuild(tmp_path, kill_at):
    # The reuse cap (20) makes the force evaluation of step 21 a rebuild; the
    # resumed workers start without a list and build one on their first pass.
    config, _ = CONFIGURATIONS["clustered"]
    kwargs = dict(run=RunConfig(steps=30, seed=3), engine="multiprocess", engine_workers=2)
    full = api.simulate(config, system=fresh_system("clustered"), **kwargs)
    killed = api.simulate(
        config, system=fresh_system("clustered"),
        checkpoints=api.CheckpointPolicy(directory=tmp_path, every=kill_at),
        stop_after=kill_at, **kwargs,
    )
    assert killed.meta["neighbor_stats"]["rebuilds"] == (1 if kill_at < 21 else 2)
    resumed = api.simulate(
        config, system=fresh_system("clustered"),
        checkpoints=api.CheckpointPolicy(directory=tmp_path, resume=True), **kwargs,
    )
    assert resumed.meta["resumed_at"] == kill_at
    assert resumed.digest() == full.digest()


# -- (d) the run's skin reaches the units ------------------------------------------------


@pytest.mark.parametrize("engine, workers", [("sequential", None), ("multiprocess", 2)])
def test_skin_changes_the_counters_not_the_digest(engine, workers):
    config, _ = CONFIGURATIONS["clustered"]
    results = {
        skin: api.simulate(
            config, run=RunConfig(steps=30, seed=3, skin=skin),
            system=fresh_system("clustered"), engine=engine, engine_workers=workers,
        )
        for skin in (0.4, 0.1)
    }
    assert results[0.4].digest() == results[0.1].digest()
    wide, thin = (results[skin].meta["neighbor_stats"] for skin in (0.4, 0.1))
    assert thin["candidate_pairs"] < wide["candidate_pairs"]
    assert thin["rebuilds"] > wide["rebuilds"]
    assert thin["accepted_pairs"] == wide["accepted_pairs"]
    assert 0.0 < wide["reuse_ratio"] < 1.0 and wide["acceptance_ratio"] < 1.0


# -- (e) "measured" mode and the early returns ---------------------------------------------


def lopsided_system(box_length: float) -> ParticleSystem:
    """A 4x4x4 lattice blob inside PE 0's pillar and one particle, out of
    everyone's reach, inside the middle PE's: seven PEs own nothing."""
    blob = np.indices((4, 4, 4)).reshape(3, -1).T * 1.12 + 0.5
    return ParticleSystem(np.vstack([blob, [[8.0, 8.0, 8.0]]]), box_length=box_length)


@pytest.mark.parametrize("make_engine", [SequentialEngine, lambda: MultiprocessEngine(workers=2)])
def test_measured_mode_clocks_owners_and_empty_pes_cut_nothing(make_engine):
    config, _ = CONFIGURATIONS["uniform"]
    run = RunConfig(steps=3, seed=1, timing_mode="measured")
    with make_engine() as engine:
        runner = ParallelMDRunner(
            config, run, system=lopsided_system(config.md.box_length), engine=engine
        )
        for _ in range(run.steps):
            record = runner.step()
            last = runner.force_field.last_pass
            owner = runner.assignment.cell_owner_map()[
                runner.cell_list.assign(runner.system.positions)
            ]
            owned = np.bincount(owner, minlength=9)
            assert (owned > 0).sum() >= 2 and (owned == 0).any()
            assert np.all(last.per_pe_seconds[owned > 0] > 0.0)
            assert np.all(last.per_pe_pairs[owned == 0] == 0)
            assert last.per_pe_pairs.sum() > 0 and record.timing.tt > 0.0


def test_slices_of_an_empty_pe_and_of_a_pe_out_of_reach():
    config, _ = CONFIGURATIONS["uniform"]
    system = lopsided_system(config.md.box_length)
    cells = config.decomposition.cells_per_side
    table = pair_table(
        system.positions, CellList(system.box_length, cells),
        CellAssignment(cells, 9).cell_owner_map(), 2.5,
        canonical_pairs(pairs_kdtree(system.positions, system.box_length, 2.9)),
    )
    assert len(table.pairs) > 0
    loner = int(table.particle_owner[-1])
    empty = next(pe for pe in range(9) if not (table.particle_owner == pe).any())
    for pe, n_owned in ((empty, 0), (loner, 1)):
        piece = pe_force_slice(pe, system.positions, system.box_length, table, LennardJones())
        assert piece.n_pairs == 0 and piece.energy == 0.0 and piece.virial == 0.0
        assert piece.forces.shape == (n_owned, 3) and not piece.forces.any()
        assert len(piece.owned_ids) == n_owned and piece.seconds > 0.0
