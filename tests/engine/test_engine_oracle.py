"""The engines' force pass as an oracle, not as examples.

Every path -- the classic ``ForceField`` and every engine at any worker
count -- folds the same force blocks of one canonically ordered list in
block order, so for *any* configuration

(a) the classic path, ``sequential`` and ``multiprocess`` (1, 2 and 3
    workers) give bitwise-equal forces and positions on every step, one run
    digest and one rebuild schedule;
(b) no pass ever misses a pair (and the check that says so trips on a list
    that is never rebuilt);
(c) a ``multiprocess`` run killed just before, on or just after a rebuild
    step resumes onto the uninterrupted digest, and a classic run killed
    mid-run resumes under ``multiprocess`` onto the classic digest;
(d) ``RunConfig.skin`` reaches the engine's units: it moves the pair-search
    counters and never the digest.
"""

from contextlib import ExitStack

import numpy as np
import pytest

from repro import api
from repro.config import MDConfig, RunConfig, SimulationConfig
from repro.core.runner import ParallelMDRunner
from repro.engine import MultiprocessEngine, SequentialEngine
from repro.engine import sequential as sequential_module
from repro.md import kernels
from repro.md.kernels import pair_terms
from repro.md.neighbors import VerletList, canonical_pairs, pairs_kdtree
from repro.md.potential import LennardJones
from tests.core.test_neighbor_oracle import (
    CONFIGURATIONS,
    KILL_RUN,
    SKIN,
    STEPS,
    clustered_system,
    first_rebuild_step,
    fresh_system,
)

# -- (a) one answer across engines and the classic path ---------------------------


#: Particles per force block in (a): small enough that the 1000-particle
#: systems have eight blocks to split across workers (the real block holds
#: them whole). Set before the engines bind, so forked workers inherit it.
SMALL_BLOCK = 128


@pytest.mark.parametrize("name", CONFIGURATIONS)
def test_engines_and_classic_path_bit_identical_every_step(name, monkeypatch):
    config, _ = CONFIGURATIONS[name]
    run = RunConfig(steps=STEPS, seed=3, skin=SKIN)
    monkeypatch.setattr(kernels, "_BLOCK_PARTICLES", SMALL_BLOCK)
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

        digests = {label: result.digest() for label, result in results.items()}
        assert len(set(digests.values())) == 1, digests
        # Same positions, same criterion: one rebuild schedule everywhere,
        # incl. the two displacement rebuilds inside the horizon.
        want = classic.neighbor_stats
        assert want.rebuilds >= 3 and want.reuses > 0
        for label, runner in runners.items():
            got = runner.neighbor_stats
            assert got.as_dict() == want.as_dict(), label


# -- (b) no missed pair ---------------------------------------------------------------


def hot_clustered_runner(engine) -> ParallelMDRunner:
    """Fast-moving droplet under a thin skin: the displacement criterion
    has to fire about every ten steps."""
    config, _ = CONFIGURATIONS["clustered"]
    md = MDConfig(n_particles=1000, density=0.256, temperature=2.0, dt=0.004)
    hot = SimulationConfig(md=md, decomposition=config.decomposition)
    run = RunConfig(steps=100, seed=3, skin=0.1)
    return ParallelMDRunner(hot, run, system=clustered_system(md), engine=engine)


def record_passes(monkeypatch, engine) -> list:
    """The result of every force pass ``engine`` runs from now on."""
    passes = []
    force_pass = engine.force_pass

    def recording_pass(*args):
        passes.append(force_pass(*args))
        return passes[-1]

    monkeypatch.setattr(engine, "force_pass", recording_pass)
    return passes


def assert_no_missed_pair(monkeypatch, steps: int) -> ParallelMDRunner:
    seen = []

    def recording_search(pair_list, positions):
        candidates, rebuilt = search(pair_list, positions)
        i, j = pair_terms(positions, candidates, pair_list.box_length, LennardJones())[:2]
        seen.append((positions.copy(), np.column_stack([i, j])))
        return candidates, rebuilt

    search = sequential_module.search
    monkeypatch.setattr(sequential_module, "search", recording_search)
    with SequentialEngine() as engine:
        passes = record_passes(monkeypatch, engine)
        runner = hot_clustered_runner(engine)
        for step in range(1, steps + 1):
            runner.step()
            positions, got = seen[-1]
            want = canonical_pairs(
                pairs_kdtree(positions, runner.system.box_length, runner.potential.cutoff)
            )
            assert np.array_equal(got, want), f"pair set differs at step {step}"
            assert passes[-1].force.n_pairs == len(want)
    assert len(seen) == steps + 1  # one search per pass, incl. the initial one
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


@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["before", "on", "after"])
def test_multiprocess_kill_and_resume_around_a_rebuild(tmp_path, offset):
    # Killed just before, on or just after the first displacement rebuild of
    # the classic path's dry run (the engines share its schedule); the
    # resumed workers start without a list and build one on their first pass.
    config, _ = CONFIGURATIONS["clustered"]
    kill_at = first_rebuild_step() + offset
    kwargs = dict(run=KILL_RUN, engine="multiprocess", engine_workers=2)
    full = api.simulate(config, system=fresh_system("clustered"), **kwargs)
    killed = api.simulate(
        config, system=fresh_system("clustered"),
        checkpoints=api.CheckpointPolicy(directory=tmp_path, every=kill_at),
        stop_after=kill_at, **kwargs,
    )
    assert killed.meta["neighbor_stats"]["rebuilds"] == (1 if offset < 0 else 2)
    resumed = api.simulate(
        config, system=fresh_system("clustered"),
        checkpoints=api.CheckpointPolicy(directory=tmp_path, resume=True), **kwargs,
    )
    assert resumed.meta["resumed_at"] == kill_at
    assert resumed.digest() == full.digest()


def test_classic_run_resumes_under_multiprocess_onto_the_classic_digest(tmp_path):
    # The snapshot carries the classic list's build positions; the workers
    # ignore them and build their own lists, which cannot move the blocks.
    config, _ = CONFIGURATIONS["clustered"]
    kill_at = first_rebuild_step()
    full = api.simulate(config, run=KILL_RUN, system=fresh_system("clustered"))
    api.simulate(
        config, run=KILL_RUN, system=fresh_system("clustered"),
        checkpoints=api.CheckpointPolicy(directory=tmp_path, every=kill_at),
        stop_after=kill_at,
    )
    resumed = api.simulate(
        config, run=KILL_RUN, system=fresh_system("clustered"),
        checkpoints=api.CheckpointPolicy(directory=tmp_path, resume=True),
        engine="multiprocess", engine_workers=2,
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
