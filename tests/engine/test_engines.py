"""Execution engines: bit-identity across backends, lifecycle, guards.

The multiprocess engine must reproduce the sequential engine's SHA-256 run
digest bit-for-bit, for any unit count, with and without a fault plan,
and across a kill/resume cycle; a failed pass must leave no process and no
shared memory behind.
"""

import os
import signal
from multiprocessing import shared_memory

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.config import (
    DecompositionConfig,
    MDConfig,
    RunConfig,
    SimulationConfig,
)
from repro.engine import (
    ENGINE_NAMES,
    Engine,
    EngineContext,
    MultiprocessEngine,
    SequentialEngine,
    create_engine,
    effective_engine_workers,
)
from repro.engine import multiprocess
from repro.engine.multiprocess import assign_blocks
from repro.errors import ConfigurationError, EngineError
from repro.faults.plan import FaultPlan
from repro.md.potential import LennardJones


def small_config() -> SimulationConfig:
    return SimulationConfig(
        md=MDConfig(n_particles=1000, density=0.256),
        decomposition=DecompositionConfig(cells_per_side=6, n_pes=9),
    )


RUN = RunConfig(steps=4, seed=3)


@pytest.fixture(scope="module")
def sequential_digest():
    return api.simulate(small_config(), run=RUN, engine="sequential").digest()


class TestDigestIdentity:
    def test_multiprocess_matches_sequential(self, sequential_digest):
        result = api.simulate(
            small_config(), run=RUN, engine="multiprocess", engine_workers=2
        )
        assert result.digest() == sequential_digest

    def test_worker_count_does_not_change_digest(self, sequential_digest):
        result = api.simulate(
            small_config(), run=RUN, engine="multiprocess", engine_workers=4
        )
        assert result.digest() == sequential_digest

    def test_identity_holds_under_faults(self):
        plan = FaultPlan(seed=11, jitter=0.2)
        seq = api.simulate(small_config(), run=RUN, engine="sequential", faults=plan)
        par = api.simulate(
            small_config(), run=RUN, engine="multiprocess",
            engine_workers=3, faults=plan,
        )
        assert par.digest() == seq.digest()

    def test_identity_holds_without_dlb(self):
        run = RunConfig(steps=RUN.steps, seed=RUN.seed, balancer="none")
        seq = api.simulate(small_config(), run=run, engine="sequential")
        par = api.simulate(
            small_config(), run=run, engine="multiprocess", engine_workers=2
        )
        assert par.digest() == seq.digest()
        assert not par.dlb_enabled

    def test_kill_and_resume_is_bit_identical(self, tmp_path):
        kwargs = dict(run=RUN, engine="multiprocess", engine_workers=2)
        full = api.simulate(small_config(), **kwargs)
        api.simulate(
            small_config(),
            checkpoints=api.CheckpointPolicy(directory=tmp_path, every=2),
            stop_after=2,
            **kwargs,
        )
        resumed = api.simulate(
            small_config(),
            checkpoints=api.CheckpointPolicy(directory=tmp_path, resume=True),
            **kwargs,
        )
        assert resumed.meta["resumed_at"] == 2
        assert resumed.digest() == full.digest()

    def test_more_units_than_blocks_and_one_unit_keep_the_digest(self):
        # fig5b-scaled is one block: at 4 units three of them compute nothing;
        # at 1 unit the driver computes it and no child is spawned.
        run = RunConfig(steps=3, seed=2)
        want = api.simulate("fig5b-scaled", run=run).digest()
        for units in (4, 1):
            got = api.simulate(
                "fig5b-scaled", run=run, engine="multiprocess", engine_workers=units
            )
            assert got.meta["engine_workers"] == units
            assert got.digest() == want, units

    def test_engine_metadata_recorded(self):
        result = api.simulate(
            small_config(), run=RUN, engine="multiprocess", engine_workers=2
        )
        assert result.meta["engine"] == "multiprocess"
        assert result.meta["engine_workers"] == 2
        inproc = api.simulate(small_config(), run=RUN)
        assert inproc.meta["engine"] == "inproc"


class TestCreateEngine:
    def test_none_means_no_engine(self):
        assert create_engine(None) is None

    def test_none_with_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            create_engine(None, workers=2)

    def test_names_resolve_to_backends(self):
        with create_engine("sequential") as engine:
            assert isinstance(engine, SequentialEngine)
        with create_engine("multiprocess", workers=2) as engine:
            assert isinstance(engine, MultiprocessEngine)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            create_engine("gpu")

    def test_workers_size_the_multiprocess_engine(self):
        with create_engine("multiprocess", workers=3) as engine:
            assert engine.workers == 3

    def test_instance_passes_through(self):
        engine = SequentialEngine()
        assert create_engine(engine) is engine
        with pytest.raises(ConfigurationError):
            create_engine(engine, workers=2)

    def test_requests_validate_eagerly(self):
        with pytest.raises(ConfigurationError):
            create_engine("warp")
        for name in ENGINE_NAMES:
            with pytest.raises(ConfigurationError):
                create_engine(name, workers=0)


class TestEngineLifecycle:
    def context(self, n_pes: int = 4) -> EngineContext:
        return EngineContext(
            n_particles=100,
            n_pes=n_pes,
            box_length=10.0,
            potential=LennardJones(cutoff=2.5),
        )

    def test_force_pass_before_bind_raises(self):
        engine = SequentialEngine()
        with pytest.raises(EngineError):
            engine.force_pass(np.zeros((100, 3)))

    def test_rebind_same_context_is_idempotent(self):
        with SequentialEngine() as engine:
            engine.bind(self.context())
            engine.bind(self.context())

    def test_rebind_different_context_raises(self):
        with SequentialEngine() as engine:
            engine.bind(self.context(n_pes=4))
            with pytest.raises(EngineError):
                engine.bind(self.context(n_pes=9))

    def test_closed_engine_refuses_work(self):
        engine = SequentialEngine()
        engine.bind(self.context())
        engine.close()
        with pytest.raises(EngineError):
            engine.force_pass(np.zeros((100, 3)))
        with pytest.raises(EngineError):
            engine.bind(self.context())

    def test_multiprocess_close_is_idempotent(self):
        engine = MultiprocessEngine(workers=2)
        engine.bind(self.context())
        engine.close()
        engine.close()

    def test_multiprocess_rejects_wrong_positions_shape(self):
        with MultiprocessEngine(workers=2) as engine:
            engine.bind(self.context())
            with pytest.raises(EngineError):
                engine.force_pass(np.zeros((7, 3)))

    def test_multiprocess_worker_cap_at_pe_count(self):
        with MultiprocessEngine(workers=8) as engine:
            engine.bind(self.context(n_pes=3))
            assert engine.workers == 3

    def test_context_validation(self):
        with pytest.raises(ConfigurationError):
            EngineContext(0, 4, 10.0, LennardJones(cutoff=2.5))
        with pytest.raises(ConfigurationError):
            EngineContext(100, 0, 10.0, LennardJones(cutoff=2.5))


class TestBlockAssignment:
    @given(
        sizes=st.lists(st.integers(min_value=0, max_value=60_000), min_size=1, max_size=12),
        n_units=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_block_to_one_unit_within_the_bound(self, sizes, n_units):
        rows = np.concatenate([[0], np.cumsum(sizes)])
        shares = assign_blocks(rows, n_units)
        assert len(shares) == n_units
        assert np.array_equal(np.sort(np.concatenate(shares)), np.arange(len(sizes)))
        loads = [int(np.sum(np.asarray(sizes)[share])) for share in shares]
        assert max(loads) <= sum(sizes) / n_units + max(sizes)
        again = assign_blocks(rows, n_units)
        assert all(np.array_equal(a, b) for a, b in zip(shares, again))

    def test_largest_block_first_to_the_least_loaded_unit(self):
        # The md_engine workload's four blocks: 40.6k / 43.8k rows, where the
        # contiguous middle-row split gave 32.9k / 51.6k.
        rows = np.cumsum([0, 32_853, 26_578, 17_248, 7_768])
        assert [share.tolist() for share in assign_blocks(rows, 2)] == [[0, 3], [1, 2]]
        # Ties go to the lower block and the lower unit.
        assert [share.tolist() for share in assign_blocks(np.arange(4), 2)] == [[0, 2], [1]]


#: 100 particles on a 5 x 5 x 4 lattice in a box of 10: every unit has pairs.
LATTICE = np.stack(
    np.meshgrid(np.arange(5) * 2.0, np.arange(5) * 2.0, np.arange(4) * 2.5, indexing="ij"),
    axis=-1,
).reshape(-1, 3)


def kill_a_child(engine: MultiprocessEngine, monkeypatch) -> None:
    """Unit 1 dies between passes; the next pass names it."""
    child = engine._children[0]
    os.kill(child.pid, signal.SIGKILL)
    child.join(timeout=10.0)
    assert not child.is_alive()
    with pytest.raises(EngineError, match=r"engine unit 1 died \(exitcode -9\)"):
        engine.force_pass(LATTICE)


def fail_the_driver_share(engine: MultiprocessEngine, monkeypatch) -> None:
    """The driver's own share raises; every child it asked still replies
    before the engine closes. The children were forked at bind, so the
    patch reaches the driver alone."""
    unit_pass = multiprocess._unit_pass

    def failing(context, pair_list, positions, partials, unit, n_units):
        if unit == 0:
            raise RuntimeError("driver share failed")
        return unit_pass(context, pair_list, positions, partials, unit, n_units)

    collected = []
    recv = engine._recv
    monkeypatch.setattr(multiprocess, "_unit_pass", failing)
    monkeypatch.setattr(engine, "_recv", lambda unit: collected.append(unit) or recv(unit))
    with pytest.raises(RuntimeError, match="driver share failed"):
        engine.force_pass(LATTICE)
    assert collected == list(range(1, engine.workers))


class TestEngineFailure:
    def bound_engine(self) -> MultiprocessEngine:
        engine = MultiprocessEngine(workers=3)
        engine.bind(EngineContext(100, 4, 10.0, LennardJones(cutoff=2.5)))
        engine.force_pass(LATTICE)  # one good pass first
        return engine

    def test_a_child_killed_between_passes_fails_the_next_pass(self, monkeypatch):
        with self.bound_engine() as engine:
            kill_a_child(engine, monkeypatch)

    def test_a_failing_driver_share_collects_every_reply_then_closes(self, monkeypatch):
        with self.bound_engine() as engine:
            fail_the_driver_share(engine, monkeypatch)
            with pytest.raises(EngineError, match="closed"):
                engine.force_pass(LATTICE)

    @pytest.mark.parametrize("fail", [kill_a_child, fail_the_driver_share])
    def test_close_after_a_failure_reaps_the_children_and_unlinks(self, fail, monkeypatch):
        engine = self.bound_engine()
        children = list(engine._children)
        segments = [shm.name for shm in engine._segments]
        fail(engine, monkeypatch)
        engine.close()
        assert not engine._children and not engine._segments
        assert all(child.exitcode is not None for child in children)
        for name in segments:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


class TestRunnerIntegration:
    def test_engine_requires_kdtree_backend(self):
        # Engines run the cached kd-tree list; the per-step "cells" search
        # is refused before any run, engine or not.
        with pytest.raises(ConfigurationError, match="linked-cell search was removed"):
            api.simulate(
                small_config(),
                run=RunConfig(steps=1, seed=1, force_backend="cells"),
                engine="sequential",
            )

    def test_engine_accepts_both_spellings_of_the_cached_list(self):
        digests = {
            backend: api.simulate(
                small_config(),
                run=RunConfig(steps=2, seed=1, force_backend=backend),
                engine="sequential",
            ).digest()
            for backend in ("kdtree", "verlet")
        }
        assert digests["kdtree"] == digests["verlet"]

    def test_caller_owned_engine_stays_open(self):
        with SequentialEngine() as engine:
            first = api.simulate(small_config(), run=RUN, engine=engine)
            second = api.simulate(small_config(), run=RUN, engine=engine)
            assert first.digest() == second.digest()

    def test_engine_workers_without_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            api.simulate(small_config(), run=RUN, engine_workers=2)


class TestNestedParallelismGuard:
    def test_default_is_capped_at_four(self):
        assert effective_engine_workers(None, cpu_count=16) == 4

    def test_budget_split_across_siblings(self):
        assert effective_engine_workers(8, sibling_processes=4, cpu_count=8) == 2

    def test_never_below_one(self):
        assert effective_engine_workers(4, sibling_processes=64, cpu_count=4) == 1

    def test_request_within_budget_honoured(self):
        assert effective_engine_workers(3, sibling_processes=1, cpu_count=8) == 3
