"""Execution engines: bit-identity across backends, lifecycle, guards.

The digest-equality tests are the PR's acceptance criterion in miniature:
the multiprocess engine must reproduce the sequential engine's SHA-256
run digest bit-for-bit, for any worker count, with and without a fault
plan, and across a kill/resume cycle.
"""

import numpy as np
import pytest

from repro import api
from repro.config import (
    DecompositionConfig,
    DLBConfig,
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
from repro.errors import ConfigurationError, EngineError
from repro.faults.plan import FaultPlan
from repro.md.potential import LennardJones


def small_config(dlb_enabled: bool = True) -> SimulationConfig:
    return SimulationConfig(
        md=MDConfig(n_particles=1000, density=0.256),
        decomposition=DecompositionConfig(cells_per_side=6, n_pes=9),
        dlb=DLBConfig(enabled=dlb_enabled),
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
        seq = api.simulate(small_config(False), run=RUN, engine="sequential")
        par = api.simulate(
            small_config(False), run=RUN, engine="multiprocess", engine_workers=2
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

    def test_measured_timing_mode_reuses_engine_pass(self):
        run = RunConfig(steps=2, seed=1, timing_mode="measured")
        result = api.simulate(small_config(), run=run, engine="sequential")
        assert len(result.records) == 2

    def test_measured_timing_mode_without_engine_runs_sequential(self, monkeypatch):
        closed = []
        monkeypatch.setattr(
            SequentialEngine, "_shutdown", lambda self: closed.append(self)
        )
        run = RunConfig(steps=2, seed=1, timing_mode="measured")
        result = api.simulate(small_config(), run=run)
        assert result.meta["engine"] == "sequential"
        assert len(closed) == 1  # the engine simulate created, closed by it

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
            cells_per_side=4,
            potential=LennardJones(cutoff=2.5),
        )

    def test_force_pass_before_bind_raises(self):
        engine = SequentialEngine()
        with pytest.raises(EngineError):
            engine.force_pass(np.zeros((100, 3)), np.zeros(64, dtype=np.int64), 0)

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
            engine.force_pass(np.zeros((100, 3)), np.zeros(64, dtype=np.int64), 0)
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
                engine.force_pass(np.zeros((7, 3)), np.zeros(64, dtype=np.int64), 0)

    def test_multiprocess_worker_cap_at_pe_count(self):
        with MultiprocessEngine(workers=8) as engine:
            engine.bind(self.context(n_pes=3))
            assert engine.workers == 3

    def test_context_validation(self):
        with pytest.raises(ConfigurationError):
            EngineContext(0, 4, 10.0, 4, LennardJones(cutoff=2.5))
        with pytest.raises(ConfigurationError):
            EngineContext(100, 0, 10.0, 4, LennardJones(cutoff=2.5))


class TestRunnerIntegration:
    def test_engine_requires_kdtree_backend(self):
        with pytest.raises(ConfigurationError, match="'kdtree'.*'verlet'.*'cells'"):
            api.simulate(
                small_config(),
                run=RunConfig(steps=1, seed=1, force_backend="cells"),
                engine="sequential",
            )
        # Measured timing runs on an engine, so it meets the same refusal.
        with pytest.raises(ConfigurationError, match="'cells'"):
            api.simulate(
                small_config(),
                run=RunConfig(steps=1, seed=1, force_backend="cells", timing_mode="measured"),
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
