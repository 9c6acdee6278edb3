"""The chaos suite: faulted runs stay invariant-clean, reproducible and
resumable bit-for-bit.

Acceptance criteria exercised here:

* same plan + seed => byte-identical ``RunResult`` digests;
* kill at step k -> restore from checkpoint -> identical digest to the
  uninterrupted faulted run;
* under every supported fault class the auditor reports zero violations and
  no :class:`~repro.errors.ProtocolError` escapes the balancer;
* with every report dropped the protocol degrades to the safe no-move.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro.config import (
    DecompositionConfig,
    MDConfig,
    RunConfig,
    SimulationConfig,
)
from repro.core.checkpoint import CheckpointManager
from repro.core.runner import DrivenLoadRunner, ParallelMDRunner
from repro.decomp.assignment import CellAssignment
from repro.dlb import create_balancer
from repro.dlb.views import TimingView
from repro.faults import (
    FaultInjector,
    FaultPlan,
    InvariantAuditor,
    MessageFaultRule,
    SlowdownRule,
    StallRule,
    TimingFaultRule,
)


def sim_config() -> SimulationConfig:
    return SimulationConfig(
        md=MDConfig(n_particles=1000, density=0.256),
        decomposition=DecompositionConfig(cells_per_side=6, n_pes=9),
    )


#: One plan per supported fault class (the per-class sweep below), plus a
#: kitchen-sink plan combining all of them.
FAULT_CLASSES = {
    "slowdown": FaultPlan(seed=5, slowdowns=(SlowdownRule(pe=4, factor=3.0),)),
    "jitter": FaultPlan(seed=5, jitter=0.2),
    "stall": FaultPlan(seed=5, stalls=(StallRule(pe=0, step=3, duration=4, extra=0.05),)),
    "message-loss": FaultPlan(
        seed=5, messages=(MessageFaultRule(tag="*", loss=0.4),)
    ),
    "message-delay": FaultPlan(
        seed=5, messages=(MessageFaultRule(tag="*", delay_prob=0.5, delay=0.01),)
    ),
    "message-duplicate": FaultPlan(
        seed=5, messages=(MessageFaultRule(tag="*", duplicate=0.5),)
    ),
    "stale-timing": FaultPlan(seed=5, timing=TimingFaultRule(drop=0.5, max_staleness=2)),
    "everything": FaultPlan(
        seed=5,
        slowdowns=(SlowdownRule(pe=4, factor=2.0),),
        jitter=0.1,
        stalls=(StallRule(pe=0, step=3, duration=2, extra=0.02),),
        messages=(MessageFaultRule(tag="*", loss=0.2, delay_prob=0.2,
                                   delay=0.005, duplicate=0.1),),
        timing=TimingFaultRule(drop=0.3, max_staleness=2),
    ),
}


def faulted_runner(plan: FaultPlan, steps_seed: int = 1) -> ParallelMDRunner:
    config = sim_config()
    injector = FaultInjector(plan, config.decomposition.n_pes)
    runner = ParallelMDRunner(config, RunConfig(steps=10, seed=steps_seed),
                              faults=injector)
    runner.auditor = InvariantAuditor(
        runner.assignment, n_particles=runner.system.n, policy="raise",
        strategy=runner.balancer_name,
    )
    return runner


class TestFaultClasses:
    """Every fault class: zero invariant violations, no protocol errors."""

    @pytest.mark.parametrize("name", sorted(FAULT_CLASSES))
    def test_faulted_run_is_invariant_clean(self, name):
        runner = faulted_runner(FAULT_CLASSES[name])
        result = runner.run(10)  # InvariantViolation/ProtocolError would raise
        assert len(result.records) == 10
        assert runner.auditor.audits == 10
        assert runner.auditor.violation_count == 0
        assert np.all(np.isfinite(result.tt))

    def test_slowdown_actually_shifts_load(self):
        clean = ParallelMDRunner(sim_config(), RunConfig(steps=8, seed=1)).run()
        runner = faulted_runner(FAULT_CLASSES["slowdown"])
        slowed = runner.run(8)
        assert slowed.tt.sum() > clean.tt.sum()

    def test_driven_runner_survives_faults(self):
        plan = FAULT_CLASSES["everything"]
        config = sim_config()
        injector = FaultInjector(plan, config.decomposition.n_pes)
        runner = DrivenLoadRunner(config, rounds_per_config=2, faults=injector)
        runner.auditor = InvariantAuditor(runner.assignment, policy="raise",
                                          strategy=runner.balancer_name)
        rng = np.random.default_rng(2)
        box = config.md.box_length
        configurations = [rng.uniform(0, box, (500, 3)) for _ in range(4)]
        result = runner.run(configurations)
        assert len(result.records) == 4
        assert runner.auditor.violation_count == 0


class TestReproducibility:
    def test_same_plan_same_seed_byte_identical(self):
        plan = FAULT_CLASSES["everything"]
        a = faulted_runner(plan).run(10)
        b = faulted_runner(plan).run(10)
        assert a.digest() == b.digest()

    def test_different_fault_seed_diverges(self):
        base = FAULT_CLASSES["everything"]
        other = FaultPlan.from_dict({**asdict(base), "seed": 99})
        a = faulted_runner(base).run(10)
        b = faulted_runner(other).run(10)
        assert a.digest() != b.digest()

    def test_null_plan_matches_no_injector_at_all(self):
        """An attached-but-empty injector must not perturb anything."""
        config = sim_config()
        bare = ParallelMDRunner(config, RunConfig(steps=8, seed=1)).run()
        nulled = ParallelMDRunner(
            config, RunConfig(steps=8, seed=1),
            faults=FaultInjector(FaultPlan(), config.decomposition.n_pes),
        ).run()
        assert bare.digest() == nulled.digest()


class TestKillAndResume:
    def test_resume_matches_uninterrupted_faulted_run(self, tmp_path):
        plan = FAULT_CLASSES["everything"]
        uninterrupted = faulted_runner(plan).run(12)

        manager = CheckpointManager(tmp_path, every=3)
        killed = faulted_runner(plan)
        killed.run(7, checkpoint=manager)  # "crash" after step 7
        assert manager.latest_step() == 6

        resumed_runner = faulted_runner(plan)
        partial = resumed_runner.restore(manager.load_latest()["state"])
        assert resumed_runner.step_count == 6
        resumed = resumed_runner.run(
            12 - resumed_runner.step_count, checkpoint=manager, result=partial
        )
        assert resumed.digest() == uninterrupted.digest()

    def test_resume_without_faults_also_bit_identical(self, tmp_path):
        config = sim_config()
        uninterrupted = ParallelMDRunner(config, RunConfig(steps=10, seed=3)).run()
        manager = CheckpointManager(tmp_path, every=4)
        ParallelMDRunner(config, RunConfig(steps=10, seed=3)).run(
            6, checkpoint=manager
        )
        resumed_runner = ParallelMDRunner(config, RunConfig(steps=10, seed=3))
        partial = resumed_runner.restore(manager.load_latest()["state"])
        resumed = resumed_runner.run(10 - resumed_runner.step_count, result=partial)
        assert resumed.digest() == uninterrupted.digest()

    def test_driven_runner_resume_bit_identical(self, tmp_path):
        plan = FAULT_CLASSES["stale-timing"]
        config = sim_config()

        def make_runner():
            injector = FaultInjector(plan, config.decomposition.n_pes)
            runner = DrivenLoadRunner(config, rounds_per_config=2, faults=injector)
            return runner

        rng = np.random.default_rng(4)
        box = config.md.box_length
        configurations = [rng.uniform(0, box, (500, 3)) for _ in range(6)]

        uninterrupted = make_runner().run(configurations)

        manager = CheckpointManager(tmp_path, every=2)
        killed = make_runner()
        killed.run(configurations[:3], checkpoint=manager)
        assert killed.configs_done == 3

        resumed_runner = make_runner()
        partial = resumed_runner.restore(manager.load_latest()["state"])
        resumed = resumed_runner.run(configurations, result=partial)
        assert resumed.digest() == uninterrupted.digest()

    def test_restore_refuses_different_config(self, tmp_path):
        from repro.errors import CheckpointError

        manager = CheckpointManager(tmp_path, every=2)
        runner = ParallelMDRunner(sim_config(), RunConfig(steps=4, seed=1))
        runner.run(4, checkpoint=manager)
        other = ParallelMDRunner(sim_config(), RunConfig(steps=4, seed=2))
        with pytest.raises(CheckpointError, match="different configuration"):
            other.restore(manager.load_latest()["state"])


class TestProtocolEquivalenceUnderFaults:
    def test_total_drop_degrades_to_no_move(self):
        """No usable neighbour information => the safe no-move decision."""
        plan = FaultPlan(seed=1, timing=TimingFaultRule(drop=1.0, max_staleness=0))
        injector = FaultInjector(plan, 9)
        assignment = CellAssignment(9, 9)
        balancer = create_balancer(assignment, injector=injector, strategy="permanent")
        rng = np.random.default_rng(5)
        for step in range(1, 10):
            assert balancer.step(rng.uniform(0.1, 2.0, 9), step=step) == []
        assert np.array_equal(assignment.holder, assignment.home)

    def test_stale_views_expire_after_max_staleness(self):
        view = TimingView(9, max_staleness=2)
        view.observe(0, 1, 0.5)
        assert view.effective(0, 1) == 0.5
        view.miss(0, 1)
        view.miss(0, 1)
        assert view.effective(0, 1) == 0.5  # age 2 == max_staleness: usable
        view.miss(0, 1)
        assert view.effective(0, 1) is None  # age 3: expired
