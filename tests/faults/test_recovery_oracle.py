"""Recovery oracle: a run killed after *any* step resumes to the same bytes.

For every kill point of a short faulted run -- each step of a
:class:`ParallelMDRunner`, each configuration of a :class:`DrivenLoadRunner`
-- the run is stopped there with a checkpoint, restored into a freshly built
runner and finished. The resumed run's result digest and its flight-recorder
sim channel must equal the uninterrupted run's. Under the README fault plan
(dropped timing reports, message loss, a slowed PE) this covers every piece
of mutable state a snapshot must carry: the previous step's times feed the
next balancer round, the simulated clock lands in ``run.end``, and the
balancer's bounded-staleness timing view decides which neighbour a PE
believes fastest.

The snapshot key sets are pinned too: checkpoints written by older builds
must keep resuming, so a key may not be renamed or dropped silently.
"""

import json

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
from repro.faults import FaultInjector
from repro.obs import EventLog, Observability
from tests.helpers import readme_plan

MD_STEPS = 12
CONFIGS = 6
ROUNDS = 2

SHARED_KEYS = {
    "kind", "config_token", "step_count", "sim_time", "holder", "last_times",
    "last_counts", "balancer", "accountant", "events", "records", "format",
}
MD_KEYS = SHARED_KEYS | {"positions", "velocities", "forces", "force_cache"}
DRIVEN_KEYS = SHARED_KEYS | {"configs_done"}


def sim_config() -> SimulationConfig:
    return SimulationConfig(
        md=MDConfig(n_particles=1000, density=0.256),
        decomposition=DecompositionConfig(cells_per_side=6, n_pes=9),
    )


def observed_faults(config: SimulationConfig):
    """A fresh events-on bundle and the README-plan injector logging into it."""
    observability = Observability(events=EventLog())
    injector = FaultInjector(readme_plan(), config.decomposition.n_pes)
    injector.events = observability.events
    return observability, injector


def md_runner() -> ParallelMDRunner:
    config = sim_config()
    observability, injector = observed_faults(config)
    return ParallelMDRunner(
        config,
        RunConfig(steps=MD_STEPS, seed=3, record_interval=1, balancer="permanent"),
        observability=observability,
        faults=injector,
    )


def driven_runner() -> DrivenLoadRunner:
    config = sim_config()
    observability, injector = observed_faults(config)
    return DrivenLoadRunner(
        config,
        rounds_per_config=ROUNDS,
        observability=observability,
        faults=injector,
        balancer="permanent",
    )


def configurations() -> list[np.ndarray]:
    """Particles drifting into one corner: the load shifts every config."""
    rng = np.random.default_rng(4)
    box = sim_config().md.box_length
    return [
        rng.uniform(0, box, (800, 3)) * (1.0 - 0.1 * k) for k in range(CONFIGS)
    ]


@pytest.fixture(scope="module")
def md_reference():
    runner = md_runner()
    result = runner.run()
    return result.digest(), runner.events.lines()


@pytest.fixture(scope="module")
def driven_reference():
    runner = driven_runner()
    result = runner.run(configurations())
    return result.digest(), runner.events.lines()


class TestEveryKillPoint:
    @pytest.mark.parametrize("kill_at", range(1, MD_STEPS))
    def test_parallel_md_resumes_to_the_uninterrupted_run(
        self, tmp_path, md_reference, kill_at
    ):
        manager = CheckpointManager(tmp_path, every=1)
        md_runner().run(kill_at, checkpoint=manager)
        state = manager.load_latest()["state"]
        assert set(state) == MD_KEYS

        resumed = md_runner()
        partial = resumed.restore(state)
        assert resumed.step_count == kill_at
        result = resumed.run(MD_STEPS - kill_at, result=partial)
        assert (result.digest(), resumed.events.lines()) == md_reference

    @pytest.mark.parametrize("kill_after", range(1, CONFIGS))
    def test_driven_resumes_to_the_uninterrupted_run(
        self, tmp_path, driven_reference, kill_after
    ):
        sequence = configurations()
        manager = CheckpointManager(tmp_path, every=1)
        driven_runner().run(sequence[:kill_after], checkpoint=manager)
        state = manager.load_latest()["state"]
        assert set(state) == DRIVEN_KEYS

        resumed = driven_runner()
        partial = resumed.restore(state)
        assert resumed.configs_done == kill_after
        assert resumed.step_count == kill_after * ROUNDS
        result = resumed.run(sequence, result=partial)
        assert (result.digest(), resumed.events.lines()) == driven_reference


class TestOracleHasTeeth:
    def test_the_fault_plan_exercises_the_timing_view(self):
        """The stale-view state the oracle protects is live in these runs."""
        runner = md_runner()
        runner.run(4)
        view = runner.balancer.view
        assert view is not None and view.age.max() > 0

    def test_the_runs_move_cells(self, md_reference, driven_reference):
        for _, lines in (md_reference, driven_reference):
            kinds = {json.loads(line)["kind"] for line in lines}
            assert "cell.migrate" in kinds


class TestOlderSnapshots:
    def test_snapshot_without_step_records_is_refused(self):
        """A format-1 snapshot (imbalance tracker state beside an event
        buffer with no ``step`` records) cannot rebuild the imbalance
        summary, so resume refuses it instead of reporting a wrong one."""
        from repro.errors import CheckpointMismatchError

        runner = md_runner()
        runner.run(2)
        state = runner.state_dict()
        old = {key: value for key, value in state.items() if key != "format"}
        old["imbalance"] = {}
        old["events"]["records"] = [
            r for r in old["events"]["records"] if r["kind"] != "step"
        ]
        with pytest.raises(CheckpointMismatchError, match="format"):
            md_runner().restore(old)
        md_runner().restore(state)  # the current format resumes

    def test_snapshot_from_the_per_row_force_kernel_is_refused(self):
        """A format-2 snapshot was integrated under the kernel that scattered
        the whole list row by row; resumed under the block fold it would go
        on with other force bits, so resume refuses it."""
        from repro.errors import CheckpointMismatchError

        runner = md_runner()
        runner.run(2)
        state = runner.state_dict()
        with pytest.raises(CheckpointMismatchError, match="format 2 "):
            md_runner().restore({**state, "format": 2})
