"""The checkpoint config token: a hash of the config tree without its
default-valued leaves, so fields can come and go at their defaults while
every differing value still refuses a snapshot."""

import copy
import dataclasses

import numpy as np
import pytest

from repro.config import (
    DecompositionConfig,
    DLBConfig,
    MachineConfig,
    MDConfig,
    RunConfig,
    SimulationConfig,
    config_token,
)
from repro.core.runner import SNAPSHOT_FORMAT, DrivenLoadRunner, ParallelMDRunner
from repro.errors import CheckpointMismatchError


def small_sim_config() -> SimulationConfig:
    return SimulationConfig(
        md=MDConfig(n_particles=1000, density=0.256),
        decomposition=DecompositionConfig(cells_per_side=6, n_pes=9),
    )


def patched_run_config(add=(), drop=()):
    """``RunConfig`` as a later (``add``: ``(name, type, default)``) or an
    earlier (``drop``: names) version of the library might declare it."""
    specs = [
        (f.name, f.type) if f.default is dataclasses.MISSING
        else (f.name, f.type, dataclasses.field(default=f.default))
        for f in dataclasses.fields(RunConfig) if f.name not in drop
    ]
    specs += [(name, kind, dataclasses.field(default=default))
              for name, kind, default in add]
    return dataclasses.make_dataclass("RunConfig", specs, frozen=True)


def snapshot_and_digest():
    """A snapshot at step 2 of a 4-step run, and the uninterrupted digest."""
    runner = ParallelMDRunner(small_sim_config(), RunConfig(steps=4, seed=1))
    partial = runner.run(2)
    state = runner.state_dict(partial)
    return state, runner.run(2, result=partial).digest()


class TestResumeAcrossFieldChanges:
    @pytest.mark.parametrize("run_config", [
        patched_run_config(add=[("new_knob", int, 0)])(steps=4, seed=1),
        patched_run_config(drop=["force_backend"])(steps=4, seed=1),
    ], ids=["defaulted-field-added", "default-held-field-removed"])
    def test_snapshot_still_resumes(self, run_config):
        state, digest = snapshot_and_digest()
        runner = ParallelMDRunner(small_sim_config(), run_config)
        partial = runner.restore(state)
        assert runner.run(2, result=partial).digest() == digest

    def test_a_field_removed_off_its_default_is_refused(self):
        runner = ParallelMDRunner(
            small_sim_config(), RunConfig(steps=4, seed=1, force_backend="verlet")
        )
        state = runner.state_dict(runner.run(2))
        other = patched_run_config(drop=["force_backend"])(steps=4, seed=1)
        with pytest.raises(CheckpointMismatchError):
            ParallelMDRunner(small_sim_config(), other).restore(state)


def _leaves(config, prefix=""):
    """``(dotted path, value)`` of every scalar leaf of a config tree."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaves(value, f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}", value


def _changed(value):
    if value is None:
        return 1
    if isinstance(value, str):
        return value + "x"
    return value + 1


def _with_leaf(config, path, value):
    """A copy of a frozen config tree with one leaf replaced, unchecked."""
    config = copy.deepcopy(config)
    *parents, name = path.split(".")
    node = config
    for parent in parents:
        node = getattr(node, parent)
    object.__setattr__(node, name, value)
    return config


TREE = {"simulation": small_sim_config(), "run": RunConfig(steps=4, seed=1)}


class TestAnyDifferingValueIsRefused:
    @pytest.mark.parametrize("part, path", [
        (part, path) for part, config in TREE.items() for path, _ in _leaves(config)
    ])
    def test_every_leaf_reaches_the_token(self, part, path):
        value = dict(_leaves(TREE[part]))[path]
        changed = dict(TREE, **{part: _with_leaf(TREE[part], path, _changed(value))})
        assert config_token(**changed, balancer="permanent") != config_token(
            **TREE, balancer="permanent"
        )

    def test_balancer_and_rounds_reach_the_token(self):
        base = config_token(simulation=small_sim_config(), balancer="permanent", rounds=1)
        assert base != config_token(
            simulation=small_sim_config(), balancer="diffusion", rounds=1
        )
        assert base != config_token(
            simulation=small_sim_config(), balancer="permanent", rounds=2
        )

    def test_md_snapshot_under_another_seed_is_refused(self):
        state, _ = snapshot_and_digest()
        runner = ParallelMDRunner(small_sim_config(), RunConfig(steps=4, seed=2))
        with pytest.raises(CheckpointMismatchError, match="different configuration"):
            runner.restore(state)

    def test_driven_snapshot_under_other_rounds_is_refused(self):
        config = small_sim_config()
        rng = np.random.default_rng(0)
        runner = DrivenLoadRunner(config, rounds_per_config=2)
        runner.run([rng.uniform(0, config.md.box_length, (1000, 3))])
        state = runner.state_dict()
        DrivenLoadRunner(config, rounds_per_config=2).restore(state)
        with pytest.raises(CheckpointMismatchError):
            DrivenLoadRunner(config, rounds_per_config=3).restore(state)


#: The default of every field that reaches the token, and the snapshot
#: format they belong to.
TOKEN_DEFAULTS = {
    "SNAPSHOT_FORMAT": 4,
    "MDConfig": {
        "density": 0.256, "temperature": 0.722, "cutoff": 2.5, "dt": 0.001,
        "rescale_interval": 50, "attraction": 0.0, "n_attractors": 1,
    },
    "DecompositionConfig": {},
    "DLBConfig": {
        "interval": 1, "max_sends_per_step": 1, "policy": "fastest",
        "threshold": 0.1,
    },
    "MachineConfig": {
        "name": "t3e", "latency": 10e-6, "inv_bandwidth": 1.0 / 2.8e9,
        "tau_pair": 60e-9, "tau_particle": 150e-9, "tau_cell": 40e-9,
        "dlb_overhead": 30e-6, "bytes_per_particle": 48,
    },
    "RunConfig": {
        "seed": None, "record_interval": 1, "force_backend": "kdtree",
        "skin": 0.4, "balancer": None,
    },
    # dlb and machine default to the configs pinned above.
    "SimulationConfig": {},
}


def test_token_defaults_are_pinned():
    actual = {"SNAPSHOT_FORMAT": SNAPSHOT_FORMAT}
    for cls in (MDConfig, DecompositionConfig, DLBConfig, MachineConfig,
                RunConfig, SimulationConfig):
        actual[cls.__name__] = {
            f.name: f.default for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING
        }
    assert actual == TOKEN_DEFAULTS, (
        "a default that reaches the config token changed: the token leaves "
        "default-valued leaves out, so a snapshot taken under the old default "
        "would silently resume under the new one. Bump SNAPSHOT_FORMAT in "
        "repro/core/runner.py, then update TOKEN_DEFAULTS."
    )
