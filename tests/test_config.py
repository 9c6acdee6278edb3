"""Configuration validation, the one reader and the one type check."""

import dataclasses
import re

import pytest

from repro.config import (
    DecompositionConfig,
    DLBConfig,
    MachineConfig,
    MDConfig,
    RunConfig,
    SimulationConfig,
    from_dict,
)
from repro.errors import ConfigurationError, ReproError


class TestMDConfig:
    def test_paper_defaults(self):
        config = MDConfig(n_particles=8000)
        assert config.density == 0.256
        assert config.temperature == 0.722
        assert config.cutoff == 2.5
        assert config.dt == 0.001
        assert config.rescale_interval == 50

    def test_box_length(self):
        config = MDConfig(n_particles=8000, density=0.256)
        assert config.box_length == pytest.approx((8000 / 0.256) ** (1 / 3))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_particles": 0},
            {"n_particles": 100, "density": 0.0},
            {"n_particles": 1000, "temperature": -1.0},
            {"n_particles": 1000, "cutoff": 0.0},
            {"n_particles": 1000, "dt": 0.0},
            {"n_particles": 1000, "rescale_interval": -1},
            {"n_particles": 1000, "attraction": -0.1},
            {"n_particles": 1000, "n_attractors": 0},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            MDConfig(**kwargs)

    def test_rejects_box_too_small_for_minimum_image(self):
        # Few particles at high density: box under 2 * r_c.
        with pytest.raises(ConfigurationError):
            MDConfig(n_particles=8, density=0.5)


class TestDecompositionConfig:
    def test_pillar_m(self):
        config = DecompositionConfig(cells_per_side=12, n_pes=36)
        assert config.pillar_m == 2
        assert config.pe_side == 6
        assert config.n_cells == 1728

    def test_pillar_needs_square_pes(self):
        with pytest.raises(ConfigurationError):
            DecompositionConfig(cells_per_side=12, n_pes=8)

    def test_pillar_needs_divisible_grid(self):
        with pytest.raises(ConfigurationError):
            DecompositionConfig(cells_per_side=13, n_pes=9)


class TestDLBConfig:
    def test_defaults(self):
        config = DLBConfig()
        assert config.interval == 1
        # Whether a run balances is its balancer name ("none" is plain DDM).
        assert not hasattr(config, "enabled")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"interval": 0},
            {"max_sends_per_step": 0},
            {"policy": "oracle"},
            {"threshold": -0.1},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            DLBConfig(**kwargs)


class TestMachineConfig:
    def test_rejects_negative_costs(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(latency=-1.0)
        with pytest.raises(ConfigurationError):
            MachineConfig(bytes_per_particle=0)


class TestRunConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"steps": -1},
            {"steps": 1, "record_interval": 0},
            {"steps": 1, "force_backend": "gpu"},
            {"steps": 1, "force_backend": "cells"},  # the per-step search is gone
            {"steps": 1, "balancer": "ddm"},  # plain DDM is "none"
            {"steps": 1, "skin": 0.0},
            {"steps": 1, "skin": -0.2},
            {"steps": 1, "balancer": "auto"},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            RunConfig(**kwargs)

    def test_verlet_backend_accepted(self):
        config = RunConfig(steps=1, force_backend="verlet", skin=0.3)
        assert config.force_backend == "verlet"
        assert config.skin == 0.3


class TestSimulationConfig:
    def test_cell_size_must_cover_cutoff(self):
        md = MDConfig(n_particles=8000, density=0.256)  # L = 31.5
        with pytest.raises(ConfigurationError):
            SimulationConfig(
                md=md, decomposition=DecompositionConfig(cells_per_side=18, n_pes=9)
            )

    def test_valid_combination(self):
        md = MDConfig(n_particles=8000, density=0.256)
        config = SimulationConfig(
            md=md, decomposition=DecompositionConfig(cells_per_side=12, n_pes=9)
        )
        assert config.cell_size == pytest.approx(31.5 / 12, abs=0.01)


def _every_config_class_case():
    """One valid instance per config class, with one leaf (by dotted path)
    and a wrong-typed value for it."""
    from repro.api import AuditPolicy, CheckpointPolicy
    from repro.campaign.spec import RunSpec
    from repro.faults.plan import (
        FaultPlan,
        MessageFaultRule,
        SlowdownRule,
        StallRule,
        TimingFaultRule,
    )

    md = MDConfig(n_particles=1000, density=0.256)
    decomposition = DecompositionConfig(cells_per_side=6, n_pes=9)
    return [
        (md, "n_particles", 1000.0),
        (decomposition, "n_pes", "9"),
        (DLBConfig(interval=2, policy="threshold"), "interval", 1.5),
        (MachineConfig(name="cm5", latency=1e-5), "bytes_per_particle", 48.0),
        (RunConfig(steps=10, seed=3, balancer="sfc"), "steps", 2.5),
        (SimulationConfig(md=md, decomposition=decomposition),
         "md.n_particles", 1000.0),
        (AuditPolicy(every=2, policy="log"), "every", 2.5),
        (CheckpointPolicy(directory="ck", every=5, resume=True), "resume", 1),
        (FaultPlan(
            seed=4,
            slowdowns=(SlowdownRule(pe=1, factor=2.0, stop=9),),
            stalls=(StallRule(pe=0, step=3),),
            messages=(MessageFaultRule(tag="halo", loss=0.1),),
            timing=TimingFaultRule(drop=0.2),
         ), "slowdowns[0].pe", 1.5),
        (SlowdownRule(pe=1, factor=2.0), "start", True),
        (StallRule(pe=0, step=3, extra=0.5), "duration", 2.0),
        (MessageFaultRule(tag="halo", delay_prob=0.5), "tag", 7),
        (TimingFaultRule(drop=0.2, max_staleness=1), "max_staleness", None),
        (RunSpec(kind="probe", probe_index=7, seed=42), "probe_index", 7.0),
    ]


def _set_leaf(data, path, value):
    """Set the leaf of ``asdict`` output at a dotted path (``a.b[0].c``)."""
    keys = path.replace("[", ".").replace("]", "").split(".")
    for key in keys[:-1]:
        data = data[int(key)] if key.isdigit() else data[key]
    data[keys[-1]] = value


_CASES = _every_config_class_case()


@pytest.mark.parametrize(
    "config, path, bad", _CASES, ids=[type(case[0]).__name__ for case in _CASES]
)
class TestEveryConfigClass:
    """One reader and one type check for every config class."""

    def test_reads_back_what_asdict_writes(self, config, path, bad):
        assert from_dict(type(config), dataclasses.asdict(config)) == config

    def test_refuses_a_wrong_typed_leaf_naming_its_path(self, config, path, bad):
        data = dataclasses.asdict(config)
        _set_leaf(data, path, bad)
        with pytest.raises(ReproError, match=re.escape(f"{path} must be ")):
            from_dict(type(config), data)
        if "." not in path and "[" not in path:
            with pytest.raises(ReproError, match=re.escape(f"{path} must be ")):
                dataclasses.replace(config, **{path: bad})

    def test_refuses_an_unknown_key(self, config, path, bad):
        with pytest.raises(ReproError, match="unknown field.*'bogus'"):
            from_dict(type(config), dataclasses.asdict(config) | {"bogus": 1})


class TestTypeCheck:
    def test_int_fields_refuse_bool_and_float(self):
        for steps in (True, 2.5, 2.0, "2"):
            with pytest.raises(ConfigurationError, match="steps must be an integer"):
                RunConfig(steps=steps)

    def test_float_fields_accept_int(self):
        assert RunConfig(steps=1, skin=1).skin == 1
        assert from_dict(MDConfig, {"n_particles": 1000, "density": 1}).density == 1

    def test_missing_required_field_is_named(self):
        with pytest.raises(ConfigurationError, match="missing field.*'n_pes' at decomposition"):
            from_dict(SimulationConfig, {"md": {"n_particles": 1000},
                                         "decomposition": {"cells_per_side": 6}})

    def test_value_errors_of_a_nested_config_name_its_path(self):
        with pytest.raises(ConfigurationError, match="^md: n_particles must be positive"):
            from_dict(SimulationConfig, {"md": {"n_particles": -5},
                                         "decomposition": {"cells_per_side": 6,
                                                           "n_pes": 9}})

    def test_retired_keys_are_dropped_by_dotted_path(self):
        data = {"md": {"n_particles": 1000, "old": 1},
                "decomposition": {"cells_per_side": 6, "n_pes": 9}}
        config = from_dict(SimulationConfig, data, retired=("md.old",))
        assert config.md == MDConfig(n_particles=1000)
        with pytest.raises(ConfigurationError, match="'old' at md"):
            from_dict(SimulationConfig, data, retired=("old",))
