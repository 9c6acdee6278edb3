"""The ``repro.api`` facade: entry points, persisted artifacts, validation."""

import json
import warnings

import numpy as np
import pytest

import repro
from repro import api
from repro.config import (
    DecompositionConfig,
    MDConfig,
    RunConfig,
    SimulationConfig,
)
from repro.errors import ConfigurationError, SchemaError


def small_config() -> SimulationConfig:
    return SimulationConfig(
        md=MDConfig(n_particles=1000, density=0.256),
        decomposition=DecompositionConfig(cells_per_side=6, n_pes=9),
    )


class TestDeprecatedShims:
    """The old top-level runner shims are gone; the classes live in
    :mod:`repro.core.runner` and :mod:`repro.api` is the entry point."""

    def test_top_level_no_longer_serves_the_runners(self):
        assert "ParallelMDRunner" not in repro.__all__
        assert "DrivenLoadRunner" not in repro.__all__
        with pytest.raises(AttributeError):
            repro.ParallelMDRunner

    def test_star_import_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exec("from repro import *", {})

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.NoSuchThing

    def test_shim_and_api_are_equivalent(self):
        """The runner class computes the same physics as simulate()."""
        from repro.core.runner import ParallelMDRunner

        old = ParallelMDRunner(small_config(), RunConfig(steps=3, seed=5)).run()
        new = api.simulate(small_config(), run=RunConfig(steps=3, seed=5))
        assert old.digest() == new.digest()

    def test_direct_module_import_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.core.runner import ParallelMDRunner  # noqa: F401


class TestSimulateValidation:
    def test_rejects_non_config(self):
        with pytest.raises(ConfigurationError):
            api.simulate(42, run=RunConfig(steps=1))

    def test_rejects_unknown_preset(self):
        with pytest.raises(Exception):
            api.simulate("no-such-preset", run=RunConfig(steps=1))

    def test_rejects_bad_faults_type(self):
        with pytest.raises(ConfigurationError):
            api.simulate(small_config(), run=RunConfig(steps=1), faults="plan.json")

    def test_rejects_negative_stop_after(self):
        with pytest.raises(ConfigurationError):
            api.simulate(small_config(), run=RunConfig(steps=1), stop_after=-1)

    def test_dlb_override_flips_mode(self):
        result = api.simulate(
            small_config(), run=RunConfig(steps=2, seed=1, balancer="none")
        )
        assert result.meta["mode"] == "ddm"
        assert not result.dlb_enabled


class TestSimulateDriven:
    def test_runs_configuration_sequence(self):
        rng = np.random.default_rng(0)
        box = small_config().md.box_length
        configs = [rng.uniform(0, box, (500, 3)) for _ in range(3)]
        result = api.simulate_driven(small_config(), configs)
        assert result.meta["mode"] == "dlb"
        assert result.meta["engine"] == "inproc"


class TestPersistedArtifacts:
    def test_config_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        run = RunConfig(steps=7, seed=9)
        api.save_config(path, small_config(), run)
        loaded = api.load_config(path)
        assert loaded.simulation == small_config()
        assert loaded.run == run

    def test_config_without_run_section(self, tmp_path):
        path = tmp_path / "config.json"
        api.save_config(path, small_config())
        assert api.load_config(path).run is None

    @pytest.mark.parametrize("enabled", [False, True])
    def test_older_config_with_dlb_enabled(self, tmp_path, enabled):
        """A config saved while ``DLBConfig.enabled`` existed. ``true`` is
        today's only behaviour and loads; ``false`` meant plain DDM, which
        the config can no longer say, so it is refused rather than loaded
        as a balancing run."""
        path = tmp_path / "older.json"
        path.write_text(
            '{"schema_version": "1.0", "simulation": {'
            '"md": {"n_particles": 1000, "density": 0.256}, '
            '"decomposition": {"cells_per_side": 6, "n_pes": 9, "shape": "pillar"}, '
            '"dlb": {"enabled": ' + str(enabled).lower() + ', "interval": 1, '
            '"max_sends_per_step": 1, "policy": "fastest", "threshold": 0.1}}}'
        )
        if enabled:
            assert api.load_config(path).simulation == small_config()
        else:
            with pytest.raises(SchemaError, match='balancer="none"'):
                api.load_config(path)

    @pytest.mark.parametrize("shape", ["pillar", "plane", "cube"])
    def test_older_config_with_a_decomposition_shape(self, tmp_path, shape):
        """A config saved while ``DecompositionConfig.shape`` existed.
        ``"pillar"`` is the one shape the runners implement and loads;
        any other is refused rather than loaded as a pillar run."""
        path = tmp_path / "older.json"
        path.write_text(
            '{"schema_version": "1.0", "simulation": {'
            '"md": {"n_particles": 1000, "density": 0.256}, '
            '"decomposition": {"cells_per_side": 6, "n_pes": 9, "shape": "'
            + shape + '"}}}'
        )
        if shape == "pillar":
            assert api.load_config(path).simulation == small_config()
        else:
            with pytest.raises(SchemaError, match=f"shape='{shape}'"):
                api.load_config(path)

    def test_load_config_refuses_a_float_particle_count(self, tmp_path):
        # It used to load, then die in simulate() with "slice indices must
        # be integers".
        path = tmp_path / "config.json"
        api.save_config(path, small_config(), RunConfig(steps=2))
        text = path.read_text().replace('"n_particles": 1000', '"n_particles": 1000.0')
        path.write_text(text)
        with pytest.raises(
            ConfigurationError, match=r"simulation\.md\.n_particles must be an integer"
        ):
            api.load_config(path)

    def test_load_config_refuses_unknown_keys_but_drops_retired_ones(self, tmp_path):
        path = tmp_path / "config.json"
        api.save_config(path, small_config(), RunConfig(steps=2))
        payload = json.loads(path.read_text())
        payload["run"] |= {"timing_mode": "model", "neighbor_max_reuse": 8}
        path.write_text(json.dumps(payload))
        assert api.load_config(path).run == RunConfig(steps=2)
        payload["run"]["skinn"] = 0.3
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match="unknown field.*'skinn' at run"):
            api.load_config(path)

    def test_load_config_rejects_missing_simulation(self, tmp_path):
        path = tmp_path / "broken.json"
        from repro.core.results import write_result_json

        write_result_json(path, {"not_simulation": {}})
        with pytest.raises(SchemaError):
            api.load_config(path)

    def test_result_payload_is_schema_versioned(self):
        result = api.simulate(small_config(), run=RunConfig(steps=2, seed=1))
        payload = api.result_payload(result)
        from repro.core.results import RESULT_SCHEMA_VERSION

        assert payload["schema_version"] == RESULT_SCHEMA_VERSION
        assert payload["digest"] == result.digest()
        assert payload["steps_run"] == 2

    def test_load_result_round_trip(self, tmp_path):
        from repro.core.results import write_result_json

        result = api.simulate(small_config(), run=RunConfig(steps=2, seed=1))
        path = tmp_path / "result.json"
        write_result_json(path, api.result_payload(result))
        loaded = api.load_result(path)
        assert loaded["digest"] == result.digest()

    def test_load_faults(self, tmp_path):
        import json

        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"seed": 3, "jitter": 0.1}))
        plan = api.load_faults(path)
        assert plan.seed == 3
        assert plan.jitter == 0.1
