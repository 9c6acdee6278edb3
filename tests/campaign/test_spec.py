"""Campaign and run specifications: validation, hashing, built-ins."""

import pytest

from repro import api
from repro.campaign import CampaignSpec, RunSpec, campaign_names, get_campaign
from repro.config import from_dict
from repro.errors import CampaignError, ConfigurationError
from repro.rng import repetition_seeds


class TestRunSpecValidation:
    def test_defaults_are_valid(self):
        assert RunSpec().kind == "boundary"

    def test_rejects_unknown_kind(self):
        with pytest.raises(CampaignError):
            RunSpec(kind="nope")

    def test_rejects_non_positive_steps(self):
        with pytest.raises(CampaignError):
            RunSpec(n_steps=0)

    def test_probe_needs_index(self):
        with pytest.raises(CampaignError):
            RunSpec(kind="probe")

    def test_probe_index_must_fit_schedule(self):
        with pytest.raises(CampaignError):
            RunSpec(kind="probe", probe_index=50, n_steps=50)

    def test_probe_hold_must_be_positive(self):
        with pytest.raises(CampaignError):
            RunSpec(kind="probe", probe_index=3, probe_hold=0)

    def test_preset_needs_name(self):
        with pytest.raises(CampaignError):
            RunSpec(kind="preset")

    def test_preset_mode_restricted(self):
        with pytest.raises(CampaignError):
            RunSpec(kind="preset", preset="bench-m2", mode="hybrid")


    @pytest.mark.parametrize("name", [
        "m", "n_pes", "n_steps", "seed", "repetition", "rounds_per_config",
        "detector_sustain", "probe_index", "probe_hold", "engine_workers",
    ])
    @pytest.mark.parametrize("value", [5.0, True], ids=["float", "bool"])
    def test_integer_fields_reject_floats_and_bools(self, name, value):
        # 5.0 / True would hash apart from 5 / 1 and fail (or repeat) later.
        fields = {"kind": "preset", "preset": "quickstart", "engine": "sequential"}
        with pytest.raises(CampaignError, match=name):
            RunSpec(**(fields | {name: value}))


class TestSpecHash:
    def test_deterministic(self):
        assert RunSpec().spec_hash() == RunSpec().spec_hash()

    def test_sensitive_to_every_physical_knob(self):
        base = RunSpec()
        variants = [
            RunSpec(m=2),
            RunSpec(n_pes=16),
            RunSpec(density=0.384),
            RunSpec(n_steps=120),
            RunSpec(seed=1),
            RunSpec(rounds_per_config=4),
        ]
        hashes = {spec.spec_hash() for spec in variants}
        assert base.spec_hash() not in hashes
        assert len(hashes) == len(variants)

    def test_repetition_index_is_not_hashed(self):
        # Two repetitions with identical parameters+seed are the same run.
        assert RunSpec(repetition=0).spec_hash() == RunSpec(repetition=5).spec_hash()

    def test_hash_covers_resolved_config(self):
        content = RunSpec().content()
        assert "config" in content
        assert "n_particles" in content["config"]["md"]

    def test_roundtrips_through_dict(self):
        spec = RunSpec(kind="probe", probe_index=7, seed=42)
        again = from_dict(RunSpec, spec.to_dict())
        assert again == spec
        assert again.spec_hash() == spec.spec_hash()

    def test_from_dict_drops_only_retired_keys(self):
        data = RunSpec().to_dict()
        # Stored specs from before the pair-search axis was removed.
        stored = data | {"backend": "kdtree"}
        assert from_dict(RunSpec, stored, retired=("backend",)) == RunSpec()
        with pytest.raises(CampaignError, match="'backend'"):
            from_dict(RunSpec, stored)
        with pytest.raises(CampaignError, match="'future_field'"):
            from_dict(RunSpec, data | {"future_field": 1}, retired=("backend",))


class TestPinnedHashes:
    """Content hashes of stored runs: a change here orphans every store."""

    @pytest.mark.parametrize("name, hashes", [
        ("fig5-quick", [
            "1b55cd6b19bffa5d", "a63a9a9e2ee49330", "0a34ba5f3ed87322",
            "dd8b81aa08fffea3",
        ]),
        # The two explicit "permanent" runs key as fig5-quick's default
        # spelling of the same runs (they were 13c178b5286f468e and
        # dfa438545d245e90 before "permanent" was folded into the default).
        ("balancer-matrix", [
            "a63a9a9e2ee49330", "3e26e6583cde0e9d", "4b270767bef0a9ad",
            "1b55cd6b19bffa5d", "dd8b81aa08fffea3", "0e6b9f240c649b5d",
            "4b23c36c05ccfbd3", "0a34ba5f3ed87322",
        ]),
    ])
    def test_builtin_preset_campaigns(self, name, hashes):
        assert get_campaign(name).hashes() == hashes

    def test_ledger_warmup_spec(self):
        spec = RunSpec(kind="preset", preset="quickstart", mode="dlb", n_steps=5, seed=1)
        assert spec.spec_hash() == "2f8f116bcd2f5c13"

    def test_default_spec(self):
        assert RunSpec().spec_hash() == "445a2bb6afc7805f"


class TestDefaultBalancerSpelling:
    """``"permanent"`` is the default strategy: one run, one hash."""

    SPEC = {"kind": "preset", "preset": "bench-m2", "n_steps": 200, "seed": 7}

    @pytest.mark.parametrize("selector", [{}, {"balancer": "permanent"}, {"mode": "dlb"},
                                          {"mode": "dlb", "balancer": "permanent"}])
    def test_every_spelling_of_the_default_hashes_equal(self, selector):
        data = self.SPEC | selector
        assert api.canonicalize_submission(data).run_hash == "a63a9a9e2ee49330"
        spec = from_dict(RunSpec, data)
        assert spec.balancer is None
        assert spec.spec_hash() == "a63a9a9e2ee49330"
        assert "balancer" not in spec.to_dict()

    def test_permanent_outside_a_preset_is_still_refused(self):
        with pytest.raises(CampaignError, match="preset runs only"):
            RunSpec(kind="boundary", balancer="permanent")


class TestModeCompatibility:
    """``"mode"`` is a compatibility key folded into the balancer: one
    selector, so one spelling of plain DDM and no contradictory specs."""

    PRESET = {"kind": "preset", "preset": "quickstart", "n_steps": 5, "seed": 1}
    #: fig5-quick's bench-m2 DDM hash, which the old ``"mode": "ddm"`` spec
    #: and the new ``balancer="none"`` spec must both key.
    DDM_SPEC = {"kind": "preset", "preset": "bench-m2", "n_steps": 200, "seed": 7}

    @pytest.mark.parametrize("selector", [
        {"mode": "ddm"}, {"balancer": "none"}, {"mode": "dlb", "balancer": "none"},
    ])
    def test_every_spelling_of_plain_ddm_hashes_equal(self, selector):
        data = self.DDM_SPEC | selector
        assert api.canonicalize_submission(data).run_hash == "1b55cd6b19bffa5d"
        spec = from_dict(RunSpec, data)
        assert spec.balancer == "none"
        assert spec.spec_hash() == "1b55cd6b19bffa5d"

    @pytest.mark.parametrize("balancer", ["permanent", "diffusion", "sfc"])
    def test_ddm_beside_a_balancer_is_rejected(self, balancer):
        data = self.PRESET | {"mode": "ddm", "balancer": balancer}
        with pytest.raises(ConfigurationError, match="contradicts"):
            api.canonicalize_submission(data)
        with pytest.raises(ConfigurationError, match="contradicts"):
            from_dict(RunSpec, data)

    def test_dlb_mode_is_a_no_op(self):
        for balancer in (None, "diffusion"):
            plain = RunSpec(**self.PRESET, balancer=balancer)
            assert RunSpec(**self.PRESET, balancer=balancer, mode="dlb") == plain

    def test_stored_ddm_spec_loads_as_balancer_none(self):
        # What a store wrote before the balancer was the only selector.
        stored = self.DDM_SPEC | {
            "m": 3, "n_pes": 9, "density": 0.256, "repetition": 0,
            "rounds_per_config": None, "detector_factor": 2.5,
            "detector_sustain": 15, "probe_index": None, "probe_hold": 30,
            "mode": "ddm",
        }
        spec = from_dict(RunSpec, stored)
        assert spec == RunSpec(**self.DDM_SPEC, balancer="none")
        assert "mode" not in spec.to_dict()
        assert spec.to_dict()["balancer"] == "none"

    def test_content_derives_the_removed_selectors(self):
        ddm = RunSpec(**self.PRESET, balancer="none").content()
        dlb = RunSpec(**self.PRESET, balancer="sfc").content()
        assert (ddm["config"]["dlb"]["enabled"], ddm["run"]["preset"]["mode"]) == (
            False, "ddm"
        )
        assert "balancer" not in ddm["run"]["preset"]
        assert (dlb["config"]["dlb"]["enabled"], dlb["run"]["preset"]["mode"]) == (
            True, "dlb"
        )
        assert dlb["run"]["preset"]["balancer"] == "sfc"
        assert RunSpec().content()["config"]["dlb"]["enabled"] is True


class TestStoredDetectorSettings:
    """Every stored spec carries the detector settings ``to_dict`` once wrote
    for every kind; only the fixed detector's values load."""

    #: A boundary spec as a store wrote it, without the two detector keys.
    STORED = {
        "kind": "boundary", "m": 2, "n_pes": 9, "density": 0.256, "n_steps": 60,
        "seed": 5, "repetition": 0, "rounds_per_config": None,
        "probe_index": None, "probe_hold": 30, "preset": None,
    }
    #: Its hash, as stored.
    HASH = "0fd038a1ec446d5e"

    @staticmethod
    def _from_store(tmp_path, spec_json: dict):
        """``spec_json`` read back through a store row (pool adoption)."""
        from repro.campaign import RunStore
        from repro.campaign.store import canonical_payload

        with RunStore(tmp_path) as store:
            run_hash = store.register(RunSpec(), "old")
            store._db.execute(
                "UPDATE runs SET spec_json = ? WHERE hash = ?",
                (canonical_payload(spec_json), run_hash),
            )
            store._db.commit()
            return store.get(run_hash).run_spec()

    def test_fixed_values_load_with_their_old_hash(self, tmp_path):
        stored = self.STORED | {"detector_factor": 2.5, "detector_sustain": 15}
        spec = from_dict(RunSpec, stored)
        assert spec == from_dict(RunSpec, self.STORED)
        assert spec.spec_hash() == self.HASH
        assert self._from_store(tmp_path, stored).spec_hash() == self.HASH
        assert api.canonicalize_submission(stored).run_hash == self.HASH
        assert "detector_factor" not in spec.to_dict()

    @pytest.mark.parametrize("key, value", [
        ("detector_factor", 3.0),
        ("detector_sustain", 10),
        ("detector_factor", True),
        ("detector_sustain", True),
        ("detector_sustain", 15.0),
    ])
    def test_other_values_are_refused(self, tmp_path, key, value):
        stored = self.STORED | {key: value}
        with pytest.raises(CampaignError, match=key):
            from_dict(RunSpec, stored)
        with pytest.raises(CampaignError, match=key):
            self._from_store(tmp_path, stored)
        with pytest.raises(ConfigurationError, match=key):
            api.canonicalize_submission(stored)
        with pytest.raises(CampaignError, match=key):
            RunSpec(**{key: value})


class TestCampaignSpec:
    def test_needs_runs(self):
        with pytest.raises(CampaignError):
            CampaignSpec(name="empty", runs=())

    def test_boundary_grid_expands_full_product(self):
        spec = CampaignSpec.boundary_grid(
            "grid", m_values=(2, 3), pe_counts=(9,), densities=(0.256, 0.384),
            n_repetitions=2, n_steps=50,
        )
        assert len(spec) == 2 * 1 * 2 * 2

    def test_boundary_grid_seeds_match_serial_driver(self):
        # The campaign's per-repetition seeds are exactly the serial
        # driver's stream: seed + 1000*density, then spawned children.
        spec = CampaignSpec.boundary_grid(
            "grid", m_values=(2,), pe_counts=(9,), densities=(0.256,),
            n_repetitions=3, n_steps=50, seed=0,
        )
        assert [r.seed for r in spec.runs] == repetition_seeds(256, 3)

    def test_preset_grid(self):
        spec = CampaignSpec.preset_grid(
            "p", presets=("bench-m2",), balancers=("none", None),
        )
        assert len(spec) == 2
        assert [r.balancer for r in spec.runs] == ["none", None]
        with pytest.raises(TypeError):
            CampaignSpec.preset_grid("p", presets=("bench-m2",), modes=("ddm",))


class TestBuiltins:
    def test_every_builtin_materialises(self):
        for name in campaign_names():
            spec = get_campaign(name)
            assert len(spec) > 0
            assert len(set(spec.hashes())) == len(spec), name

    def test_smoke_is_six_runs(self):
        assert len(get_campaign("smoke")) == 6

    def test_unknown_name_raises(self):
        with pytest.raises(CampaignError):
            get_campaign("fig99")


class TestEngineFields:
    def test_engine_only_on_preset_runs(self):
        with pytest.raises(CampaignError):
            RunSpec(kind="boundary", engine="sequential")

    def test_unknown_engine_rejected(self):
        with pytest.raises(CampaignError):
            RunSpec(kind="preset", preset="quickstart", engine="gpu")

    def test_workers_require_an_engine(self):
        with pytest.raises(CampaignError):
            RunSpec(kind="preset", preset="quickstart", engine_workers=2)

    def test_unknown_backend_rejected(self):
        # One pair search: a spec has no backend to name, not even "kdtree".
        for backend in ("bogus", "kdtree"):
            with pytest.raises(TypeError):
                RunSpec(kind="preset", preset="quickstart", backend=backend)
        with pytest.raises(TypeError):
            CampaignSpec.preset_grid("p", presets=("bench-m2",), backends=("kdtree",))

    def test_cells_backend_cannot_run_under_an_engine(self):
        # Nor anywhere else: the per-step search is gone.
        with pytest.raises(TypeError):
            RunSpec(kind="preset", preset="quickstart", backend="cells",
                    engine="sequential")

    def test_engineless_hash_is_unchanged(self):
        # The engine fields must not invalidate pre-engine stored runs.
        spec = RunSpec(kind="preset", preset="quickstart")
        assert "engine" not in spec.content()["run"]["preset"]
        assert "engine" not in spec.to_dict()

    def test_engine_enters_the_hash_but_workers_do_not(self):
        base = RunSpec(kind="preset", preset="quickstart")
        engined = RunSpec(kind="preset", preset="quickstart", engine="multiprocess")
        w2 = RunSpec(
            kind="preset", preset="quickstart", engine="multiprocess", engine_workers=2
        )
        w4 = RunSpec(
            kind="preset", preset="quickstart", engine="multiprocess", engine_workers=4
        )
        assert engined.spec_hash() != base.spec_hash()
        assert w2.spec_hash() == w4.spec_hash() == engined.spec_hash()

    def test_engined_spec_roundtrips(self):
        spec = RunSpec(
            kind="preset", preset="quickstart", engine="multiprocess", engine_workers=3
        )
        assert from_dict(RunSpec, spec.to_dict()) == spec
