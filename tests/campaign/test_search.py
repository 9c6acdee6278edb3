"""Adaptive bisection of the DLB effective-range boundary."""

import threading
import time

import pytest

import repro.campaign.executor as executor
from repro.campaign import (
    RunStore,
    bisect_boundary,
    evaluate_probe,
    exhaustive_boundary_scan,
    probe_spec,
)
from repro.errors import CampaignError


@pytest.fixture
def synthetic_oracle(monkeypatch):
    """Replace probe execution with a step function diverging at a level.

    Returns a dict exposing the configurable ``boundary`` level and the
    recorded probe ``calls`` so tests can count work.
    """
    state = {"boundary": 40, "calls": []}

    def fake_execute(spec, *args):
        state["calls"].append(spec.probe_index)
        diverged = spec.probe_index >= state["boundary"]
        return {
            "kind": "probe",
            "m": spec.m,
            "n_pes": spec.n_pes,
            "density": spec.density,
            "seed": spec.seed,
            "index": spec.probe_index,
            "diverged": diverged,
            "n": 1.0 + spec.probe_index / 10.0,
            "c0_ratio": 0.5,
        }

    monkeypatch.setattr(executor, "execute_run", fake_execute)
    return state


class TestBisection:
    def test_localises_same_level_as_exhaustive(self, synthetic_oracle):
        for boundary in (4, 37, 62, 96):
            synthetic_oracle["boundary"] = boundary
            b = bisect_boundary(2, 9, 0.256, n_steps=100, stride=4)
            e = exhaustive_boundary_scan(2, 9, 0.256, n_steps=100, stride=4)
            assert b.boundary_index == e.boundary_index
            assert b.found and e.found

    def test_uses_at_most_half_the_probes(self, synthetic_oracle):
        b = bisect_boundary(2, 9, 0.256, n_steps=100, stride=4)
        e = exhaustive_boundary_scan(2, 9, 0.256, n_steps=100, stride=4)
        assert e.n_probes == 25
        assert b.n_probes <= e.n_probes // 2

    def test_no_boundary_on_grid(self, synthetic_oracle):
        synthetic_oracle["boundary"] = 10**9
        result = bisect_boundary(2, 9, 0.256, n_steps=100, stride=4)
        assert not result.found
        assert result.point is None
        assert result.n_probes == 1  # the top-level probe settles it

    def test_boundary_at_grid_start(self, synthetic_oracle):
        synthetic_oracle["boundary"] = 0
        result = bisect_boundary(2, 9, 0.256, n_steps=100, stride=4)
        assert result.boundary_index == 0
        assert result.n_probes == 2

    def test_point_read_from_boundary_probe(self, synthetic_oracle):
        synthetic_oracle["boundary"] = 40
        result = bisect_boundary(2, 9, 0.256, n_steps=100, stride=4)
        n, c0 = result.point
        assert n == pytest.approx(1.0 + result.boundary_index / 10.0)
        assert c0 == pytest.approx(0.5)

    def test_rejects_bad_stride(self):
        with pytest.raises(CampaignError):
            bisect_boundary(2, 9, 0.256, n_steps=100, stride=0)


class TestProbeCaching:
    def test_store_serves_repeated_probes(self, synthetic_oracle):
        with RunStore() as store:
            first = bisect_boundary(2, 9, 0.256, n_steps=100, stride=4,
                                    store=store)
            executions = len(synthetic_oracle["calls"])
            second = bisect_boundary(2, 9, 0.256, n_steps=100, stride=4,
                                     store=store)
            # Second search reuses every stored probe: no new executions.
            assert len(synthetic_oracle["calls"]) == executions
            assert second.boundary_index == first.boundary_index

    def test_sibling_held_probe_is_served_not_executed(
        self, synthetic_oracle, tmp_path
    ):
        """A probe another process holds is waited for, never run twice;
        the payload served is the one that process commits."""
        spec = probe_spec(2, 9, 0.256, index=44, n_steps=100)
        sibling = RunStore(tmp_path, instance_id="sibling-1-x")
        run_hash = sibling.register(spec, "search")
        lease = sibling.acquire_lease(run_hash, ttl=60.0)
        served = {}

        def search_probe():
            with RunStore(tmp_path) as store:
                served["payload"] = evaluate_probe(spec, store)

        searcher = threading.Thread(target=search_probe)
        searcher.start()
        time.sleep(0.5)  # the search is now watching the sibling's lease
        assert sibling.complete(
            run_hash, {"kind": "probe", "diverged": True, "from": "sibling"},
            0.1, lease=lease,
        )
        searcher.join(timeout=30)
        assert not searcher.is_alive()
        assert synthetic_oracle["calls"] == []  # not executed here
        assert served["payload"]["from"] == "sibling"
        assert sibling.get(run_hash).attempts == 1
        sibling.close()

    def test_raising_probe_ends_failed(self, monkeypatch):
        def explode(spec, *args):
            raise RuntimeError("probe exploded")

        monkeypatch.setattr(executor, "execute_run", explode)
        spec = probe_spec(2, 9, 0.256, index=3, n_steps=40)
        with RunStore() as store:
            with pytest.raises(CampaignError, match="probe exploded"):
                evaluate_probe(spec, store)
            row = store.get(spec.spec_hash())
            assert row.status == "failed"
            assert row.owner is None

    def test_evaluate_probe_rejects_non_probe(self):
        from repro.campaign import RunSpec

        with pytest.raises(CampaignError):
            evaluate_probe(RunSpec(kind="boundary"))


def test_probe_spec_builds_valid_probe():
    spec = probe_spec(2, 9, 0.256, index=7, n_steps=40, seed=5)
    assert spec.kind == "probe"
    assert spec.probe_index == 7
    assert spec.spec_hash() == probe_spec(2, 9, 0.256, 7, n_steps=40, seed=5).spec_hash()


class TestRealProbe:
    """One real (non-stubbed) probe at the smallest viable scale."""

    def test_low_level_probe_does_not_diverge(self):
        payload = evaluate_probe(
            probe_spec(2, 9, 0.256, index=2, n_steps=40, seed=3, probe_hold=8)
        )
        assert payload["diverged"] is False

    def test_top_level_probe_diverges(self):
        payload = evaluate_probe(
            probe_spec(2, 9, 0.256, index=39, n_steps=40, seed=3, probe_hold=8)
        )
        assert payload["diverged"] is True
