"""Clean interruption: Ctrl-C/SIGTERM demote in-flight runs to resumable."""

import os
import signal

import pytest

from repro.campaign import CampaignSpec, RunSpec, RunStore, run_campaign
import repro.campaign.executor as executor_module


def tiny_campaign(n_runs: int = 3) -> CampaignSpec:
    runs = tuple(
        RunSpec(m=2, n_pes=9, density=0.256, n_steps=40, seed=300 + i)
        for i in range(n_runs)
    )
    return CampaignSpec(name="interruptible", runs=runs)


def fake_worker(payload_kind: str = "stub"):
    """A _pool_worker stand-in that always succeeds instantly."""

    def worker(spec_dict, timeout):
        return {"ok": True, "payload": {"kind": payload_kind,
                                        "seed": spec_dict["seed"]},
                "duration_s": 0.0}

    return worker


class TestKeyboardInterrupt:
    def test_serial_interrupt_demotes_inflight_run(self, monkeypatch):
        """Ctrl-C mid-run: the interrupted run goes back to pending, not
        left 'running', and completed work is preserved."""
        campaign = tiny_campaign(3)
        store = RunStore()
        calls = {"n": 0}

        def interrupting_worker(spec_dict, timeout):
            calls["n"] += 1
            if calls["n"] == 2:
                raise KeyboardInterrupt
            return fake_worker()(spec_dict, timeout)

        monkeypatch.setattr(executor_module, "_pool_worker", interrupting_worker)
        summary = run_campaign(campaign, store, workers=1, retries=0)
        assert summary.interrupted
        assert summary.completed == 1
        counts = store.status_counts()
        assert counts["running"] == 0  # nothing left wedged
        assert counts["done"] == 1
        assert counts["pending"] == 2  # the interrupted run is resumable

    def test_resume_after_interrupt_completes_the_rest(self, monkeypatch):
        campaign = tiny_campaign(3)
        store = RunStore()
        calls = {"n": 0}

        def interrupting_worker(spec_dict, timeout):
            calls["n"] += 1
            if calls["n"] == 2:
                raise KeyboardInterrupt
            return fake_worker()(spec_dict, timeout)

        monkeypatch.setattr(executor_module, "_pool_worker", interrupting_worker)
        first = run_campaign(campaign, store, workers=1, retries=0)
        assert first.interrupted

        monkeypatch.setattr(executor_module, "_pool_worker", fake_worker())
        second = run_campaign(campaign, store, workers=1, retries=0)
        assert not second.interrupted
        assert second.cached == first.completed
        assert second.completed == 3 - first.completed
        assert store.status_counts()["done"] == 3

    def test_interrupt_releases_only_own_claims(self, monkeypatch, tmp_path):
        """The finally block must not steal a sibling process's in-flight
        row (the old blanket reset_running() did)."""
        campaign = tiny_campaign(3)
        store = RunStore(tmp_path)
        hashes = [spec.spec_hash() for spec in campaign.runs]
        # A sibling drainer holds run 0 in flight.
        sibling = RunStore(tmp_path, takeover=False)
        sibling.register(campaign.runs[0], campaign.name)
        assert sibling.acquire_lease(hashes[0])

        def interrupting_worker(spec_dict, timeout):
            raise KeyboardInterrupt

        monkeypatch.setattr(executor_module, "_pool_worker", interrupting_worker)
        summary = run_campaign(campaign, store, workers=1, retries=0,
                               progress=None)
        assert summary.interrupted
        # The sibling's claim survived; only this invocation's claim released.
        assert store.get(hashes[0]).status == "running"
        sibling.close()


@pytest.mark.skipif(not hasattr(signal, "SIGTERM"), reason="no SIGTERM")
class TestSigterm:
    def test_sigterm_behaves_like_keyboard_interrupt(self, monkeypatch):
        campaign = tiny_campaign(3)
        store = RunStore()
        calls = {"n": 0}

        def self_terminating_worker(spec_dict, timeout):
            calls["n"] += 1
            if calls["n"] == 2:
                # The handler run_campaign installed raises KeyboardInterrupt
                # synchronously in this (main) thread.
                os.kill(os.getpid(), signal.SIGTERM)
            return fake_worker()(spec_dict, timeout)

        monkeypatch.setattr(executor_module, "_pool_worker", self_terminating_worker)
        summary = run_campaign(campaign, store, workers=1, retries=0)
        assert summary.interrupted
        assert summary.completed == 1
        counts = store.status_counts()
        assert counts["running"] == 0
        assert counts["done"] == 1
        assert counts["pending"] == 2

    def test_previous_handler_restored(self, monkeypatch):
        sentinel = []
        previous = signal.signal(signal.SIGTERM, lambda *a: sentinel.append(1))
        try:
            monkeypatch.setattr(executor_module, "_pool_worker", fake_worker())
            run_campaign(tiny_campaign(1), RunStore(), workers=1)
            assert signal.getsignal(signal.SIGTERM) is not signal.SIG_DFL
            os.kill(os.getpid(), signal.SIGTERM)
            assert sentinel == [1]
        finally:
            signal.signal(signal.SIGTERM, previous)
