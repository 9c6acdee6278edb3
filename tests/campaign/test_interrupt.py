"""Clean interruption: Ctrl-C/SIGTERM demote in-flight runs to resumable."""

import os
import signal

import pytest

from repro.campaign import CampaignSpec, RunSpec, RunStore, run_campaign


def tiny_campaign(n_runs: int = 3) -> CampaignSpec:
    runs = tuple(
        RunSpec(m=2, n_pes=9, density=0.256, n_steps=40, seed=300 + i)
        for i in range(n_runs)
    )
    return CampaignSpec(name="interruptible", runs=runs)


def on_start(n: int, act):
    """A progress callback calling ``act()`` when the ``n``-th run starts."""
    starts = []

    def progress(event, run_hash, spec):
        if event == "start":
            starts.append(run_hash)
            if len(starts) == n:
                act()

    return progress


def ctrl_c():
    raise KeyboardInterrupt


class TestKeyboardInterrupt:
    def test_serial_interrupt_demotes_inflight_run(self):
        """Ctrl-C mid-run: the interrupted run goes back to pending, not
        left 'running', and completed work is preserved."""
        campaign = tiny_campaign(3)
        store = RunStore()
        summary = run_campaign(campaign, store, workers=1, retries=0,
                               progress=on_start(2, ctrl_c))
        assert summary.interrupted
        assert summary.completed == 1
        counts = store.status_counts()
        assert counts["running"] == 0  # nothing left wedged
        assert counts["done"] == 1
        assert counts["pending"] == 2  # the interrupted run is resumable

    def test_resume_after_interrupt_completes_the_rest(self):
        campaign = tiny_campaign(3)
        store = RunStore()
        first = run_campaign(campaign, store, workers=1, retries=0,
                             progress=on_start(2, ctrl_c))
        assert first.interrupted

        second = run_campaign(campaign, store, workers=1, retries=0)
        assert not second.interrupted
        assert second.cached == first.completed
        assert second.completed == 3 - first.completed
        assert store.status_counts()["done"] == 3

    def test_interrupt_releases_only_own_claims(self, tmp_path):
        """The interrupted invocation must not steal a sibling process's
        in-flight row (a blanket demotion of every running row would)."""
        campaign = tiny_campaign(3)
        store = RunStore(tmp_path)
        hashes = [spec.spec_hash() for spec in campaign.runs]
        # A sibling drainer holds run 0 in flight.
        sibling = RunStore(tmp_path)
        sibling.register(campaign.runs[0], campaign.name)
        lease = sibling.acquire_lease(hashes[0], ttl=60.0)
        assert lease

        summary = run_campaign(campaign, store, workers=1, retries=0,
                               progress=on_start(1, ctrl_c))
        assert summary.interrupted
        # The sibling's claim survived; only this invocation's claim released.
        assert store.get(hashes[0]).status == "running"
        assert sibling.renew_lease(lease) is not None
        sibling.close()


@pytest.mark.skipif(not hasattr(signal, "SIGTERM"), reason="no SIGTERM")
class TestSigterm:
    def test_sigterm_behaves_like_keyboard_interrupt(self):
        campaign = tiny_campaign(3)
        store = RunStore()
        # The handler run_campaign installed raises KeyboardInterrupt
        # synchronously in this (main) thread.
        sigterm = lambda: os.kill(os.getpid(), signal.SIGTERM)  # noqa: E731
        summary = run_campaign(campaign, store, workers=1, retries=0,
                               progress=on_start(2, sigterm))
        assert summary.interrupted
        assert summary.completed == 1
        counts = store.status_counts()
        assert counts["running"] == 0
        assert counts["done"] == 1
        assert counts["pending"] == 2

    def test_previous_handler_restored(self):
        sentinel = []
        previous = signal.signal(signal.SIGTERM, lambda *a: sentinel.append(1))
        try:
            run_campaign(tiny_campaign(1), RunStore(), workers=1)
            assert signal.getsignal(signal.SIGTERM) is not signal.SIG_DFL
            os.kill(os.getpid(), signal.SIGTERM)
            assert sentinel == [1]
        finally:
            signal.signal(signal.SIGTERM, previous)
