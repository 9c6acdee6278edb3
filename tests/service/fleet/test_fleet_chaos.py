"""Process-level chaos: real ``repro serve`` fleets, real SIGKILLs.

The acceptance test of the self-healing fleet. Two genuine server
processes share one SQLite store; the test SIGKILLs the instance that
owns a running simulation and proves the survivor reclaims the lease,
resumes from the latest checkpoint, and finishes with a digest
byte-identical to an uninterrupted single-instance run — with exactly one
stored payload. A second scenario crashes a run on two distinct instances
and proves it lands terminally quarantined, surfaced over both HTTP and
the ``repro runs quarantine`` CLI.

These tests launch subprocesses and run real physics; they are the
slowest in the suite (~20s each) but are what makes the failover claim a
measurement instead of a story.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import api
from repro.config import RunConfig
from repro.campaign.store import RunStore
from repro.errors import ServiceError
from repro.faults.chaos import Fleet

#: The owner is killed as soon as its first checkpoint is seen; the run must
#: still be going by then. 19 of its 20 checkpoint windows lie after that
#: point (~2.5 s of stepping on a 2-core host against a 10 ms poll), so the
#: kill lands mid-run however fast a step is; still under half a minute.
N_STEPS = 800
CHECKPOINT_EVERY = 40
SPEC = {
    "kind": "preset",
    "preset": "quickstart",
    "mode": "dlb",
    "n_steps": N_STEPS,
    "seed": 3,
}


def reference_digest() -> str:
    """The uninterrupted single-process digest, with invariants audited."""
    result = api.simulate(
        SPEC["preset"],
        run=RunConfig(
            steps=N_STEPS,
            seed=SPEC["seed"],
            record_interval=max(1, N_STEPS // 50),
            force_backend="kdtree",
        ),
        dlb=True,
        audit=api.AuditPolicy(every=10, policy="raise"),
    )
    # policy="raise" means reaching here IS the zero-violations proof, but
    # assert the recorded summary anyway so a policy change can't silently
    # weaken this reference.
    assert result.meta["audit"]["violations"] == 0
    return result.digest()


def wait_until(predicate, timeout=30.0, interval=0.05, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


@pytest.mark.slow
class TestFailover:
    def test_sigkill_owner_survivor_finishes_byte_identical(self, tmp_path):
        store_dir = tmp_path / "store"
        checkpoints = store_dir / "checkpoints"
        with Fleet(
            store_dir,
            size=2,
            log_dir=tmp_path / "logs",
            lease_ttl=1.0,
            reap_interval=0.25,
            checkpoint_every=CHECKPOINT_EVERY,
            max_attempts=3,
        ) as fleet:
            client = fleet.servers[0].client()
            accepted = client.submit(SPEC)
            assert accepted.status == 202
            run_id = accepted.body["run_id"]

            owner = fleet.wait_for_owner(run_id)
            # Kill only once a checkpoint exists, so the survivor provably
            # *resumes* mid-run rather than restarting from step zero.
            run_checkpoints = checkpoints / run_id
            wait_until(
                lambda: run_checkpoints.is_dir()
                and any(run_checkpoints.glob("ckpt-*.pkl")),
                interval=0.01,
                message="first checkpoint to land",
            )
            owner.sigkill()
            assert not owner.alive
            # The victim was mid-run, so it had a pool child to orphan.
            assert owner.orphaned
            survivors = fleet.alive
            assert len(survivors) == 1

            survivor_client = survivors[0].client()
            result = survivor_client.wait(run_id, timeout=90)
            assert result["status"] == "done"
            assert result["payload"]["digest"] == reference_digest()
            assert (
                "repro_service_reclaimed_runs_total 1"
                in survivor_client.metrics()
            )

        # Fleet.stop() raises if a descendant of the victim outlived it (an
        # orphan would keep checkpointing into the survivor's directory).
        assert owner.surviving_orphans() == []

        # Exactly-once at the store: one row, one payload, two attempts
        # (the victim's and the survivor's), the victim on record.
        with RunStore(store_dir, takeover=False) as store:
            stored = store.get(run_id)
        assert stored.status == "done"
        assert stored.attempts == 2
        assert len(stored.failed_owners) == 1
        # The committed payload carries the byte-identical digest too.
        assert stored.payload["digest"] == result["payload"]["digest"]


@pytest.mark.slow
class TestPoisonQuarantine:
    def test_run_crashing_on_two_instances_is_quarantined(self, tmp_path):
        """A run that fails everywhere must stop migrating and go terminal."""
        store_dir = tmp_path / "store"
        with Fleet(
            store_dir,
            size=2,
            log_dir=tmp_path / "logs",
            lease_ttl=2.0,
            reap_interval=0.5,
            max_attempts=2,
            retries=0,
            run_timeout=0.05,  # every attempt times out: the poison
        ) as fleet:
            poison = dict(SPEC, n_steps=5000, seed=11)
            first = fleet.servers[0].client()
            run_id = first.submit(poison).body["run_id"]
            with pytest.raises(ServiceError, match="failed"):
                first.wait(run_id, timeout=60)

            # Second distinct instance tries the same run and also fails:
            # that crosses max_attempts=2 and quarantines terminally.
            second = fleet.servers[1].client()
            assert second.submit(poison).status == 202
            with pytest.raises(ServiceError, match="quarantined"):
                second.wait(run_id, timeout=60)

            listing = second.quarantine()
            assert [entry["run_id"] for entry in listing] == [run_id]
            payload = listing[0]["quarantine"]
            assert payload["quarantined"] is True
            assert len(payload["failed_owners"]) == 2
            # Resubmission anywhere answers 409 with the quarantine payload.
            rejected = first.submit(poison)
            assert rejected.status == 409
            assert rejected.body["quarantine"]["quarantined"] is True

        # Store agrees after the fleet is gone: terminal, structured error.
        with RunStore(store_dir, takeover=False) as store:
            stored = store.get(run_id)
            assert stored.status == "quarantined"
            assert stored.error_payload["attempts"] == 2

        # The operator surface: `repro runs quarantine` lists it...
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(Path(__file__).resolve().parents[3] / "src")
            + os.pathsep + env.get("PYTHONPATH", "")
        )
        listed = subprocess.run(
            [sys.executable, "-m", "repro", "runs", "quarantine",
             "--dir", str(store_dir), "--json"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert listed.returncode == 0, listed.stderr
        rows = json.loads(listed.stdout)
        assert [row["run_id"] for row in rows] == [run_id]
        # ... and `repro runs requeue` lifts it, explicitly.
        requeued = subprocess.run(
            [sys.executable, "-m", "repro", "runs", "requeue", run_id,
             "--dir", str(store_dir)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert requeued.returncode == 0, requeued.stderr
        with RunStore(store_dir, takeover=False) as store:
            assert store.get(run_id).status == "pending"
