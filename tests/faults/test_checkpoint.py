"""Atomic checkpoint write/read, pruning, and corruption fallback."""

import os
import pickle

import pytest

from repro.core.checkpoint import CHECKPOINT_VERSION, CheckpointManager
from repro.errors import CheckpointError


class TestCadence:
    def test_due_follows_every(self, tmp_path):
        manager = CheckpointManager(tmp_path, every=5)
        assert [s for s in range(1, 16) if manager.due(s)] == [5, 10, 15]

    def test_zero_disables_cadence(self, tmp_path):
        manager = CheckpointManager(tmp_path, every=0)
        assert not any(manager.due(s) for s in range(1, 100))

    def test_step_zero_never_due(self, tmp_path):
        assert not CheckpointManager(tmp_path, every=1).due(0)

    def test_rejects_negative_cadence(self, tmp_path):
        with pytest.raises(CheckpointError):
            CheckpointManager(tmp_path, every=-1)

    def test_rejects_zero_keep(self, tmp_path):
        with pytest.raises(CheckpointError):
            CheckpointManager(tmp_path, keep=0)


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(12, {"x": [1, 2, 3]})
        payload = manager.load_latest()
        assert payload["version"] == CHECKPOINT_VERSION
        assert payload["step"] == 12
        assert payload["state"] == {"x": [1, 2, 3]}

    def test_latest_step(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        assert manager.latest_step() is None
        manager.save(3, {})
        manager.save(9, {})
        assert manager.latest_step() == 9

    def test_prune_keeps_newest(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=2)
        for step in (1, 2, 3, 4):
            manager.save(step, {"step": step})
        steps = [int(p.name[5:-4]) for p in manager.snapshots()]
        assert steps == [3, 4]

    def test_no_tmp_files_survive(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(1, {"big": list(range(1000))})
        assert not list(tmp_path.glob(".tmp-*"))

    def test_save_spares_another_process_in_flight_tmp(self, tmp_path):
        """Two processes may checkpoint one run (a reclaimed run's old owner
        and its survivor): pruning must not unlink the other's tmp file
        between its fsync and rename. ``clear()`` at commit sweeps it."""
        foreign = tmp_path / f".tmp-ckpt-000000002.pkl.{os.getpid() + 1}"
        foreign.write_bytes(b"in flight")
        manager = CheckpointManager(tmp_path)
        manager.save(1, {})
        assert foreign.exists()
        manager.clear()
        assert not foreign.exists()

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            CheckpointManager(tmp_path).load_latest()


class TestCorruptionRecovery:
    def test_corrupt_newest_falls_back_to_older(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=3)
        manager.save(5, {"good": True})
        manager.save(10, {"good": True})
        newest = manager.snapshots()[-1]
        newest.write_bytes(b"torn write: not a pickle")
        payload = manager.load_latest()
        assert payload["step"] == 5

    def test_truncated_newest_falls_back(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=3)
        manager.save(5, {"good": True})
        manager.save(10, {"good": True})
        newest = manager.snapshots()[-1]
        newest.write_bytes(newest.read_bytes()[: -10])
        assert manager.load_latest()["step"] == 5

    def test_all_corrupt_raises(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(5, {})
        for path in manager.snapshots():
            path.write_bytes(b"garbage")
        with pytest.raises(CheckpointError, match="no readable checkpoint"):
            manager.load_latest()

    def test_wrong_payload_shape_skipped(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=3)
        manager.save(5, {"good": True})
        manager.save(10, {"good": True})
        manager.snapshots()[-1].write_bytes(pickle.dumps(["not", "a", "dict"]))
        assert manager.load_latest()["step"] == 5

    def test_version_mismatch_is_loud(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(5, {})
        path = manager.snapshots()[-1]
        payload = {"version": CHECKPOINT_VERSION + 1, "step": 5, "state": {}}
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(CheckpointError, match="version"):
            manager.load_latest()
