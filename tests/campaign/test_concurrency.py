"""Two processes draining the same store never double-execute a run."""

import json
import multiprocessing
import os
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign import CampaignSpec, RunSpec, RunStore
from repro.campaign.store import DB_NAME
from repro.errors import CampaignError

#: Runs both worker processes race over.
N_RUNS = 6

_WORKER = """
import json, sys
from repro.campaign import CampaignSpec, RunSpec, RunStore, run_campaign
import repro.campaign.executor as executor_module

# Instant stub executions: this test is about claiming, not physics.
executor_module._pool_worker = lambda spec_dict, timeout: {
    "ok": True,
    "payload": {"kind": "stub", "seed": spec_dict["seed"], "worker": sys.argv[2]},
    "duration_s": 0.0,
}

runs = tuple(
    RunSpec(m=2, n_pes=9, density=0.256, n_steps=40, seed=500 + i)
    for i in range(%(n_runs)d)
)
campaign = CampaignSpec(name="race", runs=runs)
store = RunStore(sys.argv[1], takeover=False)  # concurrent drainer mode
summary = run_campaign(campaign, store, workers=1, retries=0)
print(json.dumps(summary.to_dict()))
""" % {"n_runs": N_RUNS}


def test_two_processes_never_double_execute(tmp_path):
    env = dict(os.environ)
    repo_src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _WORKER, str(tmp_path), name],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
        )
        for name in ("alpha", "beta")
    ]
    summaries = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        summaries.append(json.loads(out.strip().splitlines()[-1]))

    with RunStore(tmp_path, takeover=False) as store:
        rows = store.runs("race")
        assert len(rows) == N_RUNS
        # Every run is done, and was executed exactly once: the atomic
        # claim() means attempts never exceeds 1 even under the race.
        assert all(row.status == "done" for row in rows)
        assert [row.attempts for row in rows] == [1] * N_RUNS
        # Each payload names exactly one executing worker.
        workers = {row.payload["worker"] for row in rows}
        assert workers <= {"alpha", "beta"}

    # Execution counts across the two invocations partition the campaign:
    # every run completed by exactly one process, the rest seen as
    # cached/skipped -- never executed twice.
    total_completed = sum(s["completed"] for s in summaries)
    assert total_completed == N_RUNS
    for summary in summaries:
        assert summary["completed"] + summary["cached"] + summary["skipped"] == N_RUNS
        assert summary["failed"] == 0


_LEASE_RACER = """
import json, sys
from repro.campaign import RunSpec, RunStore

store = RunStore(sys.argv[1], takeover=False, instance_id=sys.argv[2])
runs = [RunSpec(seed=900 + i).spec_hash() for i in range(%(n_runs)d)]
won = []
for run_hash in runs:
    lease = store.acquire_lease(run_hash, ttl=60.0)
    if lease is None:
        continue
    committed = store.complete(
        run_hash, {"winner": sys.argv[2]}, 0.0, lease=lease
    )
    if committed:
        won.append(run_hash)
print(json.dumps(won))
""" % {"n_runs": N_RUNS}


def test_two_processes_lease_api_commits_exactly_once(tmp_path):
    """Raw lease acquire/complete race: each run has exactly one winner."""
    with RunStore(tmp_path, takeover=False) as store:
        hashes = [
            store.register(RunSpec(seed=900 + i), "lease-race")
            for i in range(N_RUNS)
        ]
        # One run is already quarantined; nobody may resurrect it.
        store.quarantine(hashes[0], "poisoned before the race")

    env = dict(os.environ)
    repo_src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _LEASE_RACER, str(tmp_path), name],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
        )
        for name in ("host-1-alpha", "host-2-beta")
    ]
    wins = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        wins.append(json.loads(out.strip().splitlines()[-1]))

    # Disjoint winners covering every leasable run exactly once.
    assert not set(wins[0]) & set(wins[1])
    assert sorted(wins[0] + wins[1]) == sorted(hashes[1:])

    with RunStore(tmp_path, takeover=False) as store:
        rows = {row.hash: row for row in store.runs("lease-race")}
        # The quarantined run stayed quarantined: terminal means terminal.
        assert rows[hashes[0]].status == "quarantined"
        for run_hash in hashes[1:]:
            assert rows[run_hash].status == "done"
            assert rows[run_hash].attempts == 1
            assert rows[run_hash].payload["winner"] in (
                "host-1-alpha", "host-2-beta"
            )


#: More openers than cores, so first-opens really overlap; each round races
#: over a fresh store directory.
N_OPENERS = 6
N_OPEN_ROUNDS = 12


def _first_open(path, barrier, results):
    """Open (and so create) each round's store the instant every sibling is ready."""
    try:
        for round_no in range(N_OPEN_ROUNDS):
            barrier.wait(timeout=60)
            with RunStore(path / f"round-{round_no}", takeover=False) as store:
                store.ping()
        results.put("ok")
    except BaseException as exc:  # reported to the parent, which asserts
        barrier.abort()
        results.put(f"{type(exc).__name__}: {exc}")
        raise


def test_concurrent_first_open_never_reports_locked(tmp_path):
    """N processes creating one store at once all succeed.

    SQLite does not run the busy handler for ``PRAGMA journal_mode=WAL``, so
    without the store's own retry a loser of the first-open race dies with
    ``OperationalError: database is locked`` whatever ``busy_timeout`` says.
    """
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(N_OPENERS)
    results = ctx.Queue()
    procs = [
        ctx.Process(target=_first_open, args=(tmp_path, barrier, results))
        for _ in range(N_OPENERS)
    ]
    for proc in procs:
        proc.start()
    outcomes = [results.get(timeout=120) for _ in procs]  # drain before join
    for proc in procs:
        proc.join(timeout=60)
        assert not proc.is_alive()
    assert outcomes == ["ok"] * N_OPENERS
    for round_no in range(N_OPEN_ROUNDS):
        with RunStore(tmp_path / f"round-{round_no}", takeover=False) as store:
            assert store.runs() == []


def test_first_open_gives_up_with_campaign_error_naming_the_store(tmp_path):
    """A store that stays locked past ``busy_timeout`` is an actionable error."""
    holder = sqlite3.connect(tmp_path / DB_NAME, isolation_level=None)
    try:
        holder.execute("BEGIN EXCLUSIVE")
        with pytest.raises(CampaignError, match=str(tmp_path)):
            RunStore(tmp_path, takeover=False, busy_timeout=0.05)
    finally:
        holder.close()
