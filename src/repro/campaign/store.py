"""Persistent run store: cross-invocation caching, exactly-once, leases.

One SQLite file per campaign directory holds every run the engine has ever
seen, keyed by the spec's content hash.  A run moves through the statuses

    pending -> running -> done | failed | quarantined

and a ``done`` run is *never* re-executed: re-submitting the same campaign
(or a different campaign sharing grid points) serves the stored payload as a
cache hit.  ``failed`` rows are retryable; ``quarantined`` rows are terminal
until an operator explicitly requeues them (``repro runs requeue``).

Ownership of a ``running`` row is a **lease**: the row records which
instance owns it (``owner``), its attempt counter, and — for monitored
leases — a deadline on the store clock after which any other instance may
reclaim the run.  Every mutation of a leased row is a compare-and-swap on
``(hash, status, owner, attempts)``, so an instance that was paused past its
deadline and lost the lease can *never* renew it, demote it, or commit a
result over the reclaimer's work.  The store clock defaults to
``time.monotonic()``, which on one host is shared by all processes and
immune to wall-clock skew; tests inject skewed clocks to prove the CAS keeps
the exactly-once guarantee even when clocks disagree.

Payloads are stored as canonical JSON (sorted keys, compact separators), so
"same spec hash => same payload" is checkable byte-for-byte across serial
and parallel executions.
"""

from __future__ import annotations

import json
import os
import secrets
import socket
import sqlite3
import time
from dataclasses import dataclass, replace
from pathlib import Path

from ..core.results import attach_schema_version, check_schema_version
from ..errors import CampaignError
from .spec import RunSpec

#: Store schema version (bump on layout change; v1 stores migrate in place).
STORE_SCHEMA = 2

#: Database filename inside a campaign directory.
DB_NAME = "campaign.sqlite"

_STATUSES = ("pending", "running", "done", "failed", "quarantined")

#: Statuses a lease acquisition may flip to ``running``.
_CLAIMABLE = ("pending", "failed")

_SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE IF NOT EXISTS runs (
    hash TEXT PRIMARY KEY,
    campaign TEXT NOT NULL,
    spec_json TEXT NOT NULL,
    status TEXT NOT NULL,
    payload_json TEXT,
    error TEXT,
    attempts INTEGER NOT NULL DEFAULT 0,
    duration_s REAL,
    created_at REAL NOT NULL,
    updated_at REAL NOT NULL,
    owner TEXT,
    lease_deadline REAL,
    failed_owners TEXT NOT NULL DEFAULT '[]'
);
CREATE INDEX IF NOT EXISTS runs_by_campaign ON runs (campaign, status);
CREATE TABLE IF NOT EXISTS instances (
    id TEXT PRIMARY KEY,
    started_at REAL NOT NULL,
    last_seen REAL NOT NULL,
    deadline REAL NOT NULL
);
"""

#: ALTER statements migrating a v1 ``runs`` table in place (v1 rows have no
#: lease columns; NULL owner/deadline reads back as an unmonitored claim).
_MIGRATE_V1_SQL = (
    "ALTER TABLE runs ADD COLUMN owner TEXT",
    "ALTER TABLE runs ADD COLUMN lease_deadline REAL",
    "ALTER TABLE runs ADD COLUMN failed_owners TEXT NOT NULL DEFAULT '[]'",
)

_ROW_COLUMNS = (
    "hash, campaign, spec_json, status, payload_json, error, attempts, "
    "duration_s, owner, lease_deadline, failed_owners"
)


def canonical_payload(payload: dict) -> str:
    """The canonical JSON form payloads are stored (and compared) in."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def default_instance_id() -> str:
    """A fleet-unique instance identity: ``<host>-<pid>-<nonce>``.

    The pid is embedded second-to-last so operators (and the chaos harness)
    can map a lease's owner back to a live process.
    """
    return f"{socket.gethostname()}-{os.getpid()}-{secrets.token_hex(3)}"


def quarantine_payload(
    reason: str,
    failed_owners: list[str],
    attempts: int,
    last_error: str | None = None,
) -> dict:
    """The structured error payload a quarantined run carries."""
    return {
        "quarantined": True,
        "reason": reason,
        "attempts": int(attempts),
        "failed_owners": sorted(failed_owners),
        "last_error": last_error,
    }


@dataclass(frozen=True)
class Lease:
    """Proof of ownership of one ``running`` row.

    ``attempt`` is the attempts counter *at acquisition*: every guarded
    store operation compares it, so a reclaim (which bumps the counter)
    invalidates all previously-issued leases for the hash at once.
    ``deadline`` is on the store clock; ``None`` marks an unmonitored claim
    (legacy single-process semantics — never expires, reclaimed only by a
    takeover/startup sweep).
    """

    run_hash: str
    owner: str
    attempt: int
    deadline: float | None
    ttl: float | None


@dataclass(frozen=True)
class StoredRun:
    """One row of the run store."""

    hash: str
    campaign: str
    spec: dict
    status: str
    payload: dict | None
    error: str | None
    attempts: int
    duration_s: float | None
    owner: str | None = None
    lease_deadline: float | None = None
    failed_owners: tuple[str, ...] = ()

    @property
    def payload_json(self) -> str | None:
        """Canonical JSON of the payload (byte-comparable across stores)."""
        return canonical_payload(self.payload) if self.payload is not None else None

    @property
    def error_payload(self) -> dict | None:
        """The structured error payload, when the error column holds one."""
        if self.error is None:
            return None
        try:
            decoded = json.loads(self.error)
        except (TypeError, ValueError):
            return {"reason": self.error}
        return decoded if isinstance(decoded, dict) else {"reason": self.error}

    def run_spec(self) -> RunSpec:
        """The stored spec, rebuilt as a :class:`RunSpec`."""
        return RunSpec.from_dict(self.spec)


class RunStore:
    """SQLite-backed store of campaign runs.

    ``path`` is a campaign directory (created on demand); ``None`` opens an
    in-memory store for ephemeral executions (the CLI ``sweep`` alias).

    *Across* processes the store is safe to share: file-backed stores run in
    WAL journal mode with a busy timeout, and every ownership transition is
    an atomic compare-and-swap (see :meth:`acquire_lease`), so any number of
    processes draining the same campaign never double-execute a run.
    Concurrent drainers must open with ``takeover=False`` -- the default
    ``takeover=True`` demotes every ``running`` row at open, which is right
    for crash recovery in a single-drainer world but would steal a sibling
    process's in-flight runs.  Fleet members instead open with
    ``takeover=False`` and rely on :meth:`sweep_stale` /
    :meth:`reclaim_expired`, which only touch expired or unmonitored leases.

    ``clock`` is the lease clock (defaults to ``time.monotonic``, which all
    processes on one host share); ``instance_id`` names this opener in
    leases it takes (defaults to a fresh :func:`default_instance_id`).
    """

    def __init__(
        self,
        path: str | Path | None = None,
        takeover: bool = True,
        busy_timeout: float = 30.0,
        clock=None,
        instance_id: str | None = None,
    ) -> None:
        self.clock = clock if clock is not None else time.monotonic
        self.instance_id = instance_id or default_instance_id()
        if path is None:
            self.directory = None
            self._db = sqlite3.connect(":memory:")
        else:
            self.directory = Path(path)
            self.directory.mkdir(parents=True, exist_ok=True)
            self._db = sqlite3.connect(
                self.directory / DB_NAME, timeout=busy_timeout
            )
            # WAL lets a reader (status/report) proceed under a writer and
            # makes small commits cheaper; busy_timeout turns lock contention
            # between sibling processes into a bounded wait instead of an
            # immediate "database is locked" error.
            self._enter_wal(busy_timeout)
            self._db.execute(f"PRAGMA busy_timeout={int(busy_timeout * 1000)}")
            self._db.execute("PRAGMA synchronous=NORMAL")
        self._db.executescript(_SCHEMA_SQL)
        row = self._db.execute(
            "SELECT value FROM meta WHERE key = 'schema'"
        ).fetchone()
        if row is None:
            # OR IGNORE: a sibling first-opener may have stamped it since.
            self._db.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES ('schema', ?)",
                (str(STORE_SCHEMA),),
            )
            self._db.commit()
        elif int(row[0]) == 1:
            self._migrate_v1()
        elif int(row[0]) != STORE_SCHEMA:
            raise CampaignError(
                f"run store schema {row[0]} != supported {STORE_SCHEMA} "
                f"(delete {self.directory} to rebuild)"
            )
        # Any 'running' rows are stale markers from an interrupted process --
        # unless a sibling process may legitimately be mid-run (takeover=False).
        if takeover:
            self.reset_running()

    def _enter_wal(self, busy_timeout: float) -> None:
        """``PRAGMA journal_mode=WAL``, retried while a sibling holds the lock.

        SQLite does not run the busy handler for this statement, so when
        several processes first-open one store the losers see "database is
        locked" at once, whatever the connection's timeout says.
        """
        deadline = time.monotonic() + busy_timeout
        while True:
            try:
                self._db.execute("PRAGMA journal_mode=WAL")
                return
            except sqlite3.OperationalError as exc:
                locked = "locked" in str(exc)
                if locked and time.monotonic() < deadline:
                    time.sleep(0.005)
                    continue
                self._db.close()
                if not locked:
                    raise
                raise CampaignError(
                    f"run store {self.directory} stayed locked for "
                    f"{busy_timeout:g} s while switching to WAL mode"
                ) from exc

    def _migrate_v1(self) -> None:
        """Upgrade a v1 store in place (additive columns; rows preserved)."""
        existing = {
            row[1] for row in self._db.execute("PRAGMA table_info(runs)")
        }
        for statement in _MIGRATE_V1_SQL:
            column = statement.split(" ADD COLUMN ", 1)[1].split()[0]
            if column not in existing:
                self._db.execute(statement)
        self._db.execute(
            "UPDATE meta SET value = ? WHERE key = 'schema'", (str(STORE_SCHEMA),)
        )
        self._db.commit()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Close the underlying connection."""
        self._db.close()

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def ping(self) -> None:
        """Cheap liveness probe; raises ``sqlite3.Error`` when unusable."""
        self._db.execute("SELECT 1").fetchone()

    # -- row access --------------------------------------------------------

    def get(self, run_hash: str) -> StoredRun | None:
        """The stored run under ``run_hash``, or None."""
        row = self._db.execute(
            f"SELECT {_ROW_COLUMNS} FROM runs WHERE hash = ?",
            (run_hash,),
        ).fetchone()
        return self._to_stored(row) if row is not None else None

    def runs(
        self, campaign: str | None = None, status: str | None = None
    ) -> list[StoredRun]:
        """All stored runs (optionally restricted to one campaign/status)."""
        clauses, params = [], []
        if campaign is not None:
            clauses.append("campaign = ?")
            params.append(campaign)
        if status is not None:
            clauses.append("status = ?")
            params.append(status)
        where = (" WHERE " + " AND ".join(clauses)) if clauses else ""
        rows = self._db.execute(
            f"SELECT {_ROW_COLUMNS} FROM runs{where} ORDER BY rowid",
            tuple(params),
        ).fetchall()
        return [self._to_stored(row) for row in rows]

    def quarantined_runs(self, campaign: str | None = None) -> list[StoredRun]:
        """Quarantined rows (the ``repro runs quarantine`` listing)."""
        return self.runs(campaign, status="quarantined")

    @staticmethod
    def _to_stored(row: tuple) -> StoredRun:
        (run_hash, campaign, spec_json, status, payload_json, error,
         attempts, duration_s, owner, lease_deadline, failed_owners) = row
        payload = json.loads(payload_json) if payload_json else None
        if payload is not None and "schema_version" in payload:
            # Pre-versioning rows load as-is; stamped rows must be readable.
            check_schema_version(payload, source=f"stored run {run_hash}")
        return StoredRun(
            hash=run_hash,
            campaign=campaign,
            spec=json.loads(spec_json),
            status=status,
            payload=payload,
            error=error,
            attempts=int(attempts),
            duration_s=duration_s,
            owner=owner,
            lease_deadline=lease_deadline,
            failed_owners=tuple(json.loads(failed_owners or "[]")),
        )

    # -- registration ------------------------------------------------------

    def register(self, spec: RunSpec, campaign: str, run_hash: str | None = None) -> str:
        """Ensure a row exists for ``spec``; returns its hash.

        Existing rows keep their status and payload (exactly-once: a ``done``
        run stays done no matter how many campaigns resubmit it).
        """
        run_hash = run_hash if run_hash is not None else spec.spec_hash()
        now = time.time()
        self._db.execute(
            "INSERT INTO runs (hash, campaign, spec_json, status, attempts, "
            "created_at, updated_at) VALUES (?, ?, ?, 'pending', 0, ?, ?) "
            "ON CONFLICT(hash) DO NOTHING",
            (run_hash, campaign, canonical_payload(spec.to_dict()), now, now),
        )
        self._db.commit()
        return run_hash

    # -- the lease API -----------------------------------------------------

    def acquire_lease(
        self,
        run_hash: str,
        owner: str | None = None,
        ttl: float | None = None,
    ) -> Lease | None:
        """Atomically claim a runnable row; the exactly-once primitive.

        Flips ``pending``/``failed`` to ``running`` (counting the attempt)
        in one compare-and-set UPDATE, so of any number of processes racing
        on the same hash exactly one gets a :class:`Lease`; the rest get
        ``None`` (the row is running, done or quarantined elsewhere) and
        must skip the run.  ``ttl`` of ``None`` takes an unmonitored claim
        that never expires (the legacy single-drainer mode); a real ``ttl``
        arms the deadline siblings reclaim through :meth:`reclaim_expired`,
        so the holder must keep it fresh via :meth:`renew_lease`.
        """
        owner = owner or self.instance_id
        deadline = self.clock() + ttl if ttl is not None else None
        placeholders = ", ".join("?" for _ in _CLAIMABLE)
        cursor = self._db.execute(
            "UPDATE runs SET status = 'running', owner = ?, "
            "lease_deadline = ?, attempts = attempts + 1, updated_at = ? "
            f"WHERE hash = ? AND status IN ({placeholders})",
            (owner, deadline, time.time(), run_hash, *_CLAIMABLE),
        )
        if cursor.rowcount != 1:
            self._db.commit()
            return None
        # Still inside the implicit transaction: the attempt counter we read
        # is exactly the one our UPDATE wrote.
        attempt = self._db.execute(
            "SELECT attempts FROM runs WHERE hash = ?", (run_hash,)
        ).fetchone()[0]
        self._db.commit()
        return Lease(run_hash, owner, int(attempt), deadline, ttl)

    def renew_lease(self, lease: Lease, extend: float | None = None) -> Lease | None:
        """Heartbeat a monitored lease; ``None`` means ownership was lost.

        The renewal is a compare-and-swap on ``(hash, running, owner,
        attempt)``: once a sibling has reclaimed the run (bumping the
        attempt counter), every renewal by the old holder fails — a paused-
        then-resumed instance discovers the loss instead of silently
        extending a lease it no longer holds.
        """
        ttl = extend if extend is not None else lease.ttl
        if ttl is None:
            return lease  # unmonitored claims don't expire, nothing to renew
        deadline = self.clock() + ttl
        cursor = self._db.execute(
            "UPDATE runs SET lease_deadline = ?, updated_at = ? "
            "WHERE hash = ? AND status = 'running' AND owner = ? "
            "AND attempts = ?",
            (deadline, time.time(), lease.run_hash, lease.owner, lease.attempt),
        )
        self._db.commit()
        if cursor.rowcount != 1:
            return None
        return replace(lease, deadline=deadline, ttl=ttl)

    def retry_lease(self, lease: Lease) -> Lease | None:
        """Start another attempt under the same owner (retry-with-backoff).

        Bumps the attempt counter and refreshes the deadline in one CAS;
        ``None`` means the lease was lost and the retry must not run.
        """
        deadline = self.clock() + lease.ttl if lease.ttl is not None else None
        cursor = self._db.execute(
            "UPDATE runs SET attempts = attempts + 1, lease_deadline = ?, "
            "updated_at = ? WHERE hash = ? AND status = 'running' "
            "AND owner = ? AND attempts = ?",
            (deadline, time.time(), lease.run_hash, lease.owner, lease.attempt),
        )
        self._db.commit()
        if cursor.rowcount != 1:
            return None
        return replace(lease, attempt=lease.attempt + 1, deadline=deadline)

    def release_lease(self, lease: Lease) -> bool:
        """Demote one *owned* in-flight run back to ``pending`` (resumable).

        The clean-interruption counterpart of :meth:`acquire_lease`: an
        instance that caught SIGTERM releases exactly the runs *it* holds.
        A lost lease releases nothing (the reclaimer owns the row now).
        """
        cursor = self._db.execute(
            "UPDATE runs SET status = 'pending', owner = NULL, "
            "lease_deadline = NULL, updated_at = ? "
            "WHERE hash = ? AND status = 'running' AND owner = ? "
            "AND attempts = ?",
            (time.time(), lease.run_hash, lease.owner, lease.attempt),
        )
        self._db.commit()
        return cursor.rowcount == 1

    def reclaim_expired(
        self,
        owner: str | None = None,
        ttl: float | None = None,
        quarantine_after: int | None = None,
    ) -> tuple[list[Lease], list[StoredRun]]:
        """Take over every run whose monitored lease has expired.

        For each expired ``running`` row, the dead owner is recorded as a
        failed instance and the row is either re-leased to ``owner`` (with
        the attempt counter bumped, so stale leases die) or — once
        ``quarantine_after`` *distinct* instances have failed it — moved to
        the terminal ``quarantined`` status with a structured error payload
        instead of being re-enqueued forever.  Returns
        ``(new leases, newly quarantined rows)``.

        Runs under an unmonitored claim (``lease_deadline`` NULL) are never
        reclaimed here; they belong to a legacy drainer and only a takeover
        sweep may demote them.
        """
        owner = owner or self.instance_id
        now = self.clock()
        leases: list[Lease] = []
        quarantined: list[StoredRun] = []
        self._db.execute("BEGIN IMMEDIATE")
        try:
            rows = self._db.execute(
                "SELECT hash, owner, attempts, failed_owners, error FROM runs "
                "WHERE status = 'running' AND lease_deadline IS NOT NULL "
                "AND lease_deadline < ?",
                (now,),
            ).fetchall()
            for run_hash, dead_owner, attempts, failed_owners, last_error in rows:
                owners = set(json.loads(failed_owners or "[]"))
                if dead_owner is not None:
                    owners.add(dead_owner)
                owners_json = json.dumps(sorted(owners))
                if quarantine_after is not None and len(owners) >= quarantine_after:
                    error = json.dumps(quarantine_payload(
                        f"lease expired on {len(owners)} distinct instance(s)",
                        sorted(owners), int(attempts), last_error,
                    ), sort_keys=True)
                    self._db.execute(
                        "UPDATE runs SET status = 'quarantined', owner = NULL, "
                        "lease_deadline = NULL, failed_owners = ?, error = ?, "
                        "updated_at = ? WHERE hash = ? AND attempts = ?",
                        (owners_json, error, time.time(), run_hash, attempts),
                    )
                else:
                    deadline = now + ttl if ttl is not None else None
                    self._db.execute(
                        "UPDATE runs SET owner = ?, attempts = attempts + 1, "
                        "lease_deadline = ?, failed_owners = ?, updated_at = ? "
                        "WHERE hash = ? AND attempts = ?",
                        (owner, deadline, owners_json, time.time(),
                         run_hash, attempts),
                    )
                    leases.append(
                        Lease(run_hash, owner, int(attempts) + 1, deadline, ttl)
                    )
            self._db.commit()
        except BaseException:
            self._db.rollback()
            raise
        for run_hash, *_rest in rows:
            stored = self.get(run_hash)
            if stored is not None and stored.status == "quarantined":
                quarantined.append(stored)
        return leases, quarantined

    # -- result transitions ------------------------------------------------

    def complete(
        self,
        run_hash: str,
        payload: dict,
        duration_s: float,
        lease: Lease | None = None,
    ) -> bool:
        """Record a successful payload; returns whether the write landed.

        With a ``lease``, the commit is guarded by the ownership CAS: an
        instance that lost its lease (reclaimed after a pause, drained, or
        requeued) gets ``False`` and **must** discard the result — this is
        what makes "exactly one stored payload" hold under failover.
        Payloads are stamped with the result schema version on the way in.
        """
        payload = attach_schema_version(payload)
        guard, params = "", ()
        if lease is not None:
            guard = " AND status = 'running' AND owner = ? AND attempts = ?"
            params = (lease.owner, lease.attempt)
        cursor = self._db.execute(
            "UPDATE runs SET status = 'done', payload_json = ?, error = NULL, "
            "lease_deadline = NULL, duration_s = ?, updated_at = ? "
            f"WHERE hash = ?{guard}",
            (canonical_payload(payload), float(duration_s), time.time(),
             run_hash, *params),
        )
        self._db.commit()
        return cursor.rowcount == 1

    def fail(
        self,
        run_hash: str,
        error: str,
        duration_s: float | None = None,
        lease: Lease | None = None,
        quarantine_after: int | None = None,
    ) -> str | None:
        """Record a failure; returns the resulting status.

        Without a lease this is the legacy unguarded write (always
        ``"failed"``).  With one, the write is ownership-CAS-guarded
        (``None`` = lease lost, nothing recorded) and the failing owner is
        added to the run's distinct-instance failure set; once that set
        reaches ``quarantine_after`` the run lands in the terminal
        ``quarantined`` status with a structured error payload instead of
        staying eligible for another claim.
        """
        if lease is None:
            self._db.execute(
                "UPDATE runs SET status = 'failed', error = ?, duration_s = ?, "
                "lease_deadline = NULL, updated_at = ? WHERE hash = ?",
                (error, duration_s, time.time(), run_hash),
            )
            self._db.commit()
            return "failed"
        self._db.execute("BEGIN IMMEDIATE")
        try:
            row = self._db.execute(
                "SELECT failed_owners FROM runs WHERE hash = ? "
                "AND status = 'running' AND owner = ? AND attempts = ?",
                (run_hash, lease.owner, lease.attempt),
            ).fetchone()
            if row is None:
                self._db.commit()
                return None
            owners = sorted(set(json.loads(row[0] or "[]")) | {lease.owner})
            status = "failed"
            stored_error = error
            if quarantine_after is not None and len(owners) >= quarantine_after:
                status = "quarantined"
                stored_error = json.dumps(quarantine_payload(
                    f"failed on {len(owners)} distinct instance(s)",
                    owners, lease.attempt, error,
                ), sort_keys=True)
            self._db.execute(
                "UPDATE runs SET status = ?, error = ?, duration_s = ?, "
                "owner = NULL, lease_deadline = NULL, failed_owners = ?, "
                "updated_at = ? WHERE hash = ? AND status = 'running' "
                "AND owner = ? AND attempts = ?",
                (status, stored_error, duration_s, json.dumps(owners),
                 time.time(), run_hash, lease.owner, lease.attempt),
            )
            self._db.commit()
            return status
        except BaseException:
            self._db.rollback()
            raise

    # -- quarantine operations ---------------------------------------------

    def quarantine(self, run_hash: str, reason: str) -> bool:
        """Force a run into the terminal quarantine (operator action)."""
        stored = self.get(run_hash)
        if stored is None or stored.status in ("done", "quarantined"):
            return False
        error = json.dumps(quarantine_payload(
            reason, sorted(set(stored.failed_owners)), stored.attempts,
            stored.error,
        ), sort_keys=True)
        cursor = self._db.execute(
            "UPDATE runs SET status = 'quarantined', owner = NULL, "
            "lease_deadline = NULL, error = ?, updated_at = ? "
            "WHERE hash = ? AND status NOT IN ('done', 'quarantined')",
            (error, time.time(), run_hash),
        )
        self._db.commit()
        return cursor.rowcount == 1

    def requeue_quarantined(self, run_hash: str) -> bool:
        """Lift a quarantine: back to ``pending`` with a clean failure slate."""
        cursor = self._db.execute(
            "UPDATE runs SET status = 'pending', owner = NULL, "
            "lease_deadline = NULL, error = NULL, failed_owners = '[]', "
            "updated_at = ? WHERE hash = ? AND status = 'quarantined'",
            (time.time(), run_hash),
        )
        self._db.commit()
        return cursor.rowcount == 1

    # -- sweeps ------------------------------------------------------------

    def reset_running(self) -> int:
        """Demote every ``running`` row to ``pending`` (takeover sweep).

        Single-drainer crash recovery only: in a fleet this would steal
        siblings' live leases — use :meth:`sweep_stale` there.
        """
        cursor = self._db.execute(
            "UPDATE runs SET status = 'pending', owner = NULL, "
            "lease_deadline = NULL, updated_at = ? WHERE status = 'running'",
            (time.time(),),
        )
        self._db.commit()
        return cursor.rowcount

    def sweep_stale(self) -> int:
        """Demote unmonitored or expired ``running`` rows; returns the count.

        The fleet-safe startup sweep: rows under a live monitored lease (a
        sibling instance heartbeating its deadline) are left alone; rows
        with no deadline (a crashed legacy drainer or pre-lease store) or an
        expired one are stale markers and go back to ``pending``.
        """
        cursor = self._db.execute(
            "UPDATE runs SET status = 'pending', owner = NULL, "
            "lease_deadline = NULL, updated_at = ? WHERE status = 'running' "
            "AND (lease_deadline IS NULL OR lease_deadline < ?)",
            (time.time(), self.clock()),
        )
        self._db.commit()
        return cursor.rowcount

    # -- eviction (result TTL) ---------------------------------------------

    def evict_older_than(
        self,
        age_s: float,
        statuses: tuple[str, ...] = ("done",),
        campaign: str | None = None,
        now: float | None = None,
    ) -> list[str]:
        """Delete terminal rows not updated for ``age_s`` seconds.

        Returns the evicted hashes so callers can clean per-run artifacts
        (event logs, checkpoint directories).  An evicted run re-registers
        as ``pending`` on resubmission and re-executes cleanly — eviction
        trades storage for recomputation, never correctness.
        """
        for status in statuses:
            if status in ("pending", "running"):
                raise CampaignError(
                    f"cannot evict {status!r} rows (not terminal)"
                )
            if status not in _STATUSES:
                raise CampaignError(f"unknown status {status!r}")
        if age_s < 0:
            raise CampaignError(f"eviction age must be >= 0, got {age_s}")
        cutoff = (now if now is not None else time.time()) - float(age_s)
        placeholders = ", ".join("?" for _ in statuses)
        clause = f"status IN ({placeholders}) AND updated_at < ?"
        params: list = [*statuses, cutoff]
        if campaign is not None:
            clause += " AND campaign = ?"
            params.append(campaign)
        rows = self._db.execute(
            f"SELECT hash FROM runs WHERE {clause}", tuple(params)
        ).fetchall()
        self._db.execute(f"DELETE FROM runs WHERE {clause}", tuple(params))
        self._db.commit()
        return [row[0] for row in rows]

    # -- instance heartbeats -----------------------------------------------

    def heartbeat_instance(
        self, instance_id: str | None = None, ttl: float = 30.0
    ) -> None:
        """Record this instance as live until ``ttl`` seconds from now."""
        instance_id = instance_id or self.instance_id
        now = self.clock()
        self._db.execute(
            "INSERT INTO instances (id, started_at, last_seen, deadline) "
            "VALUES (?, ?, ?, ?) ON CONFLICT(id) DO UPDATE SET "
            "last_seen = excluded.last_seen, deadline = excluded.deadline",
            (instance_id, time.time(), now, now + float(ttl)),
        )
        self._db.commit()

    def live_instances(self) -> list[str]:
        """Instance ids whose heartbeat deadline has not passed."""
        rows = self._db.execute(
            "SELECT id FROM instances WHERE deadline >= ? ORDER BY id",
            (self.clock(),),
        ).fetchall()
        return [row[0] for row in rows]

    def prune_instances(self, older_than: float = 3600.0) -> int:
        """Drop instance rows dead for more than ``older_than`` seconds."""
        cursor = self._db.execute(
            "DELETE FROM instances WHERE deadline < ?",
            (self.clock() - float(older_than),),
        )
        self._db.commit()
        return cursor.rowcount

    # -- summaries ---------------------------------------------------------

    def status_counts(self, campaign: str | None = None) -> dict[str, int]:
        """Row counts per status (all statuses present, zero-filled)."""
        if campaign is None:
            rows = self._db.execute(
                "SELECT status, COUNT(*) FROM runs GROUP BY status"
            ).fetchall()
        else:
            rows = self._db.execute(
                "SELECT status, COUNT(*) FROM runs WHERE campaign = ? GROUP BY status",
                (campaign,),
            ).fetchall()
        counts = {status: 0 for status in _STATUSES}
        counts.update({status: int(count) for status, count in rows})
        return counts

    def campaigns(self) -> list[str]:
        """Distinct campaign names present in the store."""
        rows = self._db.execute(
            "SELECT DISTINCT campaign FROM runs ORDER BY campaign"
        ).fetchall()
        return [row[0] for row in rows]
