"""Process-level chaos harness: real server fleets, real SIGKILLs.

Where :mod:`repro.faults.plan` injects faults *inside* one simulation, this
module injects them *between* processes: it launches genuine
``python -m repro serve`` instances against one shared run store, lets a
test (or an operator rehearsing failover) kill the instance that owns a
run, and exposes enough introspection — per-instance clients, owner lookup
by store lease, captured logs — to prove the survivors finish the work
with a byte-identical digest and exactly one stored payload.

Nothing here is test-framework specific; ``tests/service/fleet/`` and the
CI ``fleet-smoke`` job drive the same classes.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from ..errors import ServiceError

__all__ = ["Fleet", "ServerProcess", "free_port", "owner_pid"]

#: Seconds :meth:`ServerProcess.wait_ready` polls before giving up.
READY_TIMEOUT_S = 30.0

#: Seconds :meth:`Fleet.stop` gives a SIGKILLed server's descendants to exit.
ORPHAN_GRACE_S = 5.0


def free_port() -> int:
    """An OS-assigned free TCP port (racy by nature, fine for tests)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def owner_pid(instance_id: str) -> int | None:
    """The OS pid embedded in a store instance id (``host-pid-nonce``)."""
    parts = instance_id.split("-")
    if len(parts) < 3:
        return None
    try:
        return int(parts[-2])
    except ValueError:
        return None


def _running_ppid(pid: int) -> int | None:
    """Parent of a running process per ``/proc``; ``None`` once it is gone
    (an unreaped zombie counts as gone)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    state, ppid = stat.rpartition(")")[2].split()[:2]
    return None if state == "Z" else int(ppid)


def descendant_pids(root: int) -> list[int]:
    """Running descendants of ``root`` per ``/proc`` (none where it is absent)."""
    children: dict[int, list[int]] = {}
    for entry in Path("/proc").glob("[0-9]*"):
        ppid = _running_ppid(int(entry.name))
        if ppid is not None:
            children.setdefault(ppid, []).append(int(entry.name))
    found: list[int] = []
    frontier = [root]
    while frontier:
        kids = children.get(frontier.pop(), [])
        found += kids
        frontier += kids
    return found


class ServerProcess:
    """One real ``repro serve`` child process.

    The child is started with ``-u`` (unbuffered) and its stdout+stderr
    captured to a log file, so a failed chaos test can show what the
    instance was doing when it died.
    """

    def __init__(
        self,
        store_dir: str | Path,
        port: int | None = None,
        *,
        workers: int = 1,
        lease_ttl: float = 2.0,
        reap_interval: float | None = 0.5,
        max_attempts: int = 3,
        checkpoint_every: int = 0,
        run_timeout: float | None = None,
        retries: int = 0,
        log_dir: str | Path | None = None,
        name: str = "server",
        extra_args: list[str] | None = None,
    ) -> None:
        self.store_dir = str(store_dir)
        self.port = port if port is not None else free_port()
        self.name = name
        self.log_path = (
            Path(log_dir) / f"{name}.log" if log_dir is not None else None
        )
        self._log_handle = None
        args = [
            sys.executable, "-u", "-m", "repro", "serve",
            "--host", "127.0.0.1",
            "--port", str(self.port),
            "--dir", self.store_dir,
            "--workers", str(workers),
            "--retries", str(retries),
            "--lease-ttl", str(lease_ttl),
            "--max-attempts", str(max_attempts),
        ]
        if reap_interval is not None:
            args += ["--reap-interval", str(reap_interval)]
        if checkpoint_every:
            args += ["--checkpoint-every", str(checkpoint_every)]
        if run_timeout is not None:
            args += ["--timeout", str(run_timeout)]
        if extra_args:
            args += list(extra_args)
        self.args = args
        self.process: subprocess.Popen | None = None
        #: Descendants (pool children) that were running when :meth:`sigkill`
        #: struck; they must notice and exit on their own.
        self.orphaned: list[int] = []

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ServerProcess":
        if self.process is not None:
            raise ServiceError(f"{self.name} already started")
        stdout = subprocess.DEVNULL
        if self.log_path is not None:
            self.log_path.parent.mkdir(parents=True, exist_ok=True)
            self._log_handle = open(self.log_path, "ab")
            stdout = self._log_handle
        env = dict(os.environ)
        env.setdefault(
            "PYTHONPATH", str(Path(__file__).resolve().parents[2])
        )
        self.process = subprocess.Popen(
            self.args, stdout=stdout, stderr=subprocess.STDOUT, env=env
        )
        return self

    @property
    def pid(self) -> int:
        if self.process is None:
            raise ServiceError(f"{self.name} is not running")
        return self.process.pid

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    def client(self):
        from ..service.client import ServiceClient

        return ServiceClient(port=self.port)

    def wait_ready(self, timeout: float = READY_TIMEOUT_S) -> None:
        """Block until ``/healthz`` answers (the listener is up)."""
        deadline = time.monotonic() + timeout
        client = self.client()
        while time.monotonic() < deadline:
            if not self.alive:
                raise ServiceError(
                    f"{self.name} exited with {self.process.returncode} "
                    f"before becoming ready{self._log_tail()}"
                )
            try:
                if client.health().ok:
                    return
            except OSError:
                pass
            time.sleep(0.05)
        raise ServiceError(
            f"{self.name} not ready after {timeout}s{self._log_tail()}"
        )

    # -- chaos -------------------------------------------------------------

    def sigkill(self) -> None:
        """Kill the instance without any chance to clean up (the chaos move)."""
        if self.process is None:
            raise ServiceError(f"{self.name} is not running")
        self.orphaned = descendant_pids(self.pid)
        self.process.send_signal(signal.SIGKILL)
        self.process.wait(timeout=10)

    def surviving_orphans(self) -> list[int]:
        """Descendants of a SIGKILLed instance that are still running."""
        return [pid for pid in self.orphaned if _running_ppid(pid) is not None]

    def terminate(self, timeout: float = 15.0) -> int | None:
        """Graceful SIGTERM shutdown; returns the exit code."""
        if self.process is None:
            return None
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10)
        if self._log_handle is not None:
            self._log_handle.close()
            self._log_handle = None
        return self.process.returncode

    def logs(self) -> str:
        if self.log_path is None or not self.log_path.exists():
            return ""
        return self.log_path.read_text(errors="replace")

    def _log_tail(self, lines: int = 20) -> str:
        tail = "\n".join(self.logs().splitlines()[-lines:])
        return f"\nlast log lines:\n{tail}" if tail else ""


class Fleet:
    """N server processes over one shared run store."""

    def __init__(
        self,
        store_dir: str | Path,
        size: int = 2,
        log_dir: str | Path | None = None,
        **server_kwargs,
    ) -> None:
        self.store_dir = str(store_dir)
        self.servers = [
            ServerProcess(
                store_dir, log_dir=log_dir, name=f"server-{i}", **server_kwargs
            )
            for i in range(size)
        ]

    def start(self) -> "Fleet":
        for server in self.servers:
            server.start()
        for server in self.servers:
            server.wait_ready()
        return self

    def stop(self) -> None:
        """Terminate every instance; a killed one's descendants must be gone.

        An orphan that outlives its server keeps executing -- and
        checkpointing -- a run a sibling has reclaimed, so one left after
        :data:`ORPHAN_GRACE_S` is killed and reported as an error.
        """
        for server in self.servers:
            server.terminate()
        deadline = time.monotonic() + ORPHAN_GRACE_S
        while True:
            orphans = [p for server in self.servers for p in server.surviving_orphans()]
            if not orphans or time.monotonic() >= deadline:
                break
            time.sleep(0.05)
        for pid in orphans:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if orphans:
            raise ServiceError(
                f"descendants of a SIGKILLed server outlived it: pids {orphans}"
            )

    def __enter__(self) -> "Fleet":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()

    @property
    def alive(self) -> list[ServerProcess]:
        return [server for server in self.servers if server.alive]

    def owner_of(self, run_hash: str) -> ServerProcess | None:
        """The fleet member whose lease currently covers ``run_hash``.

        Resolved through the store: the lease's owner id embeds the OS pid
        (``host-pid-nonce``), which is matched against the children.
        """
        from ..campaign.store import RunStore

        with RunStore(self.store_dir) as store:
            stored = store.get(run_hash)
        if stored is None or stored.owner is None:
            return None
        pid = owner_pid(stored.owner)
        if pid is None:
            return None
        for server in self.servers:
            if server.process is not None and server.process.pid == pid:
                return server
        return None

    def wait_for_owner(
        self, run_hash: str, timeout: float = 15.0
    ) -> ServerProcess:
        """Block until some instance holds the run's lease; returns it."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            owner = self.owner_of(run_hash)
            if owner is not None:
                return owner
            time.sleep(0.05)
        raise ServiceError(
            f"no fleet member took ownership of {run_hash} within {timeout}s"
        )

    def kill_owner(self, run_hash: str, timeout: float = 15.0) -> ServerProcess:
        """SIGKILL the instance owning ``run_hash``; returns the victim."""
        owner = self.wait_for_owner(run_hash, timeout=timeout)
        owner.sigkill()
        return owner
