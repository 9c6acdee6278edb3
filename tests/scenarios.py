"""The product scenarios, written once: CI runs them and so does the
reachability pass.

Run from the repository root::

    python tests/scenarios.py --group chaos              # in a temp directory
    python tests/scenarios.py --group chaos --workdir D  # in D, kept afterwards

A group is a list of :class:`Scenario` steps run in order in one scratch
directory, which is also the working directory of every step and check
(later steps read what earlier ones wrote). The exit status is 1 on the
first step that exits with the wrong status or whose check fails; the
runner then prints the tail of that step's output and of its server logs,
and keeps the directory.

Stdlib only, apart from the package under test and ``tests/chaos.py``. The
file name keeps pytest from collecting it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sqlite3
import subprocess
import sys
import tempfile
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro import api
from repro.campaign import RunStore
from repro.config import RunConfig
from repro.obs import read_events, validate_events, validate_trace
from repro.service import ServiceClient

if __package__:
    from .chaos import Fleet, free_port
else:  # run as a script
    from chaos import Fleet, free_port

#: Seconds a server gets to exit after its drive sends SIGTERM.
STOP_TIMEOUT_S = 10.0

#: Lines of a failed step's output (and of each server log) printed.
TAIL_LINES = 40


@dataclass(frozen=True)
class Scenario:
    """One step of a group.

    ``argv`` runs with the group directory as working directory; a
    ``{port}`` token becomes a free TCP port. An empty ``argv`` makes a
    check-only step. ``stdout`` names a file to receive the step's stdout
    (``--json > first.json``). ``setup`` runs before the step and ``check``
    after it exits with ``expect``. ``drive`` makes the step a background
    process: it is called with the running ``Popen`` and must make the
    process exit (SIGTERM a server, SIGKILL a campaign). ``logs`` are globs
    of server logs printed when the step fails.
    """

    label: str
    argv: tuple[str, ...]
    expect: int = 0
    setup: Callable[[], None] | None = None
    check: Callable[[], None] | None = None
    drive: Callable[[subprocess.Popen], None] | None = None
    stdout: str | None = None
    logs: tuple[str, ...] = ()


def repro(*args: str) -> tuple[str, ...]:
    return (sys.executable, "-m", "repro", *args)


def script(path: str, *args: str) -> tuple[str, ...]:
    return (sys.executable, str(REPO / path), *args)


def load(name: str):
    with open(name) as handle:
        return json.load(handle)


# -- obs: the trace and metrics exporters -----------------------------------------


def check_trace_and_metrics() -> None:
    payload = load("trace.json")
    validate_trace(payload)
    events = payload["traceEvents"]
    spans = {e["name"] for e in events if e["ph"] == "X"}
    assert {"force", "halo-comm"} <= spans, spans
    tracks = {e["tid"] for e in events if e["ph"] == "X" and e["pid"] == 0}
    assert len(tracks) >= 9, tracks
    # Every cell migration is drawn on its source and destination PE.
    instants = [e for e in events if e["ph"] == "i" and e["pid"] == 0]
    sent = [e for e in instants if e["name"].startswith("migrate cell")]
    received = [e for e in instants if e["name"].startswith("receive cell")]
    assert sent and len(sent) == len(received), (len(sent), len(received))
    # The host track carries one span per host scope the profile counts.
    host = {}
    for e in events:
        if e["ph"] == "X" and e["pid"] == 1000:
            host[e["name"]] = host.get(e["name"], 0) + 1
    assert {"accounting.account_step", "force.accumulate"} <= set(host), host

    with open("run.out") as handle:
        out = handle.read()
    assert "host kernel profile (wall clock)" in out, out[-2000:]
    profiled = {}
    for line in out.splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        if len(cells) == 5 and cells[0] in host:
            profiled[cells[0]] = int(cells[1])
    assert profiled == host, (profiled, host)

    with open("metrics.prom") as handle:
        text = handle.read()
    for family in ("repro_steps_total", "repro_neighbor_rebuilds_total",
                   "repro_traffic_bytes_total", "repro_dlb_rounds_total",
                   "repro_cell_migrations_total", "repro_host_kernel_seconds",
                   "repro_imbalance_ratio_mean"):
        assert family in text, family
    print("observability smoke run OK:", len(events), "trace events,",
          len(sent), "migrations,", sum(host.values()), "host spans")


# -- ledger: digest / energy-drift / audit checks, tracer wrap targets ------------


def check_ledger_md_spans() -> None:
    # The tracer finds the pair kernel through a seam kept for it in
    # repro.md.kernels; an edit that detaches it must fail here. One kernel
    # span per force evaluation: hoisting the block loop out of the wrapped
    # NumpyKernel.evaluate would multiply or zero the first. Likewise one
    # pair-search span per force evaluation: the tracer wraps
    # VerletList.candidates by name, so routing the search around it must
    # fail here instead of zeroing the md.pair_search layer.
    workloads = load("ledger-smoke.json")["workloads"]
    for name in ("md_kdtree", "md_verlet"):
        layers = workloads[name]["per_layer"]
        kernel, force = layers["md.kernel.calls"]["values"], layers["md.force.calls"]["values"]
        search = layers["md.pair_search.calls"]["values"]
        assert min(kernel) > 0, name + ": tracer lost the pair kernel"
        assert kernel == force, name + ": kernel spans != force evaluations"
        assert min(search) > 0, name + ": tracer lost the pair search"
        assert search == force, name + ": pair-search spans != force evaluations"


def check_ledger_driven_spans() -> None:
    # A refactor that routes a balancer round around a wrapped name
    # (DynamicLoadBalancer.step, StepAccountant.charge_moves,
    # CellAssignment.transfer, repro.core.accounting.compute_halo,
    # ComputeCostModel.per_pe_work) must fail here, not zero a ledger layer.
    layers = load("ledger-smoke-driven.json")["workloads"]["driven_sweep"]["per_layer"]
    for name in ("dlb.decide.calls", "core.charge_moves.calls", "decomp.transfer.calls",
                 "decomp.halo.calls", "parallel.cost_model.calls"):
        assert min(layers[name]["values"]) > 0, "tracer lost " + name


# -- campaign: interrupt / resume / SIGKILL ----------------------------------------


def check_campaign_resume() -> None:
    first = load("first.json")
    resumed = load("resumed.json")
    replay = load("replay.json")
    reference = load("reference.json")

    assert first["interrupted"] and first["completed"] == 2, first
    # Resume executes only the remainder: the interrupted prefix is served
    # from the store.
    assert resumed["cached"] == first["completed"], resumed
    assert resumed["completed"] == first["total"] - first["completed"]
    assert resumed["failed"] == 0, resumed
    # Re-running the finished campaign recomputes nothing: 100% hits.
    assert replay["cached"] == replay["total"] == 6, replay
    assert replay["completed"] == 0, replay
    assert reference["completed"] == 6, reference

    assert load("report_resumed.json") == load("report_reference.json")
    print("campaign smoke OK: resume had", resumed["cached"],
          "cache hits and the reports match")


def kill_after_first_run(campaign: subprocess.Popen) -> None:
    """SIGKILL the campaign once its first run is stored."""
    deadline = time.monotonic() + 120
    while True:
        try:
            db = sqlite3.connect("file:killed/campaign.sqlite?mode=ro", uri=True)
            done = db.execute(
                "SELECT COUNT(*) FROM runs WHERE status = 'done'"
            ).fetchone()[0]
            db.close()
        except sqlite3.Error:
            done = 0
        if done:
            break
        assert time.monotonic() < deadline, "no run finished"
        time.sleep(0.005)
    campaign.kill()


def record_rows_at_kill() -> None:
    with RunStore("killed") as store:
        rows = {row.hash: [row.status, row.attempts, row.payload_json]
                for row in store.runs("smoke")}
    with open("killed_rows.json", "w") as handle:
        json.dump(rows, handle)


def check_campaign_sigkill() -> None:
    before = load("killed_rows.json")
    resumed = load("killed_resumed.json")
    statuses = sorted(status for status, _, _ in before.values())
    print("at kill -9:", statuses)
    done_before = {h: row for h, row in before.items() if row[0] == "done"}
    assert done_before, before

    with RunStore("killed") as store:
        rows = {row.hash: row for row in store.runs("smoke")}
    assert len(rows) == 6 and all(r.status == "done" for r in rows.values())
    # No payload stored twice: what was done at the kill is served from the
    # store untouched, and resume computed only the rest.
    for run_hash, (_, attempts, payload_json) in done_before.items():
        assert rows[run_hash].attempts == attempts, run_hash
        assert rows[run_hash].payload_json == payload_json, run_hash
    assert resumed["cached"] == len(done_before), resumed
    assert resumed["completed"] == 6 - len(done_before), resumed
    assert resumed["failed"] == 0, resumed

    assert load("report_killed.json") == load("report_reference.json")
    print("campaign SIGKILL smoke OK:", len(done_before),
          "runs kept, the rest reclaimed and finished")


# -- chaos: fault injection, kill -> resume, flight recorder -----------------------

FAULT_PLAN = {
    "seed": 11,
    "slowdowns": [{"pe": 4, "factor": 2.0}],
    "jitter": 0.05,
    "messages": [{"tag": "*", "loss": 0.2, "delay_prob": 0.2, "delay": 0.005}],
    "timing": {"drop": 0.3, "max_staleness": 2},
}

FAULTED = ("--balancer", "permanent", "--steps", "40", "--record-interval", "1",
           "--faults", "plan.json", "--audit-invariants")
EARLY = ("--balancer", "permanent", "--steps", "20")


def write_fault_plan() -> None:
    with open("plan.json", "w") as handle:
        json.dump(FAULT_PLAN, handle)


def check_faulted_resume() -> None:
    full = load("full.json")["runs"]["permanent"]
    killed = load("killed.json")
    resumed = load("resumed.json")["runs"]["permanent"]

    assert killed["killed_at"] == 25, killed
    # Kill-at-k -> resume is bit-identical to the uninterrupted faulted run,
    # and the auditor saw zero invariant violations.
    assert resumed["digest"] == full["digest"], (resumed, full)
    assert full["audit"]["violations"] == 0, full["audit"]
    assert resumed["audit"]["violations"] == 0, resumed["audit"]
    assert resumed["steps_run"] == full["steps_run"] == 40
    print("chaos smoke OK: resumed digest", resumed["digest"][:16],
          "matches the uninterrupted run")


def check_early_resume() -> None:
    # --kill-after below the default --record-interval (20): the killed run
    # has recorded no step, yet it must still exit 3 and resume.
    killed = load("early-killed.json")
    assert killed["killed_at"] == 10, killed
    assert killed["runs"]["permanent"]["summary"] is None, killed
    full = load("early-full.json")["runs"]["permanent"]["digest"]
    resumed = load("early-resumed.json")["runs"]["permanent"]["digest"]
    assert resumed == full, (resumed, full)
    print("early-kill smoke OK: resumed digest", resumed[:16])


def check_event_logs() -> None:
    # The resumed run's event log restores the checkpointed buffer and must
    # come out byte-identical to the uninterrupted run's; the sim channel
    # must not depend on the execution engine, even under fault injection.
    full = Path("full.events.jsonl").read_bytes()
    assert Path("resumed.events.jsonl").read_bytes() == full, "resumed log differs"
    assert Path("multiprocess.events.jsonl").read_bytes() == full, "engine log differs"
    for stem in ("full", "resumed", "multiprocess"):
        records = read_events(f"{stem}.events.jsonl")
        validate_events(records)
        validate_events(read_events(f"{stem}.events.host.jsonl"),
                        source=f"{stem} host log")
    print("flight recorder schema OK:", len(records), "sim events")


# -- engine: sequential vs multiprocess bit identity -------------------------------

ENGINE = ("--balancer", "permanent", "--steps", "40", "--record-interval", "1")


def check_engine_digests() -> None:
    sequential = load("sequential.json")["runs"]["permanent"]
    multiprocess = load("multiprocess.json")["runs"]["permanent"]
    killed = load("killed.json")
    resumed = load("resumed.json")["runs"]["permanent"]

    # Engines never change the physics.
    assert multiprocess["digest"] == sequential["digest"], (
        multiprocess["digest"], sequential["digest"])
    assert multiprocess["meta"]["engine"] == "multiprocess"
    assert multiprocess["meta"]["engine_workers"] == 4

    # Kill-at-25 -> resume under the multiprocess engine is bit-identical to
    # the uninterrupted multiprocess (== sequential) run.
    assert killed["killed_at"] == 25, killed
    assert resumed["digest"] == sequential["digest"], (
        resumed["digest"], sequential["digest"])
    assert resumed["steps_run"] == sequential["steps_run"] == 40
    print("engine smoke OK: multiprocess digest", multiprocess["digest"][:16],
          "matches sequential, resume matches too")


def check_classic_vs_engine() -> None:
    # One force pass for every path: one run digest after 40 steps.
    run = RunConfig(steps=40, seed=1)
    digests = {
        label: api.simulate("fig5b-scaled", run=run, engine=engine,
                            engine_workers=workers).digest()
        for label, engine, workers in (
            ("classic", None, None),
            ("sequential", "sequential", None),
            ("multiprocess-4", "multiprocess", 4),
        )
    }
    assert len(set(digests.values())) == 1, digests
    print("digest", digests["classic"][:16], "identical with and without an engine")


# -- service: serve, submit, poll, dedupe, SIGTERM ---------------------------------


def drive_service(server: subprocess.Popen) -> None:
    client = ServiceClient(port=int(server.args[server.args.index("--port") + 1]))
    for _ in range(50):  # wait for the listener
        try:
            client.health().raise_for_status()
            break
        except OSError:
            time.sleep(0.2)
    assert client.ready().status == 200

    spec = {"kind": "preset", "preset": "fig5b-scaled",
            "mode": "dlb", "n_steps": 40, "seed": 3}
    accepted = client.submit(spec)
    assert accepted.status == 202, accepted.body
    run_id = accepted.body["run_id"]
    payload = client.wait(run_id, timeout=300)
    assert payload["status"] == "done", payload
    digest = payload["payload"]["digest"]

    # Identical resubmission: served from the store, no re-execution.
    again = client.submit(spec)
    assert again.status == 200 and again.body["cached"], again.body
    served = client.result(run_id).raise_for_status().body
    assert served["payload"]["digest"] == digest
    metrics = client.metrics()
    assert "repro_service_dedup_hits_total 1" in metrics

    print("service smoke OK: run", run_id, "digest", digest[:16],
          "deduplicated on resubmission")
    server.send_signal(signal.SIGTERM)


# -- fleet: SIGKILL the lease owner, the survivor finishes -------------------------


def check_fleet_failover() -> None:
    # Two instances share one store; the owner of a fig5 run is SIGKILLed
    # after the first of nine checkpoints lands (so the kill cannot race the
    # end of the run however fast a step is), and the survivor must reclaim
    # the lease, resume and commit the uninterrupted run's digest, having
    # reclaimed exactly one run.
    reference = load("reference.json")["runs"]["permanent"]["digest"]
    spec = {"kind": "preset", "preset": "fig5b-scaled",
            "mode": "dlb", "n_steps": 90, "seed": 3}

    with Fleet("store", size=2, log_dir="logs", lease_ttl=2.0,
               reap_interval=0.5, checkpoint_every=10,
               max_attempts=3) as fleet:
        client = fleet.servers[0].client()
        accepted = client.submit(spec)
        assert accepted.status == 202, accepted.body
        run_id = accepted.body["run_id"]

        owner = fleet.wait_for_owner(run_id, timeout=60)
        checkpoints = Path("store") / "checkpoints" / run_id
        deadline = time.monotonic() + 120
        while not any(checkpoints.glob("ckpt-*.pkl")):
            assert time.monotonic() < deadline, "no checkpoint landed"
            time.sleep(0.05)
        owner.sigkill()
        print("SIGKILLed owner", owner.name, "pid", owner.pid)

        survivor = fleet.alive[0]
        result = survivor.client().wait(run_id, timeout=300)
        assert result["status"] == "done", result
        digest = result["payload"]["digest"]
        assert digest == reference, (digest, reference)
        metrics = survivor.client().metrics()
        assert "repro_service_reclaimed_runs_total 1" in metrics

    with RunStore("store") as store:
        stored = store.get(run_id)
    assert stored.status == "done" and stored.attempts == 2, (
        stored.status, stored.attempts)
    assert len(stored.failed_owners) == 1, stored.failed_owners
    print("fleet smoke OK: survivor", survivor.name, "resumed run",
          run_id, "with byte-identical digest", digest[:16])


# -- the table ---------------------------------------------------------------------

#: Every product scenario, by group.
SCENARIOS: dict[str, list[Scenario]] = {
    "obs": [
        Scenario("run --trace --metrics --profile", repro(
            "run", "quickstart", "--balancer", "permanent", "--steps", "30",
            "--trace", "trace.json", "--metrics", "metrics.prom", "--profile"),
            stdout="run.out", check=check_trace_and_metrics),
    ],
    "balancers": [
        # The report must render a table per grid point and `permanent` must
        # beat the static `none` baseline on the clustered workload.
        Scenario("balancer matrix --quick",
                 (sys.executable, "-m", "repro.experiments.balancer_matrix", "--quick")),
    ],
    "ledger": [
        Scenario("ledger --quick md_kdtree md_verlet", script(
            "ledger/run.py", "--quick", "--workload", "md_kdtree",
            "--workload", "md_verlet", "--out", "ledger-smoke.json"),
            check=check_ledger_md_spans),
        Scenario("ledger --quick driven_sweep service_mix", script(
            "ledger/run.py", "--quick", "--workload", "driven_sweep",
            "--workload", "service_mix", "--out", "ledger-smoke-driven.json"),
            check=check_ledger_driven_spans),
        # Untraced: a traced 5-step md_engine falls below its own 95 %
        # root-coverage check, so every workload runs once without the tracer.
        Scenario("ledger --quick --no-trace", script(
            "ledger/run.py", "--quick", "--no-trace", "--out", "ledger-untraced.json")),
    ],
    "campaign": [
        Scenario("campaign run --max-runs 2", repro(
            "campaign", "run", "smoke", "--dir", "store", "--workers", "2",
            "--max-runs", "2", "--json"), stdout="first.json"),
        Scenario("campaign resume", repro(
            "campaign", "resume", "smoke", "--dir", "store", "--workers", "2",
            "--json"), stdout="resumed.json"),
        Scenario("campaign run (all cached)", repro(
            "campaign", "run", "smoke", "--dir", "store", "--workers", "2",
            "--json"), stdout="replay.json"),
        Scenario("campaign run (text summary)", repro(
            "campaign", "run", "smoke", "--dir", "store", "--workers", "2")),
        Scenario("campaign run (uninterrupted reference)", repro(
            "campaign", "run", "smoke", "--dir", "reference", "--workers", "2",
            "--json"), stdout="reference.json"),
        Scenario("campaign report (text)", repro(
            "campaign", "report", "smoke", "--dir", "store")),
        Scenario("campaign report resumed", repro(
            "campaign", "report", "smoke", "--dir", "store", "--json"),
            stdout="report_resumed.json"),
        Scenario("campaign report reference", repro(
            "campaign", "report", "smoke", "--dir", "reference", "--json"),
            stdout="report_reference.json", check=check_campaign_resume),
        # kill -9 once the first run is done, then resume in a fresh process.
        # The killed process's in-flight runs keep their leases until those
        # expire, so resume waits up to one lease TTL (30 s) plus one reap
        # interval (10 s) before its reaper reclaims and finishes them.
        Scenario("campaign run, SIGKILL after the first run", repro(
            "campaign", "run", "smoke", "--dir", "killed", "--workers", "2",
            "--json"), expect=-signal.SIGKILL, drive=kill_after_first_run,
            stdout="killed.json", check=record_rows_at_kill),
        Scenario("campaign resume after SIGKILL", repro(
            "campaign", "resume", "smoke", "--dir", "killed", "--workers", "2",
            "--json"), stdout="killed_resumed.json"),
        Scenario("campaign report after SIGKILL", repro(
            "campaign", "report", "smoke", "--dir", "killed", "--json"),
            stdout="report_killed.json", check=check_campaign_sigkill),
    ],
    "chaos": [
        Scenario("run faulted", repro(
            "run", "quickstart", *FAULTED, "--events", "full.events.jsonl",
            "--result-json", "full.json"), setup=write_fault_plan),
        Scenario("run faulted --kill-after 25", repro(
            "run", "quickstart", *FAULTED, "--checkpoint-dir", "ck",
            "--checkpoint-every", "10", "--kill-after", "25",
            "--events", "killed.events.jsonl", "--result-json", "killed.json"),
            expect=3),
        Scenario("run faulted --resume", repro(
            "run", "quickstart", *FAULTED, "--resume", "ck",
            "--events", "resumed.events.jsonl", "--result-json", "resumed.json"),
            check=check_faulted_resume),
        Scenario("run, default record interval", repro(
            "run", "quickstart", *EARLY, "--result-json", "early-full.json")),
        Scenario("run --kill-after 10, before the first record", repro(
            "run", "quickstart", *EARLY, "--checkpoint-dir", "ck-early",
            "--checkpoint-every", "5", "--kill-after", "10",
            "--result-json", "early-killed.json"), expect=3),
        Scenario("run --resume, before the first record", repro(
            "run", "quickstart", *EARLY, "--resume", "ck-early",
            "--result-json", "early-resumed.json"), check=check_early_resume),
        Scenario("run faulted multiprocess", repro(
            "run", "quickstart", *FAULTED, "--engine", "multiprocess",
            "--engine-workers", "2", "--events", "multiprocess.events.jsonl"),
            check=check_event_logs),
        Scenario("events summary", repro("events", "summary", "full.events.jsonl")),
        Scenario("events tail", repro("events", "tail", "full.events.jsonl")),
        # Every logged balancer decision replays bit-exactly (exit 1 on
        # divergence), for the paper's protocol and for the rivals whose
        # rules go through the same replay path.
        Scenario("explain permanent", repro("explain", "full.events.jsonl")),
        Scenario("run diffusion --events", repro(
            "run", "quickstart", "--steps", "40", "--balancer", "diffusion",
            "--events", "diff.events.jsonl")),
        Scenario("explain diffusion", repro("explain", "diff.events.jsonl")),
        Scenario("run sfc --events", repro(
            "run", "quickstart", "--steps", "40", "--balancer", "sfc",
            "--events", "sfc.events.jsonl")),
        Scenario("explain sfc", repro("explain", "sfc.events.jsonl")),
    ],
    "engine": [
        Scenario("run sequential engine", repro(
            "run", "fig5b-scaled", *ENGINE, "--engine", "sequential",
            "--result-json", "sequential.json")),
        Scenario("run multiprocess engine", repro(
            "run", "fig5b-scaled", *ENGINE, "--engine", "multiprocess",
            "--engine-workers", "4", "--result-json", "multiprocess.json")),
        Scenario("run multiprocess --kill-after 25", repro(
            "run", "fig5b-scaled", *ENGINE, "--engine", "multiprocess",
            "--engine-workers", "4", "--checkpoint-dir", "ck",
            "--checkpoint-every", "10", "--kill-after", "25",
            "--result-json", "killed.json"), expect=3),
        Scenario("run multiprocess --resume", repro(
            "run", "fig5b-scaled", *ENGINE, "--engine", "multiprocess",
            "--engine-workers", "4", "--resume", "ck",
            "--result-json", "resumed.json"), check=check_engine_digests),
        Scenario("classic vs engine digest", (),
                 check=check_classic_vs_engine),
    ],
    "service": [
        Scenario("serve, submit, poll, dedupe, SIGTERM", repro(
            "serve", "--port", "{port}", "--dir", "store", "--workers", "2"),
            drive=drive_service),
    ],
    "fleet": [
        Scenario("reference digest (uninterrupted direct run)", repro(
            "run", "fig5b-scaled", "--balancer", "permanent", "--steps", "90",
            "--seed", "3", "--record-interval", "1", "--result-json", "reference.json")),
        Scenario("two-instance fleet, SIGKILL the owner", (),
                 check=check_fleet_failover, logs=("logs/*.log",)),
    ],
    "verbs": [
        Scenario("presets", repro("presets")),
        Scenario("run default balancers", repro("run", "bench-m2", "--steps", "40")),
        Scenario("sweep", repro(
            "sweep", "--m", "2", "--pes", "9", "--reps", "1", "--steps", "60")),
        Scenario("campaign list", repro("campaign", "list")),
        Scenario("campaign run (fills the store)", repro(
            "campaign", "run", "smoke", "--max-runs", "1", "--dir", "store")),
        Scenario("campaign status", repro("campaign", "status", "--dir", "store")),
        Scenario("campaign gc", repro(
            "campaign", "gc", "--older-than", "7d", "--dir", "store")),
        Scenario("bounds", repro("bounds")),
        Scenario("calibrate", repro("calibrate", "--particles", "512", "--repeats", "1")),
        Scenario("runs quarantine", repro("runs", "quarantine", "--dir", "store")),
        Scenario("runs requeue (not quarantined)", repro(
            "runs", "requeue", "0000000000000000", "--dir", "store"), expect=2),
    ],
    "examples": [
        Scenario("examples/quickstart.py", script("examples/quickstart.py")),
        Scenario("examples/serial_argon_md.py", script("examples/serial_argon_md.py")),
        Scenario("examples/load_balancing_comparison.py",
                 script("examples/load_balancing_comparison.py")),
        Scenario("examples/effective_range.py", script("examples/effective_range.py")),
        Scenario("examples/reproduce_paper.py --scale quick",
                 script("examples/reproduce_paper.py", "--scale", "quick")),
    ],
}

GROUPS: tuple[str, ...] = tuple(SCENARIOS)


# -- the runner --------------------------------------------------------------------


def _tail(path: Path) -> None:
    lines = path.read_text(errors="replace").splitlines()[-TAIL_LINES:] if path.exists() else []
    if not lines:
        return
    print(f"---- last {len(lines)} lines of {path}", flush=True)
    print("\n".join(lines), flush=True)


def run_step(index: int, step: Scenario, port: int) -> None:
    """Run one step in the current directory; raises on a wrong exit status
    or a failed check."""
    if step.setup is not None:
        step.setup()
    if step.argv:
        argv = [token.replace("{port}", str(port)) for token in step.argv]
        log = open(Path(".scenario-logs") / f"{index:02d}.log", "wb")
        out = open(step.stdout, "wb") if step.stdout else log
        with log, out:
            process = subprocess.Popen(argv, stdout=out, stderr=log)
            try:
                if step.drive is not None:
                    step.drive(process)
                    status = process.wait(timeout=STOP_TIMEOUT_S)
                else:
                    status = process.wait()
            finally:
                if process.poll() is None:
                    process.kill()
                    process.wait()
        assert status == step.expect, f"exit {status}, want {step.expect}"
    if step.check is not None:
        step.check()


def run_group(group: str, work: Path) -> bool:
    """Every step of ``group`` in ``work``; False at the first failure."""
    (work / ".scenario-logs").mkdir(parents=True, exist_ok=True)
    home = Path.cwd()
    os.chdir(work)
    port = free_port()
    try:
        for index, step in enumerate(SCENARIOS[group]):
            started = time.perf_counter()
            try:
                run_step(index, step, port)
            except Exception:
                print(f"  {step.label}: FAILED [{time.perf_counter() - started:.0f} s]",
                      flush=True)
                traceback.print_exc(file=sys.stdout)
                _tail(work / ".scenario-logs" / f"{index:02d}.log")
                if step.stdout:
                    _tail(work / step.stdout)
                for pattern in step.logs:
                    for path in sorted(work.glob(pattern)):
                        _tail(path)
                return False
            print(f"  {step.label}: ok [{time.perf_counter() - started:.0f} s]", flush=True)
    finally:
        os.chdir(home)
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--group", required=True, choices=GROUPS)
    parser.add_argument("--workdir", type=Path, default=None,
                        help="run here and keep it (default: a temp dir, "
                             "removed when the group passes)")
    args = parser.parse_args(argv)
    # Every step, server and pool child imports the checkout's package.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    work = (args.workdir or Path(tempfile.mkdtemp(prefix=f"scenarios-{args.group}-"))).resolve()
    print(f"group {args.group} in {work}", flush=True)
    if run_group(args.group, work):
        if args.workdir is None:
            shutil.rmtree(work, ignore_errors=True)
        return 0
    print(f"group {args.group} failed; its files are in {work}")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
