"""The five ledger workloads, driven through the program's public API.

Every workload has the same four phases, which ``run.py`` times and counts:

``setup(seed)``
    Build the inputs from the seed, assert they are what the ledger
    recorded, start what must be running and make one short warm-up call.
``call(state, index)``
    One measured operation batch: a whole ``api.simulate`` /
    ``api.simulate_driven`` call on the same inputs every time, or one batch
    of fresh submissions to the service. Returns a :class:`Call`.
``check(state, call)``
    Correctness runs that are not part of the measurement; each returns a
    named pass/fail :class:`Check`.
``teardown(state)``
    Stop everything ``setup`` started.

Sizes are the issue's reference sizes times ``SCALE``: one run makes several
calls inside its time budget and reports medians over them, instead of one
long call.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Any, Iterator

import numpy as np
from scipy.spatial import cKDTree

from repro import api
from repro.campaign.executor import execute_run
from repro.campaign.spec import RunSpec
from repro.core.results import attach_schema_version
from repro.config import DecompositionConfig, MDConfig, RunConfig, SimulationConfig
from repro.experiments.common import droplets_for, geometry_for, simulation_config_for
from repro.experiments.fig10 import auto_rounds
from repro.md.system import ParticleSystem
from repro.service import ServiceClient, ServiceConfig, SimulationService
from repro.workloads.concentration import ConcentrationSchedule

from . import inputs

#: Common factor on the issue's step / configuration / submission counts
#: (300 and 500 MD steps, 200 configurations, 120 submissions).
SCALE = 1 / 6
#: Relative total-energy drift allowed over the NVE stretch before the first
#: velocity rescale (steps 1..49).
MAX_ENERGY_DRIFT = 1e-4
#: Where the service workload keeps its SQLite stores (git-ignored).
OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass
class Call:
    """What one measured call did."""

    ops: int
    wall_s: float
    #: Latency of each user-visible operation in the call, milliseconds.
    latencies_ms: list[float]
    #: Identity of the call's outputs.
    digest: str
    sim_tt_ms: float
    #: Why the call's outputs are wrong ("" when they are right).
    error: str = ""
    #: Numbers read from public results, for the per-layer report.
    counts: dict[str, float] = field(default_factory=dict)
    #: Workload-specific extras (the service keeps payloads here).
    extra: dict[str, Any] = field(default_factory=dict)
    #: Time the driving thread(s) spent inside the call (default: the wall).
    driver_s: float | None = None

    def __post_init__(self) -> None:
        if self.driver_s is None:
            self.driver_s = self.wall_s


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


def _scaled(count: int, quick: bool) -> int:
    return max(2, round(count * SCALE * (0.1 if quick else 1.0)))


# -- api.simulate -------------------------------------------------------------


class SimulateWorkload:
    """``api.simulate`` on a generated clustered system."""

    #: Every call runs the same inputs, so every call must have one digest.
    repeats_inputs = True

    def __init__(
        self,
        name: str,
        *,
        n_particles: int,
        cells_per_side: int,
        n_droplets: int,
        droplet_fraction: float,
        steps: int,
        recorded_pairs: int,
        force_backend: str = "kdtree",
        engine: str | None = None,
        engine_workers: int | None = None,
    ) -> None:
        self.name = name
        self.n_particles = n_particles
        self.cells_per_side = cells_per_side
        self.n_droplets = n_droplets
        self.droplet_fraction = droplet_fraction
        self.steps = steps
        self.recorded_pairs = recorded_pairs
        self.force_backend = force_backend
        self.engine = engine
        self.engine_workers = engine_workers
        self.n_pes = 16
        self.density = 0.256

    def ops_per_call(self, quick: bool) -> int:
        return _scaled(self.steps, quick)

    def _simulate(self, state: dict, steps: int, **kwargs: Any):
        generated = state["system"]
        system = ParticleSystem(
            generated.positions.copy(), generated.velocities.copy(), generated.box_length
        )
        kwargs.setdefault("engine", self.engine)
        if kwargs["engine"] == "multiprocess":
            kwargs.setdefault("engine_workers", self.engine_workers)
        result = api.simulate(
            state["config"],
            run=RunConfig(steps=steps, force_backend=self.force_backend),
            system=system,
            **kwargs,
        )
        return result, system

    def setup(self, seed: int, quick: bool = False) -> dict:
        pe_side = int(round(self.n_pes**0.5))
        system = inputs.clustered_system(
            seed, self.n_particles, self.density, pe_side,
            self.n_droplets, self.droplet_fraction,
        )
        tree = cKDTree(system.positions, boxsize=system.box_length)
        nearest = float(tree.query(system.positions, k=2)[0][:, 1].min())
        if nearest < inputs.MIN_DISTANCE:
            raise AssertionError(f"{self.name}: closest pair at {nearest:.4f} sigma")
        pairs = len(tree.query_pairs(2.5))
        if abs(pairs - self.recorded_pairs) > 0.05 * self.recorded_pairs:
            raise AssertionError(
                f"{self.name}: {pairs} pairs within the cut-off, recorded {self.recorded_pairs}"
            )
        config = SimulationConfig(
            md=MDConfig(n_particles=self.n_particles, density=self.density),
            decomposition=DecompositionConfig(self.cells_per_side, self.n_pes),
        )
        state = {"system": system, "config": config, "quick": quick}
        self._simulate(state, 2)  # warm-up
        return state

    def call(self, state: dict, index: int) -> Call:
        steps = self.ops_per_call(state["quick"])
        start = time.perf_counter()
        result, system = self._simulate(state, steps)
        digest = result.digest()
        wall = time.perf_counter() - start

        error = ""
        records = result.records
        if len(records) != steps or system.n != self.n_particles:
            error = f"{len(records)} records / {system.n} particles"
        else:
            try:
                system.validate()
            except Exception as exc:  # SimulationError: non-finite or escaped
                error = f"state invalid after the run: {exc}"
        if not error:
            # NVE stretch before the first velocity rescale (step 50).
            nve = [r for r in records if r.step < 50]
            energy = [1.5 * system.n * r.temperature + r.potential_energy for r in nve]
            drift = max(abs(e - energy[0]) for e in energy) / abs(energy[0])
            if drift > MAX_ENERGY_DRIFT:
                error = f"energy drift {drift:.2e} over steps 1..{nve[-1].step}"
        summary = result.summary()
        stats = result.meta["neighbor_stats"]
        return Call(
            ops=steps,
            wall_s=wall,
            latencies_ms=[wall * 1e3],
            digest=digest,
            sim_tt_ms=summary["tt_mean"] * 1e3,
            error=error,
            counts={
                "md.pairs_accepted": stats["accepted_pairs"],
                "md.candidates": stats["candidate_pairs"],
                "md.acceptance_ratio": stats["acceptance_ratio"],
                "md.verlet_reuse_ratio": stats["reuse_ratio"],
                "dlb.moves_per_step": summary["total_moves"] / steps,
                "dlb.spread_first_ms": summary["spread_first"] * 1e3,
                "dlb.spread_last_ms": summary["spread_last"] * 1e3,
            },
        )

    def check(self, state: dict, call: Call) -> list[Check]:
        steps = 5 if state["quick"] else 25
        checks = []
        try:
            audited, _ = self._simulate(
                state, steps, audit=api.AuditPolicy(every=1, policy="raise")
            )
            audit = audited.meta["audit"]
            checks.append(Check(
                "audit", audit["audits"] == steps and audit["violations"] == 0,
                f"{audit['audits']} audits, {audit['violations']} violations",
            ))
        except Exception as exc:  # InvariantViolation and anything the run raises
            checks.append(Check("audit", False, repr(exc)))
        if self.engine == "multiprocess":
            steps = 5 if state["quick"] else 20
            try:
                parallel, _ = self._simulate(state, steps)
                sequential, _ = self._simulate(state, steps, engine="sequential")
                same = parallel.digest() == sequential.digest()
                checks.append(Check("engine_digest", same, f"first {steps} steps"))
            except Exception as exc:
                checks.append(Check("engine_digest", False, repr(exc)))
        return checks

    def teardown(self, state: dict) -> None:
        pass


# -- api.simulate_driven ------------------------------------------------------


class _TimedConfigurations:
    """Hands configurations to the runner and times each one's processing.

    The runner asks for the next configuration when it is done with the
    previous one, so the gaps between requests are per-configuration
    latencies measured at the public API, with no tracing.
    """

    def __init__(self, configurations: list[np.ndarray]) -> None:
        self._configurations = configurations
        self._requested: list[float] = []

    def __iter__(self) -> Iterator[np.ndarray]:
        for configuration in self._configurations:
            self._requested.append(time.perf_counter())
            yield configuration
        self._requested.append(time.perf_counter())

    def latencies_ms(self) -> list[float]:
        marks = self._requested
        return [(b - a) * 1e3 for a, b in zip(marks, marks[1:])]


class DrivenWorkload:
    """The start of one Fig. 10 boundary repetition through ``simulate_driven``."""

    name = "driven_sweep"
    repeats_inputs = True
    m = 3
    n_pes = 36
    density = 0.256
    #: Length of the full schedule the measured prefix is cut from.
    schedule_steps = 200

    def ops_per_call(self, quick: bool) -> int:
        geometry = geometry_for(self.m, self.n_pes, self.density)
        return _scaled(self.schedule_steps, quick) * auto_rounds(geometry)

    def setup(self, seed: int, quick: bool = False) -> dict:
        geometry = geometry_for(self.m, self.n_pes, self.density)
        schedule = ConcentrationSchedule(
            n_particles=geometry.n_particles,
            box_length=geometry.box_length,
            n_steps=self.schedule_steps,
            n_droplets=droplets_for(geometry),
            seed=seed,
        )
        n_configs = _scaled(self.schedule_steps, quick)
        configurations = list(islice(schedule.configurations(), n_configs))
        for configuration in configurations:
            if configuration.shape != (geometry.n_particles, 3):
                raise AssertionError(f"configuration of shape {configuration.shape}")
        state = {
            "config": simulation_config_for(geometry, dlb_enabled=True),
            "configurations": configurations,
            "rounds": auto_rounds(geometry),
            "quick": quick,
        }
        self._run(state, configurations[:2])  # warm-up
        return state

    def _run(self, state: dict, configurations, **kwargs: Any):
        return api.simulate_driven(
            state["config"], configurations,
            rounds_per_config=state["rounds"], balancer="permanent", **kwargs,
        )

    def call(self, state: dict, index: int) -> Call:
        timed = _TimedConfigurations(state["configurations"])
        start = time.perf_counter()
        result = self._run(state, timed)
        digest = result.digest()
        wall = time.perf_counter() - start
        n_configs = len(state["configurations"])
        rounds = n_configs * state["rounds"]
        summary = result.summary()
        error = ""
        if len(result.records) != n_configs or result.records[-1].step != rounds:
            error = f"{len(result.records)} records, last step {result.records[-1].step}"
        return Call(
            ops=rounds,
            wall_s=wall,
            latencies_ms=timed.latencies_ms(),
            digest=digest,
            sim_tt_ms=summary["tt_mean"] * 1e3,
            error=error,
            counts={
                "dlb.moves_per_step": summary["total_moves"] / rounds,
                "dlb.spread_first_ms": summary["spread_first"] * 1e3,
                "dlb.spread_last_ms": summary["spread_last"] * 1e3,
            },
        )

    def check(self, state: dict, call: Call) -> list[Check]:
        n_configs = 2 if state["quick"] else 5
        expected = n_configs * state["rounds"]
        try:
            audited = self._run(
                state, state["configurations"][:n_configs],
                audit=api.AuditPolicy(every=1, policy="raise"),
            )
            audit = audited.meta["audit"]
            ok = audit["audits"] == expected and audit["violations"] == 0
            detail = f"{audit['audits']} audits, {audit['violations']} violations"
        except Exception as exc:
            ok, detail = False, repr(exc)
        return [Check("audit", ok, detail)]

    def teardown(self, state: dict) -> None:
        pass


# -- the simulation service ---------------------------------------------------


class _ServiceThread:
    """A ``SimulationService`` on its own event-loop thread."""

    def __init__(self, config: ServiceConfig) -> None:
        self.service = SimulationService(config)
        self._loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="ledger-service", daemon=True
        )

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._main())
        finally:
            self._loop.close()

    async def _main(self) -> None:
        try:
            await self.service.start()
        except BaseException as exc:
            self._error = exc
            self._ready.set()
            raise
        self._ready.set()
        await self.service.serve_forever()

    def start(self) -> None:
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("service did not start within 30 s")
        if self._error is not None:
            raise RuntimeError("service failed to start") from self._error

    def stop(self) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.service.initiate_drain)
            self._thread.join(timeout=30)
        if self._thread.is_alive():
            raise RuntimeError("service thread did not stop within 30 s")


class ServiceWorkload:
    """Two closed-loop clients against an in-process service."""

    name = "service_mix"
    #: Each call submits fresh specs; a repeated spec would be a cache hit.
    repeats_inputs = False
    clients = 2
    submissions = 120
    warmup_spec = {"kind": "preset", "preset": "quickstart", "mode": "dlb",
                   "n_steps": 5, "seed": 1}

    def batch_size(self, quick: bool) -> int:
        # A multiple of three keeps the preset:probe mix of every batch 2:1.
        return max(3, 3 * round(_scaled(self.submissions, quick) / 3))

    def ops_per_call(self, quick: bool) -> int:
        return self.batch_size(quick)

    def setup(self, seed: int, quick: bool = False) -> dict:
        OUT_DIR.mkdir(exist_ok=True)
        store_dir = tempfile.mkdtemp(prefix="store-", dir=OUT_DIR)
        server = _ServiceThread(ServiceConfig(
            port=0, workers=1, drain_grace_s=0.05, store_dir=store_dir,
        ))
        state = {"seed": seed, "quick": quick, "store_dir": store_dir,
                 "server": server, "resubmissions": 0}
        try:
            server.start()
            client = ServiceClient(port=server.service.port)
            run_id = client.submit(self.warmup_spec).raise_for_status().body["run_id"]
            client.wait(run_id, timeout=60)
        except BaseException:
            self.teardown(state)
            raise
        return state

    def call(self, state: dict, index: int) -> Call:
        size = self.batch_size(state["quick"])
        specs = inputs.service_specs(state["seed"], index * size, size)
        port = state["server"].service.port
        lock = threading.Lock()
        cursor = iter(range(size))
        cold_ms: list[float] = [0.0] * size
        hit_ms: list[float] = [0.0] * size
        served: list[dict | None] = [None] * size
        errors: list[str] = []

        busy_s: list[float] = []

        def client_loop() -> None:
            client = ServiceClient(port=port)
            entered = time.perf_counter()
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    busy_s.append(time.perf_counter() - entered)
                    return
                try:
                    start = time.perf_counter()
                    accepted = client.submit(specs[i]).raise_for_status()
                    run_id = accepted.body["run_id"]
                    body = client.wait(run_id, timeout=120)
                    done = time.perf_counter()
                    again = client.submit(specs[i]).raise_for_status()
                    fetched = client.result(run_id).raise_for_status()
                    hit = time.perf_counter()
                    if not again.body.get("cached"):
                        raise RuntimeError(f"resubmission not cached: {again.body}")
                    if fetched.body["payload"] != body["payload"]:
                        raise RuntimeError("cached payload differs from the first")
                    cold_ms[i] = (done - start) * 1e3
                    hit_ms[i] = (hit - done) * 1e3
                    served[i] = body
                except Exception as exc:  # ServiceError, OSError, refused, non-2xx
                    with lock:
                        errors.append(f"spec {i}: {exc!r}")

        threads = [
            threading.Thread(target=client_loop, name=f"ledger-client-{c}")
            for c in range(self.clients)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        state["resubmissions"] += size

        error = "; ".join(errors[:3])
        payloads = [body["payload"] if body else None for body in served]
        if not error:
            hits = _dedup_hits(ServiceClient(port=port).metrics())
            if hits != state["resubmissions"]:
                error = f"dedup_hits {hits}, resubmissions {state['resubmissions']}"
        tt = [p["tt_mean"] for p in payloads if p and p.get("kind") == "preset"]
        digest = hashlib.sha256(
            json.dumps(payloads, sort_keys=True).encode()
        ).hexdigest()
        return Call(
            ops=size,
            wall_s=wall,
            latencies_ms=[ms for ms, body in zip(cold_ms, served) if body],
            digest=digest,
            sim_tt_ms=statistics.fmean(tt) * 1e3 if tt else 0.0,
            error=error,
            extra={
                "specs": specs,
                "payloads": payloads,
                "hit_ms": [ms for ms, body in zip(hit_ms, served) if body],
                "exec_ms": [body["duration_s"] * 1e3 for body in served if body],
                "dedup_hits": state["resubmissions"] if not error else 0,
            },
            driver_s=sum(busy_s),
        )

    def check(self, state: dict, call: Call) -> list[Check]:
        """Every served payload of ``call`` equals a direct ``execute_run``."""
        start = time.perf_counter()
        mismatched = []
        try:
            for i, (spec, served) in enumerate(
                zip(call.extra["specs"], call.extra["payloads"])
            ):
                if attach_schema_version(execute_run(RunSpec(**spec))) != served:
                    mismatched.append(i)
        except Exception as exc:
            return [Check("served_equals_direct", False, repr(exc))]
        call.extra["direct_wall_s"] = time.perf_counter() - start
        return [Check(
            "served_equals_direct", not mismatched,
            f"{len(call.extra['specs'])} specs, mismatched {mismatched}",
        )]

    def teardown(self, state: dict) -> None:
        try:
            state["server"].stop()
        finally:
            shutil.rmtree(state["store_dir"], ignore_errors=True)


def _dedup_hits(metrics_text: str) -> int:
    for line in metrics_text.splitlines():
        if line.startswith("repro_service_dedup_hits_total"):
            return int(float(line.split()[-1]))
    return -1


# -- registry -----------------------------------------------------------------

#: Accepted pairs within the cut-off of the generated systems (seed 11);
#: set-up asserts each seed's system is within 5 % of these.
_PAIRS_N8000 = 126_558
_PAIRS_N4096 = 56_199

WORKLOADS = {
    w.name: w
    for w in (
        SimulateWorkload(
            "md_kdtree", n_particles=8000, cells_per_side=12, n_droplets=8,
            droplet_fraction=0.70, steps=300, recorded_pairs=_PAIRS_N8000,
        ),
        SimulateWorkload(
            "md_verlet", n_particles=8000, cells_per_side=12, n_droplets=8,
            droplet_fraction=0.70, steps=500, recorded_pairs=_PAIRS_N8000,
            force_backend="verlet",
        ),
        SimulateWorkload(
            "md_engine", n_particles=4096, cells_per_side=8, n_droplets=6,
            droplet_fraction=0.60, steps=300, recorded_pairs=_PAIRS_N4096,
            engine="multiprocess", engine_workers=2,
        ),
        DrivenWorkload(),
        ServiceWorkload(),
    )
}
