"""Simulation service: submission->result overhead versus direct repro.api.

The acceptance gate of the service PR: for a fig5-sized run, the full HTTP
path (submit, poll/stream, fetch result) must cost at most **1.15x** the
wall-clock of executing the same spec directly through ``repro.api`` — the
service adds queueing, scheduling and JSON round trips, never recomputation.

Also recorded (not gated): the latency of a cache-hit resubmission, which
should be orders of magnitude below the run itself, and the bit-exactness
of the served payload's digest against the direct run.
"""

from __future__ import annotations

import asyncio
import threading
import time

from repro import api
from repro.config import RunConfig
from repro.service import ServiceClient, ServiceConfig, SimulationService

from conftest import bench_scale

#: Gate: served wall-clock / direct wall-clock for the fig5-sized run.
OVERHEAD_THRESHOLD = 1.15

#: The measured workload (a fig5 point at benchmark scale) and a tiny
#: warm-up run that absorbs process-pool startup before timing begins.
FIG5_STEPS = {"quick": 80, "full": 160}
WARMUP_SPEC = {"kind": "preset", "preset": "quickstart", "n_steps": 5, "seed": 1}


class _ServerThread:
    """The service on a background loop thread (the bench is a client)."""

    def __init__(self, config: ServiceConfig) -> None:
        self.service = SimulationService(config)
        self.loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self._main())
        self.loop.close()

    async def _main(self) -> None:
        await self.service.start()
        self._ready.set()
        await self.service.serve_forever()

    def __enter__(self) -> "_ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("service did not start")
        return self

    def __exit__(self, *_exc) -> None:
        self.loop.call_soon_threadsafe(self.service.initiate_drain)
        self._thread.join(timeout=30)


def test_service_overhead_fig5(service_log, tmp_path):
    steps = FIG5_STEPS[bench_scale()]
    spec = {"kind": "preset", "preset": "fig5b-scaled", "balancer": "permanent",
            "n_steps": steps, "seed": 3}

    # Direct path: the same resolved spec through the facade, in-process.
    start = time.perf_counter()
    direct = api.simulate(
        spec["preset"],
        run=RunConfig(steps=steps, seed=spec["seed"],
                      record_interval=max(1, steps // 50),
                      balancer=spec["balancer"]),
    )
    direct_s = time.perf_counter() - start

    config = ServiceConfig(port=0, workers=1, drain_grace_s=0.2,
                           store_dir=str(tmp_path / "store"))
    with _ServerThread(config) as server:
        client = ServiceClient(port=server.service.port)
        # Warm the worker pool so process startup is not billed to the run.
        client.wait(client.submit(WARMUP_SPEC).body["run_id"], timeout=60)

        start = time.perf_counter()
        run_id = client.submit(spec).body["run_id"]
        served = client.wait(run_id, timeout=300)
        service_s = time.perf_counter() - start

        # Bit-exactness: the service executed the very same computation.
        digest_match = served["payload"]["digest"] == direct.digest()
        assert digest_match, "served digest differs from direct api.simulate"

        # Cache hit: resubmitting the identical spec serves the stored
        # payload without recomputation.
        start = time.perf_counter()
        resubmitted = client.submit(spec)
        cached = client.result(run_id)
        cached_s = time.perf_counter() - start
        assert resubmitted.status == 200 and resubmitted.body["cached"]
        assert cached.body["payload"] == served["payload"]

    overhead = service_s / direct_s if direct_s > 0 else float("inf")
    print(
        f"\nservice fig5b-scaled x{steps}: direct {direct_s:.2f}s, "
        f"served {service_s:.2f}s ({overhead:.3f}x), "
        f"cache hit {cached_s * 1000:.1f}ms"
    )
    service_log["fig5b"] = {
        "preset": spec["preset"],
        "steps": steps,
        "direct_wall_s": direct_s,
        "service_wall_s": service_s,
        "cached_wall_s": cached_s,
        "digest_match": digest_match,
    }
    assert overhead <= OVERHEAD_THRESHOLD, (
        f"service path {overhead:.3f}x over direct execution "
        f"(gate: {OVERHEAD_THRESHOLD}x)"
    )
