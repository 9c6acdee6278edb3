"""Execution engines: digest-checked sequential-vs-multiprocess wall-clock.

Two claims are measured and recorded into ``BENCH_engine.json``:

* **Bit-identity** -- the multiprocess engine must produce the *same*
  SHA-256 run digest as the sequential engine on every benchmarked
  workload (always asserted, any host).
* **Scaling** -- on a machine with >= 4 cores the 4-worker multiprocess
  engine must run the 36-PE step loop at least 2x faster end-to-end than
  the sequential engine.  On smaller hosts the speedup is recorded but not
  asserted (``cpu_count`` lands in the JSON so ``check_regression.py`` can
  apply the same gate to the recorded numbers).
"""

import os
import time

import pytest

from repro import api
from repro.config import (
    DecompositionConfig,
    MDConfig,
    RunConfig,
    SimulationConfig,
)

#: Step-loop length of every engine benchmark (long enough that worker
#: startup amortises; short enough for CI).
STEPS = 15

#: Worker count of the parallel side (matches the acceptance criterion).
WORKERS = 4

#: Cores needed before the speedup assertion applies.
SPEEDUP_MIN_CORES = 4

#: Required end-to-end speedup at 36 PEs with 4 workers.
SPEEDUP_THRESHOLD = 2.0

#: Benchmarked decompositions: the two PE counts of the paper's scaling
#: figures that fit a quick CI run.
WORKLOADS = {
    "pe16": dict(n_particles=2500, cells_per_side=8, n_pes=16),
    "pe36": dict(n_particles=4000, cells_per_side=6, n_pes=36),
}


def workload_config(name: str) -> SimulationConfig:
    spec = WORKLOADS[name]
    return SimulationConfig(
        md=MDConfig(n_particles=spec["n_particles"], density=0.256),
        decomposition=DecompositionConfig(
            cells_per_side=spec["cells_per_side"], n_pes=spec["n_pes"]
        ),
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_engine_step_loop(name, engine_log):
    config = workload_config(name)
    run = RunConfig(steps=STEPS, seed=3)

    start = time.perf_counter()
    sequential = api.simulate(config, run=run, engine="sequential")
    sequential_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = api.simulate(
        config, run=run, engine="multiprocess", engine_workers=WORKERS
    )
    parallel_s = time.perf_counter() - start

    # Bit-identity is non-negotiable on any host: the engines differ only
    # in where slices execute, never in what they compute.
    digest_match = sequential.digest() == parallel.digest()
    assert digest_match, (
        f"{name}: multiprocess digest {parallel.digest()[:16]} != "
        f"sequential {sequential.digest()[:16]}"
    )

    cpu_count = os.cpu_count() or 1
    speedup = sequential_s / parallel_s if parallel_s > 0 else 0.0
    print(
        f"\nengine {name}: sequential {sequential_s:.2f}s, "
        f"{WORKERS} workers {parallel_s:.2f}s ({speedup:.2f}x, "
        f"{cpu_count} cores, digests match)"
    )
    engine_log[name] = {
        "steps": STEPS,
        "n_pes": WORKLOADS[name]["n_pes"],
        "n_particles": WORKLOADS[name]["n_particles"],
        "workers": WORKERS,
        "sequential_wall_s": sequential_s,
        "multiprocess_wall_s": parallel_s,
        "digest_match": digest_match,
    }

    if name == "pe36":
        if cpu_count >= SPEEDUP_MIN_CORES:
            assert speedup >= SPEEDUP_THRESHOLD, (
                f"{WORKERS}-worker engine only {speedup:.2f}x faster than "
                f"sequential at 36 PEs on {cpu_count} cores"
            )
        else:
            print(f"  (speedup assertion skipped: only {cpu_count} cores)")
