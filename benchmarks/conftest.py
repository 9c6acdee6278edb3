"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at a reduced
but shape-preserving scale (see DESIGN.md's experiment index), times the run
with pytest-benchmark, prints the regenerated rows/series, and asserts the
paper's qualitative findings. Generated CSVs land in ``benchmarks/out/``.

Scale knobs via environment:
  REPRO_BENCH_SCALE=quick|full   (default quick)
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

import pytest

#: Output directory for regenerated series.
OUT_DIR = Path(__file__).parent / "out"

#: Machine-readable kernel timings tracked across PRs (repo root).
KERNEL_RESULTS_PATH = Path(__file__).parent.parent / "BENCH_kernels.json"

#: Machine-readable campaign-engine timings tracked across PRs (repo root).
CAMPAIGN_RESULTS_PATH = Path(__file__).parent.parent / "BENCH_campaign.json"

#: Machine-readable execution-engine timings tracked across PRs (repo root).
ENGINE_RESULTS_PATH = Path(__file__).parent.parent / "BENCH_engine.json"

#: Machine-readable simulation-service timings tracked across PRs (repo root).
SERVICE_RESULTS_PATH = Path(__file__).parent.parent / "BENCH_service.json"


def bench_scale() -> str:
    """Benchmark scale from the environment (quick by default)."""
    scale = os.environ.get("REPRO_BENCH_SCALE", "quick")
    if scale not in ("quick", "full"):
        raise ValueError(f"REPRO_BENCH_SCALE must be quick or full, got {scale!r}")
    return scale


@pytest.fixture(scope="session")
def out_dir() -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return OUT_DIR


@pytest.fixture(scope="session")
def scale() -> str:
    return bench_scale()


@pytest.fixture(scope="session")
def kernel_log():
    """Collector for kernel benchmark timings, flushed to BENCH_kernels.json.

    Kernel benchmarks call :func:`record_kernel` with their pytest-benchmark
    fixture; at session end the collected means land in a machine-readable
    file at the repo root so ``benchmarks/check_regression.py`` can compare
    the perf trajectory across PRs.
    """
    entries: dict[str, dict[str, float]] = {}
    yield entries
    if not entries:
        return
    payload = {
        "schema": 1,
        "scale": bench_scale(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "kernels": entries,
    }
    derived: dict[str, float] = {}
    obs_off = entries.get("parallel_step_obs_off")
    obs_on = entries.get("parallel_step_obs_on")
    if obs_off and obs_on and obs_off["mean_s"] > 0:
        derived["obs_on_over_off"] = obs_on["mean_s"] / obs_off["mean_s"]
    if derived:
        payload["derived"] = derived
    KERNEL_RESULTS_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="session")
def campaign_log():
    """Collector for campaign-engine benchmarks, flushed to BENCH_campaign.json.

    ``benchmarks/bench_campaign.py`` files serial/parallel wall-clock here;
    at session end they land in a machine-readable file at the repo root so
    ``benchmarks/check_regression.py`` can compare the campaign engine's
    trajectory across PRs.
    """
    entries: dict[str, dict] = {}
    yield entries
    if not entries:
        return
    payload = {
        "schema": 1,
        "scale": bench_scale(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "campaign": entries,
    }
    serial = entries.get("serial", {}).get("wall_s")
    pool = entries.get("workers4", {}).get("wall_s")
    if serial and pool and pool > 0:
        payload["derived"] = {"speedup_4workers": serial / pool}
    CAMPAIGN_RESULTS_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


@pytest.fixture(scope="session")
def engine_log():
    """Collector for execution-engine benchmarks, flushed to BENCH_engine.json.

    ``benchmarks/bench_engine.py`` files digest-checked sequential and
    multiprocess step-loop wall-clock here; at session end they land in a
    machine-readable file at the repo root so ``benchmarks/check_regression.py``
    can gate the engine's bit-identity and speedup across PRs.
    """
    entries: dict[str, dict] = {}
    yield entries
    if not entries:
        return
    payload = {
        "schema": 1,
        "scale": bench_scale(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "engine": entries,
    }
    derived: dict[str, float] = {}
    for name, entry in entries.items():
        parallel = entry.get("multiprocess_wall_s")
        sequential = entry.get("sequential_wall_s")
        if parallel and sequential and parallel > 0:
            derived[f"speedup_{name}_workers{entry.get('workers', 0)}"] = (
                sequential / parallel
            )
    if derived:
        payload["derived"] = derived
    ENGINE_RESULTS_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="session")
def service_log():
    """Collector for simulation-service benchmarks, flushed to BENCH_service.json.

    ``benchmarks/bench_service.py`` files the submission->result wall-clock
    against a direct ``repro.api`` execution of the same spec; at session
    end the ratio lands in a machine-readable file at the repo root so
    ``benchmarks/check_regression.py`` can gate the service overhead across
    PRs.
    """
    entries: dict[str, dict] = {}
    yield entries
    if not entries:
        return
    payload = {
        "schema": 1,
        "scale": bench_scale(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "service": entries,
    }
    derived: dict[str, float] = {}
    for name, entry in entries.items():
        direct = entry.get("direct_wall_s")
        served = entry.get("service_wall_s")
        if direct and served and direct > 0:
            derived[f"service_over_direct_{name}"] = served / direct
        cached = entry.get("cached_wall_s")
        if cached is not None:
            derived[f"cached_hit_s_{name}"] = cached
    if derived:
        payload["derived"] = derived
    SERVICE_RESULTS_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


def record_kernel(kernel_log: dict, benchmark, name: str) -> None:
    """File one kernel benchmark's summary statistics under ``name``."""
    stats = benchmark.stats.stats
    kernel_log[name] = {
        "mean_s": float(stats.mean),
        "min_s": float(stats.min),
        "rounds": int(stats.rounds),
    }
