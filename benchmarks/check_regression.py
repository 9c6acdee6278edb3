#!/usr/bin/env python3
"""Compare a fresh BENCH_kernels.json against the committed baseline.

Usage::

    # 1. regenerate the kernel timings (writes BENCH_kernels.json at repo root)
    PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py -q

    # 2. diff against a saved baseline
    python benchmarks/check_regression.py --baseline BENCH_kernels.baseline.json

Exits non-zero when any kernel's mean time grew beyond ``--threshold``
(default 1.3x) over the baseline. Kernels present in only one file are
reported but do not fail the check (new benchmarks must be able to land).

The same comparison is wired into the test suite as the opt-in ``perf``
marker (``tests/test_perf_regression.py``), so tier-1 stays fast while CI
can run ``pytest -m perf`` after regenerating the timings.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_RESULTS = REPO_ROOT / "BENCH_kernels.json"
DEFAULT_CAMPAIGN_RESULTS = REPO_ROOT / "BENCH_campaign.json"
DEFAULT_ENGINE_RESULTS = REPO_ROOT / "BENCH_engine.json"
DEFAULT_SERVICE_RESULTS = REPO_ROOT / "BENCH_service.json"

#: Allowed slowdown factor before the check fails.
DEFAULT_THRESHOLD = 1.3

#: Allowed observability overhead: the disabled path must stay within this
#: factor of the baseline's disabled path (the "<5% when off" guarantee).
DEFAULT_OVERHEAD_THRESHOLD = 1.05

#: Kernels covered by the tighter overhead threshold. ``obs_off`` guards the
#: fully-dark runner; ``events_off`` guards a runner carrying an
#: observability bundle whose flight recorder is disabled (every event hook
#: must stay one ``None`` check).
DEFAULT_OVERHEAD_KERNELS = ("parallel_step_obs_off", "parallel_step_events_off")


def compare_kernels(
    baseline: dict, fresh: dict, threshold: float = DEFAULT_THRESHOLD
) -> tuple[list[str], list[str]]:
    """Diff two BENCH_kernels payloads.

    Returns ``(regressions, notes)``: human-readable lines for kernels slower
    than ``threshold`` x baseline, and informational lines (speedups, kernels
    present on only one side).
    """
    base_kernels = baseline.get("kernels", {})
    fresh_kernels = fresh.get("kernels", {})
    regressions: list[str] = []
    notes: list[str] = []
    for name in sorted(set(base_kernels) | set(fresh_kernels)):
        if name not in base_kernels:
            notes.append(f"NEW      {name}: no baseline entry")
            continue
        if name not in fresh_kernels:
            notes.append(f"MISSING  {name}: present only in baseline")
            continue
        old = float(base_kernels[name]["mean_s"])
        new = float(fresh_kernels[name]["mean_s"])
        if old <= 0:
            notes.append(f"SKIP     {name}: non-positive baseline mean")
            continue
        ratio = new / old
        line = f"{name}: {old * 1e3:.3f} ms -> {new * 1e3:.3f} ms ({ratio:.2f}x)"
        if ratio > threshold:
            regressions.append(f"SLOWER   {line}")
        elif ratio < 1.0 / threshold:
            notes.append(f"FASTER   {line}")
        else:
            notes.append(f"OK       {line}")
    return regressions, notes


def check_overhead(
    baseline: dict,
    fresh: dict,
    kernels: tuple[str, ...] = DEFAULT_OVERHEAD_KERNELS,
    threshold: float = DEFAULT_OVERHEAD_THRESHOLD,
) -> tuple[list[str], list[str]]:
    """Tighter guard on the observability-off hot path.

    The nullable-observer contract says tracing *disabled* must cost under
    ~5%: compare the named kernels against the baseline at ``threshold``
    instead of the looser general threshold. Kernels missing on either side
    are a note, not a failure (baselines predating the benchmark must pass).
    """
    base_kernels = baseline.get("kernels", {})
    fresh_kernels = fresh.get("kernels", {})
    failures: list[str] = []
    notes: list[str] = []
    for name in kernels:
        if name not in base_kernels or name not in fresh_kernels:
            notes.append(f"OVERHEAD {name}: not present on both sides, skipped")
            continue
        old = float(base_kernels[name]["mean_s"])
        new = float(fresh_kernels[name]["mean_s"])
        if old <= 0:
            notes.append(f"OVERHEAD {name}: non-positive baseline mean, skipped")
            continue
        ratio = new / old
        line = f"{name}: {old * 1e3:.3f} ms -> {new * 1e3:.3f} ms ({ratio:.2f}x)"
        if ratio > threshold:
            failures.append(f"OVERHEAD SLOWER {line} (limit {threshold:.2f}x)")
        else:
            notes.append(f"OVERHEAD OK     {line}")
    return failures, notes


#: Allowed slowdown of the serial campaign drain before the check fails.
DEFAULT_CAMPAIGN_THRESHOLD = 1.5

#: Cores needed before the parallel-speedup gate applies.
CAMPAIGN_SPEEDUP_MIN_CORES = 4

#: Required 4-worker speedup on hosts with enough cores.
CAMPAIGN_SPEEDUP_THRESHOLD = 2.0


def check_campaign(
    baseline: dict | None,
    fresh: dict,
    threshold: float = DEFAULT_CAMPAIGN_THRESHOLD,
) -> tuple[list[str], list[str]]:
    """Guard the campaign engine's invariants recorded in BENCH_campaign.json.

    Always enforced on the fresh payload: on hosts with >= 4 cores (per
    the *recorded* ``cpu_count``), the 4-worker drain is >= 2x faster than
    serial.

    With a baseline, the serial wall-clock additionally must not grow
    beyond ``threshold`` x the baseline.
    """
    failures: list[str] = []
    notes: list[str] = []
    entries = fresh.get("campaign", {})

    cpu_count = int(fresh.get("cpu_count", 1))
    speedup = fresh.get("derived", {}).get("speedup_4workers")
    if speedup is not None:
        line = f"4-worker speedup {speedup:.2f}x on {cpu_count} recorded cores"
        if cpu_count < CAMPAIGN_SPEEDUP_MIN_CORES:
            notes.append(f"SPEEDUP SKIP    {line} (needs >= "
                         f"{CAMPAIGN_SPEEDUP_MIN_CORES} cores)")
        elif speedup >= CAMPAIGN_SPEEDUP_THRESHOLD:
            notes.append(f"SPEEDUP OK      {line}")
        else:
            failures.append(f"SPEEDUP LOW     {line} "
                            f"(limit {CAMPAIGN_SPEEDUP_THRESHOLD:.1f}x)")

    if baseline is not None:
        old = baseline.get("campaign", {}).get("serial", {}).get("wall_s")
        new = entries.get("serial", {}).get("wall_s")
        if old and new and old > 0:
            ratio = float(new) / float(old)
            line = f"serial drain: {old:.2f} s -> {new:.2f} s ({ratio:.2f}x)"
            if ratio > threshold:
                failures.append(f"CAMPAIGN SLOWER {line} (limit {threshold:.2f}x)")
            else:
                notes.append(f"CAMPAIGN OK     {line}")
        else:
            notes.append("CAMPAIGN SKIP   serial wall-clock missing on one side")
    return failures, notes


#: Allowed slowdown of the sequential engine step loop before the check fails.
DEFAULT_ENGINE_THRESHOLD = 1.5

#: Cores needed before the engine parallel-speedup gate applies.
ENGINE_SPEEDUP_MIN_CORES = 4

#: Required multiprocess speedup at 36 PEs on hosts with enough cores.
ENGINE_SPEEDUP_THRESHOLD = 2.0


def check_engine(
    baseline: dict | None,
    fresh: dict,
    threshold: float = DEFAULT_ENGINE_THRESHOLD,
) -> tuple[list[str], list[str]]:
    """Guard the execution engine's invariants recorded in BENCH_engine.json.

    Always enforced on the fresh payload:

    * the multiprocess engine's run digest matched the sequential engine's
      on every benchmarked workload (bit-identity is the engine's contract,
      so a recorded mismatch fails on any host);
    * on hosts with >= 4 cores (per the *recorded* ``cpu_count``), the
      4-worker engine runs the 36-PE step loop >= 2x faster than sequential.

    With a baseline, each workload's sequential wall-clock additionally
    must not grow beyond ``threshold`` x the baseline.
    """
    failures: list[str] = []
    notes: list[str] = []
    entries = fresh.get("engine", {})

    for name in sorted(entries):
        if entries[name].get("digest_match"):
            notes.append(f"DIGEST OK       {name}: multiprocess == sequential")
        else:
            failures.append(
                f"DIGEST MISMATCH {name}: multiprocess != sequential "
                "(bit-identity contract broken)"
            )

    cpu_count = int(fresh.get("cpu_count", 1))
    for key, speedup in sorted(fresh.get("derived", {}).items()):
        if not key.startswith("speedup_pe36"):
            continue
        line = f"engine {key} {speedup:.2f}x on {cpu_count} recorded cores"
        if cpu_count < ENGINE_SPEEDUP_MIN_CORES:
            notes.append(f"SPEEDUP SKIP    {line} (needs >= "
                         f"{ENGINE_SPEEDUP_MIN_CORES} cores)")
        elif speedup >= ENGINE_SPEEDUP_THRESHOLD:
            notes.append(f"SPEEDUP OK      {line}")
        else:
            failures.append(f"SPEEDUP LOW     {line} "
                            f"(limit {ENGINE_SPEEDUP_THRESHOLD:.1f}x)")

    if baseline is not None:
        for name in sorted(entries):
            old = baseline.get("engine", {}).get(name, {}).get("sequential_wall_s")
            new = entries[name].get("sequential_wall_s")
            if old and new and old > 0:
                ratio = float(new) / float(old)
                line = (f"engine {name} sequential: {old:.2f} s -> "
                        f"{new:.2f} s ({ratio:.2f}x)")
                if ratio > threshold:
                    failures.append(f"ENGINE SLOWER   {line} "
                                    f"(limit {threshold:.2f}x)")
                else:
                    notes.append(f"ENGINE OK       {line}")
            else:
                notes.append(f"ENGINE SKIP     {name}: sequential wall-clock "
                             "missing on one side")
    return failures, notes


#: Allowed service-over-direct wall-clock ratio (the service PR's
#: acceptance gate: submission -> result must cost <= 1.15x a direct
#: ``repro.api`` execution of the same spec).
SERVICE_OVERHEAD_THRESHOLD = 1.15

#: Allowed slowdown of the direct-path wall-clock before the check fails
#: (guards the workload itself, not the service).
DEFAULT_SERVICE_THRESHOLD = 1.5


def check_service(
    baseline: dict | None,
    fresh: dict,
    threshold: float = DEFAULT_SERVICE_THRESHOLD,
) -> tuple[list[str], list[str]]:
    """Guard the simulation service's invariants recorded in BENCH_service.json.

    Always enforced on the fresh payload:

    * the served payload's digest matched a direct ``repro.api`` execution
      of the same spec (the service never changes the computation);
    * every recorded ``service_over_direct_*`` ratio stays within
      ``SERVICE_OVERHEAD_THRESHOLD`` (submission -> result overhead).

    With a baseline, each workload's direct wall-clock additionally must
    not grow beyond ``threshold`` x the baseline.
    """
    failures: list[str] = []
    notes: list[str] = []
    entries = fresh.get("service", {})

    for name in sorted(entries):
        if entries[name].get("digest_match"):
            notes.append(f"DIGEST OK       service {name}: served == direct")
        else:
            failures.append(
                f"DIGEST MISMATCH service {name}: served payload != direct "
                "api.simulate (bit-exactness contract broken)"
            )

    for key, ratio in sorted(fresh.get("derived", {}).items()):
        if not key.startswith("service_over_direct_"):
            continue
        line = f"{key}: {ratio:.3f}x (limit {SERVICE_OVERHEAD_THRESHOLD:.2f}x)"
        if ratio <= SERVICE_OVERHEAD_THRESHOLD:
            notes.append(f"SERVICE OK      {line}")
        else:
            failures.append(f"SERVICE SLOW    {line}")

    if baseline is not None:
        for name in sorted(entries):
            old = baseline.get("service", {}).get(name, {}).get("direct_wall_s")
            new = entries[name].get("direct_wall_s")
            if old and new and old > 0:
                ratio = float(new) / float(old)
                line = (f"service {name} direct: {old:.2f} s -> "
                        f"{new:.2f} s ({ratio:.2f}x)")
                if ratio > threshold:
                    failures.append(f"SERVICE SLOWER  {line} "
                                    f"(limit {threshold:.2f}x)")
                else:
                    notes.append(f"SERVICE OK      {line}")
            else:
                notes.append(f"SERVICE SKIP    {name}: direct wall-clock "
                             "missing on one side")
    return failures, notes


def load(path: Path) -> dict:
    """Read one BENCH_kernels.json payload."""
    with open(path) as handle:
        return json.load(handle)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        required=True,
        help="committed baseline BENCH_kernels.json to compare against",
    )
    parser.add_argument(
        "--fresh",
        type=Path,
        default=DEFAULT_RESULTS,
        help=f"freshly generated results (default {DEFAULT_RESULTS})",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help=f"allowed slowdown factor (default {DEFAULT_THRESHOLD})",
    )
    parser.add_argument(
        "--overhead-kernels",
        nargs="*",
        default=list(DEFAULT_OVERHEAD_KERNELS),
        help="kernels held to the tighter observability-overhead threshold "
        f"(default: {' '.join(DEFAULT_OVERHEAD_KERNELS)})",
    )
    parser.add_argument(
        "--overhead-threshold",
        type=float,
        default=DEFAULT_OVERHEAD_THRESHOLD,
        help="allowed slowdown of the overhead kernels "
        f"(default {DEFAULT_OVERHEAD_THRESHOLD})",
    )
    parser.add_argument(
        "--campaign-baseline",
        type=Path,
        default=None,
        help="committed baseline BENCH_campaign.json to compare against",
    )
    parser.add_argument(
        "--campaign-fresh",
        type=Path,
        default=DEFAULT_CAMPAIGN_RESULTS,
        help="freshly generated campaign results "
        f"(default {DEFAULT_CAMPAIGN_RESULTS})",
    )
    parser.add_argument(
        "--campaign-threshold",
        type=float,
        default=DEFAULT_CAMPAIGN_THRESHOLD,
        help="allowed slowdown of the serial campaign drain "
        f"(default {DEFAULT_CAMPAIGN_THRESHOLD})",
    )
    parser.add_argument(
        "--engine-baseline",
        type=Path,
        default=None,
        help="committed baseline BENCH_engine.json to compare against",
    )
    parser.add_argument(
        "--engine-fresh",
        type=Path,
        default=DEFAULT_ENGINE_RESULTS,
        help="freshly generated engine results "
        f"(default {DEFAULT_ENGINE_RESULTS})",
    )
    parser.add_argument(
        "--engine-threshold",
        type=float,
        default=DEFAULT_ENGINE_THRESHOLD,
        help="allowed slowdown of the sequential engine step loop "
        f"(default {DEFAULT_ENGINE_THRESHOLD})",
    )
    parser.add_argument(
        "--service-baseline",
        type=Path,
        default=None,
        help="committed baseline BENCH_service.json to compare against",
    )
    parser.add_argument(
        "--service-fresh",
        type=Path,
        default=DEFAULT_SERVICE_RESULTS,
        help="freshly generated service results "
        f"(default {DEFAULT_SERVICE_RESULTS})",
    )
    parser.add_argument(
        "--service-threshold",
        type=float,
        default=DEFAULT_SERVICE_THRESHOLD,
        help="allowed slowdown of the service benchmark's direct path "
        f"(default {DEFAULT_SERVICE_THRESHOLD})",
    )
    args = parser.parse_args(argv)

    if not args.fresh.exists():
        print(f"fresh results {args.fresh} not found: run the kernel benchmarks first")
        return 2
    baseline = load(args.baseline)
    fresh = load(args.fresh)
    regressions, notes = compare_kernels(baseline, fresh, args.threshold)
    overhead_failures, overhead_notes = check_overhead(
        baseline,
        fresh,
        kernels=tuple(args.overhead_kernels),
        threshold=args.overhead_threshold,
    )
    campaign_failures: list[str] = []
    campaign_notes: list[str] = []
    if args.campaign_fresh.exists():
        campaign_baseline = (
            load(args.campaign_baseline)
            if args.campaign_baseline is not None and args.campaign_baseline.exists()
            else None
        )
        campaign_failures, campaign_notes = check_campaign(
            campaign_baseline, load(args.campaign_fresh),
            threshold=args.campaign_threshold,
        )
    else:
        campaign_notes = [
            f"CAMPAIGN SKIP   {args.campaign_fresh} not found "
            "(run benchmarks/bench_campaign.py to generate it)"
        ]
    engine_failures: list[str] = []
    engine_notes: list[str] = []
    if args.engine_fresh.exists():
        engine_baseline = (
            load(args.engine_baseline)
            if args.engine_baseline is not None and args.engine_baseline.exists()
            else None
        )
        engine_failures, engine_notes = check_engine(
            engine_baseline, load(args.engine_fresh),
            threshold=args.engine_threshold,
        )
    else:
        engine_notes = [
            f"ENGINE SKIP     {args.engine_fresh} not found "
            "(run benchmarks/bench_engine.py to generate it)"
        ]
    service_failures: list[str] = []
    service_notes: list[str] = []
    if args.service_fresh.exists():
        service_baseline = (
            load(args.service_baseline)
            if args.service_baseline is not None and args.service_baseline.exists()
            else None
        )
        service_failures, service_notes = check_service(
            service_baseline, load(args.service_fresh),
            threshold=args.service_threshold,
        )
    else:
        service_notes = [
            f"SERVICE SKIP    {args.service_fresh} not found "
            "(run benchmarks/bench_service.py to generate it)"
        ]
    for line in (notes + overhead_notes + campaign_notes
                 + engine_notes + service_notes):
        print(line)
    failures = (
        regressions
        + overhead_failures
        + campaign_failures
        + engine_failures
        + service_failures
    )
    for line in failures:
        print(line)
    if failures:
        print(f"\n{len(failures)} kernel check(s) failed")
        return 1
    print("\nno kernel regressions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
