"""Run the performance ledger.

One workload, one mode (what the benchmark driver calls)::

    python3 ledger/run.py --workload md_kdtree --seed 11 --seconds 10 --trace 0

prints a readable report and, as the last line of standard output, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding every
end-to-end metric (``--trace 0``) or every per-layer metric (``--trace 1``).

Every workload, untraced then traced, each in a fresh subprocess::

    python3 ledger/run.py [--workload NAME]... [--seed N] [--seconds S]
                          [--repeat N] [--no-trace] [--quick] [--out FILE]

Compare two ``--out`` files against the bounds in ``BENCHMARK.json``::

    python3 ledger/run.py --compare A.json B.json
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, set before NumPy loads. Left alone, OpenBLAS's pool spins a
# second thread beside the single-threaded MD loop and two more in every
# engine worker: on a host of two cores the benchmark then times how its own
# threads are scheduled, not the program.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parent
if __package__ in (None, ""):
    # Started as a script: sys.path[0] is ledger/, where trace.py would
    # shadow the standard library's; import through the package instead.
    sys.path[0] = str(ROOT)

from ledger import compare as comparing  # noqa: E402
from ledger import metrics  # noqa: E402

#: A run sets up at least this often and until ``SETUP_SECONDS`` have passed;
#: ``setup_s`` is the median, and the repeated warm-up calls bring the process
#: to a steady state before the first measured call.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
#: ``ledger.trace_overhead`` above this prints a warning.
OVERHEAD_WARNING = 1.15
#: Least share of the driving threads' time the root spans must cover.
MIN_ROOT_COVERAGE = 0.95


def percentile(values: list[float], p: int) -> float:
    """The p-th percentile (inclusive method); 0.0 for no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def host_fingerprint() -> dict:
    import numpy
    import scipy

    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count() or 1,
        "cpu_model": model or platform.processor(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


# -- one workload, one mode, in this process ----------------------------------


def measure(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """Set up, measure and check one workload; returns the run's report."""
    from ledger.trace import Tracer
    from ledger.workloads import WORKLOADS, Check

    workload = WORKLOADS[name]
    setups: list[float] = []
    state = None
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
        if state is not None:
            workload.teardown(state)
        start = time.perf_counter()
        state = workload.setup(seed, quick)
        setups.append(time.perf_counter() - start)

    calls = []
    reference = None
    tracer = Tracer() if trace else None
    raised = ""
    try:
        if trace:
            reference = workload.call(state, 0)
            tracer.install()
        cpu_start, wall_start = time.process_time(), time.perf_counter()
        deadline = wall_start + seconds
        try:
            while True:
                calls.append(workload.call(state, len(calls) + (1 if trace else 0)))
                if time.perf_counter() >= deadline:
                    break
        except Exception as exc:  # a call that raises fails its operations
            raised = repr(exc)
        finally:
            cpu_per_wall = (time.process_time() - cpu_start) / (
                time.perf_counter() - wall_start
            )
            if tracer is not None:
                tracer.uninstall()
        checks = workload.check(state, calls[0]) if calls else []
    finally:
        workload.teardown(state)

    every_call = ([reference] if reference else []) + calls
    if workload.repeats_inputs:
        for call in every_call[1:]:
            if not call.error and call.digest != every_call[0].digest:
                call.error = "digest differs from the first call on the same inputs"
    ops_per_call = workload.ops_per_call(quick)
    attempted = sum(c.ops for c in every_call) + (ops_per_call if raised else 0)
    failed = sum(c.ops for c in every_call if c.error) + (ops_per_call if raised else 0)

    summary = None
    if trace and calls:
        try:
            summary = tracer.summary()
            checks.append(Check("layer_sum", True, "self times equal the root spans"))
        except ValueError as exc:
            checks.append(Check("layer_sum", False, str(exc)))
    layers = layer_values(workload, calls, reference, summary, tracer) if trace else {}
    if trace:
        layers["ledger.cpu_per_wall"] = cpu_per_wall
    if summary is not None:
        coverage = layers["ledger.root_coverage"]
        checks.append(Check(
            "root_coverage", coverage >= MIN_ROOT_COVERAGE,
            f"root spans cover {coverage:.1%} of the traced calls",
        ))
    attempted += len(checks)
    failed += sum(not c.ok for c in checks)

    latencies = [ms for c in calls for ms in c.latencies_ms]
    end_to_end = {
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median(c.ops / c.wall_s for c in calls) if calls else 0.0,
        "op_p50_ms": percentile(latencies, 50),
        "sim_tt_ms": calls[0].sim_tt_ms if calls else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {
        "workload": name,
        "trace": trace,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "per_layer": layers,
        "info": {
            "calls": len(calls),
            "ops_per_call": ops_per_call,
            "latency_samples": len(latencies),
            "op_p90_ms": percentile(latencies, 90),
            "setups_s": setups,
            "call_walls_s": [c.wall_s for c in every_call],
            "raised": raised,
            "errors": [c.error for c in every_call if c.error],
            "checks": [[c.name, c.ok, c.detail] for c in checks],
        },
    }


def layer_values(workload, calls, reference, summary, tracer) -> dict[str, float]:
    """Every per-layer metric of a traced run (0 where the layer did not run)."""
    values = {m.name: 0.0 for m in metrics.PER_LAYER}
    if summary is None or not calls:
        return values
    ops = sum(c.ops for c in calls)
    for span, _, _ in metrics.SPANS:
        values[f"{span}.self_ms"] = summary.self_ms(span) / ops
        values[f"{span}.calls"] = float(summary.calls.get(span, 0))

    steps = summary.durations_ms("core.step")
    values["core.step.ms_p50"] = percentile(steps, 50)
    values["core.step.ms_p90"] = percentile(steps, 90)
    digests = summary.durations_ms("core.digest")
    values["core.digest.ms"] = statistics.fmean(digests) if digests else 0.0

    passes = summary.durations_ms("engine.force_pass")
    if passes:
        workers = workload.engine_workers or 1
        per_pe_ms = sum(tracer.captured["engine.force_pass"]) * 1e3
        values["engine.force_pass.ms"] = statistics.fmean(passes)
        values["engine.bind.ms"] = statistics.fmean(summary.durations_ms("engine.bind"))
        values["engine.wait_ms"] = (sum(passes) - per_pe_ms / workers) / len(passes)
        values["core.ddm.per_pe_sum_ms"] = per_pe_ms / len(passes)

    store_calls = 0
    for method in ("register", "acquire_lease", "complete", "get"):
        durations = summary.durations_ms(f"campaign.store.{method}")
        values[f"campaign.store.{method}.ms_p50"] = percentile(durations, 50)
        store_calls += len(durations)
    if workload.name == "service_mix":
        cold = [ms for c in calls for ms in c.latencies_ms]
        hits = [ms for c in calls for ms in c.extra["hit_ms"]]
        exec_ms = [ms for c in calls for ms in c.extra["exec_ms"]]
        values["campaign.store.calls_per_submission"] = store_calls / ops
        values["campaign.exec.ms_mean"] = statistics.fmean(exec_ms) if exec_ms else 0.0
        for span in ("submit_rtt", "wait", "result_rtt"):
            values[f"service.{span}.ms_p50"] = percentile(
                summary.durations_ms(f"service.{span}"), 50
            )
        values["service.submit_to_result.ms_p90"] = percentile(cold, 90)
        values["service.cache_hit.ms_p50"] = percentile(hits, 50)
        values["service.cache_hit.ms_p90"] = percentile(hits, 90)
        if cold:
            values["service.queue_overhead.ms_mean"] = (
                statistics.fmean(cold) - values["campaign.exec.ms_mean"]
            )
        values["service.dedup_hits"] = float(calls[-1].extra["dedup_hits"])
        direct = calls[0].extra.get("direct_wall_s")
        if direct:
            values["service.over_direct"] = calls[0].wall_s / direct

    for key, value in calls[0].counts.items():
        values[key] = float(value)
    kernel_calls = summary.calls.get("md.kernel", 0)
    if kernel_calls and values["md.candidates"]:
        values["md.kernel.ns_per_pair"] = summary.self_ns["md.kernel"] / (
            kernel_calls * values["md.candidates"]
        )

    if reference is not None:
        traced = statistics.median(c.wall_s / c.ops for c in calls)
        values["ledger.trace_overhead"] = traced / (reference.wall_s / reference.ops)
    driving = sum(
        ns for thread, ns in summary.root_ns.items()
        if thread == "MainThread" or thread.startswith("ledger-client")
    )
    values["ledger.root_coverage"] = driving / 1e9 / sum(c.driver_s for c in calls)
    return values


def report_lines(report: dict) -> list[str]:
    info = report["info"]
    mode = "traced" if report["trace"] else "untraced"
    lines = [
        f"== {report['workload']} ({mode}): {info['calls']} calls of "
        f"{info['ops_per_call']} ops, {info['latency_samples']} latency samples, "
        f"op_p90_ms {info['op_p90_ms']:.3f}"
    ]
    lines.append("  set-ups [s]: " + " ".join(f"{s:.3f}" for s in info["setups_s"]))
    lines.append("  calls [s]:   " + " ".join(f"{s:.3f}" for s in info["call_walls_s"]))
    if report["trace"]:
        units = {m.name: m.unit for m in metrics.PER_LAYER}
        shown = report["per_layer"]
    else:
        units = {m.name: m.unit for m in metrics.END_TO_END}
        shown = report["end_to_end"]
    lines += [f"  {name:<40} {value:>14.4f} {units[name]}" for name, value in shown.items()]
    for name, ok, detail in info["checks"]:
        lines.append(f"  check {name:<24} {'ok' if ok else 'FAILED'}  {detail}")
    for error in info["errors"]:
        lines.append(f"  call error: {error}")
    if info["raised"]:
        lines.append(f"  call raised: {info['raised']}")
    overhead = report["per_layer"].get("ledger.trace_overhead", 0.0)
    if overhead > OVERHEAD_WARNING:
        lines.append(f"  WARNING: trace overhead {overhead:.2f}x exceeds {OVERHEAD_WARNING}x")
    lines.append(
        f"  failed_frac {report['failed']}/{report['attempted']} = "
        f"{report['failed'] / report['attempted']:.4f}"
    )
    return lines


def result_line(report: dict) -> str:
    """The driver's contract: the last line of standard output."""
    defs = metrics.PER_LAYER if report["trace"] else metrics.END_TO_END
    values = report["per_layer"] if report["trace"] else report["end_to_end"]
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in defs},
    })


def stop_children() -> None:
    """Stop and reap every process this one started; none may outlive it."""
    for child in multiprocessing.active_children():
        child.join(timeout=5)
        if child.is_alive():
            child.terminate()
            child.join()
    # The multiprocess engine's shared memory starts multiprocessing's
    # resource tracker, which otherwise exits only after this process has:
    # closing its pipe stops it, and _stop() waits until it has ended.
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def run_one(args: argparse.Namespace) -> int:
    try:
        report = measure(
            args.workload[0], args.seed, args.seconds, bool(args.trace), args.quick
        )
    finally:
        stop_children()
    print("\n".join(report_lines(report)))
    print(result_line(report), flush=True)
    return 0


# -- every workload, each mode in a fresh subprocess --------------------------


def run_all(args: argparse.Namespace) -> int:
    from ledger.workloads import SCALE

    names = args.workload or [w.name for w in metrics.WORKLOADS]
    host = host_fingerprint()
    ledger = {
        "schema": 1,
        "host": host,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": SCALE,
        "comparable": not args.quick,
        "workloads": {},
    }
    failed_total = 0
    for name in names:
        entry = {
            # The multiprocess engine needs a second core to show anything.
            "measurable": not (name == "md_engine" and host["nproc"] < 2),
            "attempted": [],
            "failed": [],
            "end_to_end": {m.name: {"unit": m.unit, "values": []} for m in metrics.END_TO_END},
            "per_layer": {m.name: {"unit": m.unit, "values": []} for m in metrics.PER_LAYER},
        }
        for repeat in range(args.repeat):
            for trace in (0,) if args.no_trace else (0, 1):
                command = [
                    sys.executable, str(LEDGER_DIR / "run.py"), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace),
                ] + (["--quick"] if args.quick else [])
                done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
                if done.returncode != 0:
                    sys.stderr.write(done.stderr)
                    print(f"== {name} (trace {trace}): exited {done.returncode}")
                    return done.returncode
                *text, last = done.stdout.rstrip("\n").split("\n")
                print("\n".join(text), flush=True)
                result = json.loads(last)
                entry["attempted"].append(result["attempted"])
                entry["failed"].append(result["failed"])
                failed_total += result["failed"]
                section = entry["per_layer" if trace else "end_to_end"]
                for metric, value in result["metrics"].items():
                    section[metric]["values"].append(value["value"])
        if not entry["measurable"]:
            print(f"== {name}: UNMEASURED on this host (nproc {host['nproc']} < 2)")
        ledger["workloads"][name] = entry
    if args.quick:
        print("--quick: sizes are a tenth; these numbers are not comparable")
    if args.out:
        Path(args.out).write_text(json.dumps(ledger, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 1 if failed_total else 0


def run_compare(first: str, second: str) -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in manifest["end_to_end"]}
    try:
        rows = comparing.compare(
            json.loads(Path(first).read_text()), json.loads(Path(second).read_text()), bounds
        )
    except comparing.Refused as exc:
        print(f"refused: {exc}")
        return comparing.EXIT_REFUSED
    print(comparing.render(rows))
    return comparing.exit_code(rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", action="append",
                        choices=[w.name for w in metrics.WORKLOADS])
    parser.add_argument("--seed", type=lambda text: abs(int(text)), default=11,
                        help="workload seed (NumPy takes no negative seeds: the sign is dropped)")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run one workload in this process, untraced (0) or traced (1)")
    parser.add_argument("--no-trace", action="store_true", help="skip the traced runs")
    parser.add_argument("--repeat", type=int, default=1, help="invocations per workload")
    parser.add_argument("--quick", action="store_true",
                        help="a tenth of the sizes, for smoke use; not comparable")
    parser.add_argument("--out", help="write the numbers and host fingerprint here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return run_compare(*args.compare)
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else float(metrics.RUN_SECONDS)
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace needs exactly one --workload")
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
