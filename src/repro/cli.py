"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``presets``
    List the named workload presets.
``run``
    Run a preset under one or more balancers (``none`` is plain DDM) and
    print the comparison.
``sweep``
    Run one effective-range boundary experiment (Figure 10 style).  A thin
    alias over the campaign engine: repetitions execute as campaign runs
    (optionally in parallel and against a persistent store).
``campaign``
    Drive named experiment campaigns: ``run``/``resume`` a grid through the
    persistent run store, ``status`` and ``report`` what is stored (the
    report prints each (m, P) pair's fitted E/T: Figure 10 and Table 1)
    and ``list`` the built-ins.
``bounds``
    Print the theoretical upper bounds f(m, n) over a range of n.
``calibrate``
    Measure this host's per-pair force cost for MachineConfig.tau_pair.
``serve``
    Run the simulation service: the asyncio HTTP/JSON API over the
    exactly-once run store (submit / status / stream / result / metrics).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from collections.abc import Sequence

import numpy as np

from . import api
from .campaign import (
    CampaignSpec,
    RunStore,
    campaign_names,
    campaign_report,
    get_campaign,
    render_report,
    run_campaign,
)
from .campaign.artifacts import host_events_path, remove_run_artifacts
from .campaign.pool import DEFAULT_LEASE_TTL
from .config import BALANCER_NAMES, RunConfig
from .core.results import RunResult, write_result_json
from .engine import ENGINE_NAMES
from .errors import (
    AnalysisError,
    ConfigurationError,
    FaultInjectionError,
    ReproError,
    SchemaError,
)
from .obs import (
    EventLog,
    MetricsRegistry,
    Observability,
    collect_events,
    read_events,
    summarize_events,
    validate_events,
    write_trace,
)
from .parallel.costmodel import calibrate_tau_pair
from .reporting import (
    balancer_comparison_report,
    comparison_report,
    flight_report,
    format_table,
    phase_breakdown,
    profile_table,
    series_preview,
)
from .theory.bounds import upper_bound
from .workloads.presets import PRESETS, get_preset


def _cmd_presets(_: argparse.Namespace) -> int:
    rows = [
        (p.name, p.n_particles, p.n_pes, p.m, p.steps, p.description)
        for p in PRESETS.values()
    ]
    print(format_table(["name", "N", "PEs", "m", "steps", "description"], rows))
    return 0


def _print_run_report(
    results: dict[str, RunResult], title: str, record_interval: int
) -> None:
    """The Tt tables and phase breakdowns of ``repro run``; a run shorter
    than ``--record-interval`` kept no row, so only its counts are printed."""
    if not all(result.records for result in results.values()):
        for label, result in results.items():
            print(f"  {label}: steps_run {result.steps_run}, "
                  f"total_moves {result.total_moves} "
                  f"(no step recorded at --record-interval {record_interval})")
        return
    if len(results) == 1:
        ((label, result),) = results.items()
        print(series_preview(result.steps, result.tt, label=f"{label} Tt [s]"))
        print()
        for key, value in result.summary().items():
            print(f"  {key}: {value:.6g}")
    elif len(results) == 2 and "none" in results:
        (other,) = (label for label in results if label != "none")
        print(comparison_report(results["none"], results[other], title=title))
    else:
        print(balancer_comparison_report(results, title=title))
    for label, result in results.items():
        print()
        print(phase_breakdown(
            result, title=f"{label}: per-phase step-time breakdown"
        ))


def _cmd_run(args: argparse.Namespace) -> int:
    preset = get_preset(args.preset)
    steps = args.steps if args.steps is not None else preset.steps
    results = {}
    balancers = list(dict.fromkeys(args.balancer))
    # One run per snapshot directory and per event log: a second runner would
    # restart the log's (step, seq) clock at step 0.
    single_run = (
        args.checkpoint_dir or args.resume or args.checkpoint_every
        or args.kill_after is not None or args.events
    )
    if single_run and len(balancers) != 1:
        print(
            "error: --events/--checkpoint-dir/--checkpoint-every/--resume/"
            "--kill-after need a single balancer (e.g. --balancer permanent)",
            file=sys.stderr,
        )
        return 2
    if args.metrics_every and not args.metrics:
        print("error: --metrics-every needs --metrics FILE", file=sys.stderr)
        return 2
    fault_plan = None
    if args.faults:
        try:
            fault_plan = api.load_faults(args.faults)
        except FaultInjectionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    # Each run records its own log; all runs share one registry.
    observed = args.trace or args.metrics or args.profile or args.events
    registry = MetricsRegistry() if args.metrics else None
    bundles: list[Observability] = []
    audit = (
        api.AuditPolicy(every=args.audit_every, policy=args.audit_policy)
        if args.audit_invariants
        else None
    )
    ckpt_dir = args.resume or args.checkpoint_dir
    checkpoints = (
        api.CheckpointPolicy(
            directory=ckpt_dir,
            every=args.checkpoint_every,
            resume=bool(args.resume),
        )
        if ckpt_dir
        else None
    )
    stop_after = None
    killed_at = None
    if args.kill_after is not None and args.kill_after < steps:
        stop_after = args.kill_after
        killed_at = args.kill_after
    for label in balancers:
        print(f"running {label} ({steps} steps) ...", file=sys.stderr)
        obs = None
        if observed:
            obs = Observability(
                events=EventLog(), metrics=registry,
                metrics_path=args.metrics, metrics_every=args.metrics_every,
            )
            bundles.append(obs)
        try:
            result = api.simulate(
                args.preset,
                run=RunConfig(
                    steps=steps,
                    seed=args.seed,
                    record_interval=args.record_interval,
                    skin=args.skin,
                    balancer=label,
                ),
                engine=args.engine,
                engine_workers=args.engine_workers,
                observability=obs,
                faults=fault_plan,
                audit=audit,
                checkpoints=checkpoints,
                stop_after=stop_after,
            )
        except (ConfigurationError, FaultInjectionError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        results[label] = result
        if result.meta.get("resumed_at") is not None:
            print(
                f"  {label}: resumed from checkpoint at step "
                f"{result.meta['resumed_at']}",
                file=sys.stderr,
            )
        stats = result.meta.get("neighbor_stats") or {}
        if stats.get("reuses"):  # the cached list served at least one step
            print(
                f"  {label}: pair-search rebuilds={stats['rebuilds']} "
                f"reuses={stats['reuses']} (reuse ratio {stats['reuse_ratio']:.2f}, "
                f"acceptance {stats['acceptance_ratio']:.2f})",
                file=sys.stderr,
            )
        audit_summary = result.meta.get("audit")
        if audit_summary is not None:
            print(
                f"  {label}: invariants audited {audit_summary['audits']} times, "
                f"{audit_summary['violations']} violation(s)",
                file=sys.stderr,
            )
    if args.result_json:
        payload = {
            "runs": {
                label: api.result_payload(result)
                for label, result in results.items()
            },
            "killed_at": killed_at,
        }
        write_result_json(args.result_json, payload)
        print(f"wrote result summary to {args.result_json}", file=sys.stderr)
    logs = [bundle.events for bundle in bundles]
    events = logs[0] if args.events else None
    if events is not None:
        # Written even on the --kill-after path: the partial file is a valid
        # prefix, and the resumed run rewrites it byte-identically complete.
        events.write(args.events, channel="sim")
        host_path = host_events_path(args.events)
        events.write(host_path, channel="host")
        print(
            f"wrote {len(events)} events to {args.events} "
            f"(+{len(events.host_records)} host events to {host_path})",
            file=sys.stderr,
        )
    if killed_at is not None:
        print(
            f"killed after step {killed_at} (simulated crash for chaos testing); "
            "resume with --resume",
            file=sys.stderr,
        )
        return 3
    _print_run_report(results, preset.description, args.record_interval)
    if events is not None:
        print()
        print(flight_report(events.records))
    if args.trace:
        count = write_trace(args.trace, logs)
        print(f"wrote {count} trace events to {args.trace}", file=sys.stderr)
    if registry is not None:
        for log in logs:
            collect_events(registry, log)
        registry.write(args.metrics)
        print(f"wrote {len(registry)} metrics to {args.metrics}", file=sys.stderr)
    if args.profile:
        print()
        print(profile_table(logs))
    return 0


def _sweep_campaign(args: argparse.Namespace) -> CampaignSpec:
    """The one-point boundary campaign behind ``repro sweep``.

    Seeds are the raw ``--seed``'s repetition stream (no density/PE
    offsets).
    ``--replay-seed`` instead runs exactly one repetition with the given
    schedule seed -- the value ``campaign report`` prints per repetition.
    """
    from .campaign import RunSpec

    name = f"sweep-m{args.m}-p{args.pes}-rho{args.density}"
    if args.replay_seed is not None:
        run = RunSpec(
            m=args.m, n_pes=args.pes, density=args.density,
            n_steps=args.steps, seed=args.replay_seed,
        )
        return CampaignSpec(
            name=name, runs=(run,),
            description="single-repetition replay from a stored seed",
        )
    return CampaignSpec.boundary_grid(
        name,
        m_values=(args.m,),
        pe_counts=(args.pes,),
        densities=(args.density,),
        n_repetitions=args.reps,
        n_steps=args.steps,
        seed=args.seed,
        density_seed_offset=False,
        description="ad-hoc sweep via the campaign engine",
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    campaign = _sweep_campaign(args)
    print(
        f"boundary experiment: m={args.m}, P={args.pes}, rho={args.density}, "
        f"{len(campaign)} repetitions",
        file=sys.stderr,
    )
    with RunStore(args.dir) as store:
        summary = run_campaign(campaign, store, workers=args.workers)
        report = campaign_report(store, campaign.name)
    (group,) = report.boundary_groups or (None,)
    # The fit through the sweep's one mean point is C0/C ÷ f(m, n) of it (not
    # the JSON ``et_ratio``, the mean of each repetition's own ratio).
    fit = report.fits().get((args.m, args.pes))
    if args.json:
        payload = {
            "m": args.m,
            "pes": args.pes,
            "density": args.density,
            "summary": summary.to_dict(),
            "repetitions": [dict(rep) for rep in group.repetitions] if group else [],
        }
        if group is not None:
            for key in ("n", "c0_ratio", "et_ratio"):
                stats = group.mean_std(key)
                payload[key] = (
                    {"mean": stats[0], "std": stats[1]} if stats else None
                )
            payload["mean_point_et"] = fit.ratio if fit is not None else None
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if group is None or not group.points:
        n_runs = group.n_failed if group else len(campaign)
        print("no divergence detected: DLB balanced the whole sweep "
              f"({n_runs} runs)")
        return 0
    rep_rows = [
        (
            index,
            rep["seed"],
            "yes" if rep["diverged"] else "no",
            f"{rep['n']:.3f}" if rep["diverged"] else "-",
            f"{rep['c0_ratio']:.4f}" if rep["diverged"] else "-",
            f"{rep['et_ratio']:.3f}" if rep.get("et_ratio") else "-",
        )
        for index, rep in enumerate(group.repetitions)
    ]
    print(format_table(
        ["rep", "seed", "diverged", "n", "C0/C (E)", "C0/C÷f"],
        rep_rows,
        title="per-repetition boundary points",
    ))
    mean = group.mean_point
    n_std, c0_std = group.error_range()
    rows = [
        ("detected boundary points",
         f"{len(group.points)}/{len(group.repetitions)}"),
        ("concentration factor n", f"{mean.n:.3f} ± {n_std:.3f}"),
        ("C0/C at boundary (E)", f"{mean.c0_ratio:.4f} ± {c0_std:.4f}"),
        ("theoretical bound f(m, mean n) (T)",
         f"{float(upper_bound(args.m, mean.n)):.4f}"),
        ("E/T of the mean point: mean C0/C ÷ f(m, mean n)", f"{fit.ratio:.3f}"),
    ]
    print(format_table(["quantity", "value"], rows))
    return 0


def _progress_printer(total: int):
    """A progress callback printing one stderr line per scheduling event."""
    state = {"done": 0}

    def progress(event: str, run_hash: str, spec) -> None:
        if event in ("done", "failed", "cached"):
            state["done"] += 1
        if event == "start":
            return
        print(
            f"  [{state['done']}/{total}] {event:9s} {run_hash} "
            f"({spec.kind} m={spec.m} P={spec.n_pes} rho={spec.density} "
            f"seed={spec.seed})",
            file=sys.stderr,
        )

    return progress


def _cmd_campaign(args: argparse.Namespace) -> int:
    verb = args.verb
    if verb == "list":
        rows = []
        for name in campaign_names():
            spec = get_campaign(name)
            rows.append((name, len(spec), spec.description))
        print(format_table(["name", "runs", "description"], rows,
                           title="built-in campaigns"))
        return 0

    if verb in ("run", "resume"):
        campaign = get_campaign(args.name)
        with RunStore(args.dir) as store:
            summary = run_campaign(
                campaign,
                store,
                workers=args.workers,
                timeout=args.timeout,
                retries=args.retries,
                stop_after=args.max_runs,
                progress=None if args.json else _progress_printer(len(campaign)),
                events_dir=args.events_dir,
            )
            if args.json:
                print(json.dumps(summary.to_dict(), indent=2, sort_keys=True))
            else:
                print(
                    f"campaign {campaign.name!r}: {summary.completed} completed, "
                    f"{summary.cached} cached, {summary.failed} failed, "
                    f"{summary.cancelled} cancelled in {summary.wall_s:.1f}s"
                )
        return 1 if summary.failed else 0

    if verb == "status":
        with RunStore(args.dir) as store:
            names = [args.name] if args.name else store.campaigns()
            counts = {name: store.status_counts(name) for name in names}
        if args.json:
            print(json.dumps(counts, indent=2, sort_keys=True))
        else:
            rows = [
                (name, c["done"], c["pending"], c["failed"],
                 c["quarantined"], sum(c.values()))
                for name, c in counts.items()
            ]
            print(format_table(
                ["campaign", "done", "pending", "failed", "quarantined",
                 "total"],
                rows, title="run store status",
            ))
        return 0

    if verb == "gc":
        statuses = tuple(
            status.strip() for status in args.status.split(",") if status.strip()
        )
        try:
            age_s = _parse_duration(args.older_than)
            with RunStore(args.dir) as store:
                evicted = store.evict_older_than(
                    age_s, statuses=statuses, campaign=args.name
                )
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        removed_artifacts = 0
        for run_hash in evicted:
            removed_artifacts += remove_run_artifacts(
                run_hash, args.dir, args.events_dir
            )
        if args.json:
            print(json.dumps(
                {"evicted": evicted, "count": len(evicted),
                 "artifacts_removed": removed_artifacts},
                indent=2, sort_keys=True,
            ))
        else:
            print(
                f"evicted {len(evicted)} run(s) older than {args.older_than} "
                f"({removed_artifacts} artifact file(s) removed); evicted "
                f"runs re-execute on resubmission"
            )
        return 0

    if verb == "report":
        with RunStore(args.dir) as store:
            report = campaign_report(store, args.name)
        if args.json:
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        else:
            print(render_report(report))
        return 0

    raise AssertionError(f"unhandled campaign verb {verb!r}")  # pragma: no cover


_DURATION_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}


def _parse_duration(text: str) -> float:
    """Parse ``90``/``90s``/``15m``/``2h``/``7d`` into seconds."""
    text = text.strip().lower()
    unit = 1.0
    if text and text[-1] in _DURATION_UNITS:
        unit = _DURATION_UNITS[text[-1]]
        text = text[:-1]
    try:
        value = float(text)
    except ValueError:
        raise ReproError(
            f"unreadable duration {text!r} (use e.g. 90, 90s, 15m, 2h, 7d)"
        ) from None
    if value < 0:
        raise ReproError(f"duration must be >= 0, got {value}")
    return value * unit


def _cmd_runs(args: argparse.Namespace) -> int:
    """The ``repro runs`` group: quarantine inspection and requeue."""
    verb = args.verb
    if verb == "quarantine":
        with RunStore(args.dir) as store:
            rows = store.quarantined_runs(args.name)
        if args.json:
            print(json.dumps(
                [
                    {
                        "run_id": stored.hash,
                        "campaign": stored.campaign,
                        "attempts": stored.attempts,
                        "failed_owners": list(stored.failed_owners),
                        "quarantine": stored.error_payload,
                    }
                    for stored in rows
                ],
                indent=2, sort_keys=True,
            ))
        else:
            table = [
                (
                    stored.hash,
                    stored.campaign,
                    stored.attempts,
                    len(stored.failed_owners),
                    (stored.error_payload or {}).get("reason", ""),
                )
                for stored in rows
            ]
            print(format_table(
                ["run", "campaign", "attempts", "instances", "reason"],
                table, title="quarantined runs",
            ))
        return 0

    if verb == "requeue":
        with RunStore(args.dir) as store:
            ok = store.requeue_quarantined(args.hash)
        if not ok:
            print(
                f"error: run {args.hash!r} is not quarantined in {args.dir}",
                file=sys.stderr,
            )
            return 2
        print(f"run {args.hash} requeued as pending (failure history cleared)")
        return 0

    raise AssertionError(f"unhandled runs verb {verb!r}")  # pragma: no cover


def _bounds_grid(args: argparse.Namespace) -> tuple[np.ndarray, dict[int, list[float]]]:
    n = np.linspace(args.n_min, args.n_max, args.points)
    curves = {m: [float(upper_bound(m, value)) for value in n] for m in (2, 3, 4)}
    return n, curves


def _cmd_bounds(args: argparse.Namespace) -> int:
    n, curves = _bounds_grid(args)
    if args.json:
        print(json.dumps(
            {"n": [float(v) for v in n]}
            | {f"f{m}": values for m, values in curves.items()},
            indent=2, sort_keys=True,
        ))
        return 0
    rows = []
    for i, value in enumerate(n):
        rows.append(
            (f"{value:.2f}",) + tuple(f"{curves[m][i]:.4f}" for m in (2, 3, 4))
        )
    print(format_table(["n", "f(2,n)", "f(3,n)", "f(4,n)"], rows,
                       title="Theoretical upper bounds (Equations 9-11)"))
    return 0


def _cmd_events(args: argparse.Namespace) -> int:
    try:
        records = read_events(args.file)
        validate_events(records, source=args.file)
    except (OSError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.verb == "tail":
        for record in records[-args.lines:] if args.lines > 0 else []:
            print(json.dumps(record, sort_keys=True, separators=(",", ":")))
        return 0
    if args.json:
        print(json.dumps(summarize_events(records), indent=2, sort_keys=True))
    else:
        print(flight_report(records, title=f"Flight recorder: {args.file}"))
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from .dlb.explain import explain_events, render_explanation

    try:
        records = read_events(args.events)
        validate_events(records, source=args.events)
        decisions = explain_events(records, step=args.step)
    except (OSError, SchemaError, AnalysisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not decisions:
        print("no balancer decisions recorded "
              "(DDM run, or the balancer never fired)")
        return 0
    for index, decision in enumerate(decisions):
        if index:
            print()
        print(render_explanation(decision))
    return 0 if all(decision.matches for decision in decisions) else 1


def _cmd_calibrate(args: argparse.Namespace) -> int:
    tau = calibrate_tau_pair(n_particles=args.particles, repeats=args.repeats)
    print(f"measured tau_pair on this host: {tau:.3e} s per candidate pair")
    print("use it via:  MachineConfig(tau_pair=%.3e)" % tau)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported lazily: the HTTP server is needed by no other subcommand.
    from .service import ServiceConfig, serve

    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    try:
        serve(ServiceConfig(
            host=args.host,
            port=args.port,
            store_dir=args.dir,
            workers=args.workers,
            queue_size=args.queue_size,
            run_timeout=args.timeout,
            retries=args.retries,
            events_dir=args.events_dir,
            lease_ttl=args.lease_ttl,
            reap_interval=args.reap_interval,
            max_attempts=args.max_attempts,
            checkpoint_every=args.checkpoint_every,
            result_ttl_s=(
                _parse_duration(args.result_ttl)
                if args.result_ttl is not None else None
            ),
            gc_interval_s=args.gc_interval,
        ))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # pragma: no cover - interactive convenience
        pass
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dynamic load balancing with permanent cells for parallel MD "
        "(Hayashi & Horiguchi, IPPS 2000) -- reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("presets", help="list named workload presets").set_defaults(
        func=_cmd_presets
    )

    run = sub.add_parser(
        "run", help="run a preset under one or more balancers (default: DDM and DLB-DDM)"
    )
    run.add_argument("preset", help="preset name (see `repro presets`)")
    run.add_argument("--steps", type=int, default=None)
    run.add_argument("--seed", type=int, default=7)
    run.add_argument("--record-interval", type=int, default=20)
    run.add_argument(
        "--skin",
        type=float,
        default=0.4,
        help="neighbour-list skin radius (the cached pair list is rebuilt "
        "once a particle moves skin/2)",
    )
    run.add_argument(
        "--balancer",
        nargs="+",
        choices=list(BALANCER_NAMES),
        default=["none", "permanent"],
        help="one run per named balancer, in order: none (plain DDM), "
        "permanent (the paper's permanent-cell protocol), diffusion "
        "(nearest-neighbour load diffusion), sfc (space-filling-curve "
        "repartition); default: none permanent, the Figure 5 comparison",
    )
    run.add_argument(
        "--engine",
        choices=list(ENGINE_NAMES),
        default=None,
        help="execution engine for the force pass (default: classic in-process; "
        "multiprocess splits its force blocks over worker processes; every "
        "engine gives the classic path's digest)",
    )
    run.add_argument(
        "--engine-workers",
        type=int,
        default=None,
        metavar="N",
        help="worker-process count for --engine multiprocess "
        "(default: min(4, cpu count))",
    )
    run.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a Chrome trace-event JSON timeline (Perfetto-loadable)",
    )
    run.add_argument(
        "--metrics",
        metavar="FILE",
        default=None,
        help="write the metrics registry as Prometheus text",
    )
    run.add_argument(
        "--profile",
        action="store_true",
        help="print the host kernel wall-clock profile after the run",
    )
    run.add_argument(
        "--metrics-every",
        type=int,
        default=0,
        metavar="N",
        help="also flush the metrics registry to the --metrics file every N "
        "steps (live telemetry for long runs; 0 = final write only)",
    )
    run.add_argument(
        "--events",
        metavar="FILE",
        default=None,
        help="record the flight recorder to FILE as JSONL (sim channel; host "
        "events go to a .host sidecar); single balancer only — inspect with "
        "`repro events` and `repro explain`",
    )
    run.add_argument(
        "--faults",
        metavar="PLAN",
        default=None,
        help="JSON fault plan: seeded per-PE slowdowns/jitter/stalls, per-tag "
        "message loss/delay/duplication, dropped DLB timing reports",
    )
    run.add_argument(
        "--audit-invariants",
        action="store_true",
        help="validate the permanent-cell structural invariants while running",
    )
    run.add_argument(
        "--audit-every",
        type=int,
        default=1,
        metavar="N",
        help="invariant-audit cadence in steps (default: every step)",
    )
    run.add_argument(
        "--audit-policy",
        choices=["raise", "log"],
        default="raise",
        help="on violation: raise InvariantViolation (default) or log and continue",
    )
    run.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="directory for crash-safe snapshots (single balancer only)",
    )
    run.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="N",
        help="snapshot cadence in steps (0 = never; needs --checkpoint-dir)",
    )
    run.add_argument(
        "--resume",
        metavar="DIR",
        default=None,
        help="resume from the newest checkpoint in DIR (bit-identical to an "
        "uninterrupted run)",
    )
    run.add_argument(
        "--kill-after",
        type=int,
        default=None,
        metavar="K",
        help="simulate a crash: stop after step K with exit code 3 "
        "(checkpoints already written remain usable)",
    )
    run.add_argument(
        "--result-json",
        metavar="FILE",
        default=None,
        help="write summary + bit-exact digest (for comparing resumed runs)",
    )
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser(
        "sweep",
        help="run one effective-range experiment (campaign-engine alias)",
    )
    sweep.add_argument("--m", type=int, default=3)
    sweep.add_argument("--pes", type=int, default=9)
    sweep.add_argument("--density", type=float, default=0.256)
    sweep.add_argument("--reps", type=int, default=4)
    sweep.add_argument("--steps", type=int, default=110)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument(
        "--replay-seed", type=int, default=None,
        help="replay exactly one repetition with this schedule seed "
        "(the per-repetition seed `campaign report` prints)",
    )
    sweep.add_argument("--workers", type=int, default=1,
                       help="process-pool size (1 = run inline)")
    sweep.add_argument("--dir", default=None,
                       help="persistent run-store directory (default: in-memory)")
    sweep.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON instead of tables")
    sweep.set_defaults(func=_cmd_sweep)

    campaign = sub.add_parser(
        "campaign", help="run, resume and report experiment campaigns"
    )
    campaign_sub = campaign.add_subparsers(dest="verb", required=True)

    def _store_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dir", default=".campaigns",
                       help="run-store directory (default: .campaigns)")
        p.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON instead of tables")

    campaign_sub.add_parser("list", help="list built-in campaigns").set_defaults(
        func=_cmd_campaign
    )
    for verb, help_text in (
        ("run", "execute a campaign (cached runs are skipped)"),
        ("resume", "synonym of run: continue an interrupted campaign"),
    ):
        p = campaign_sub.add_parser(verb, help=help_text)
        p.add_argument("name", help="campaign name (see `repro campaign list`)")
        p.add_argument("--workers", type=int, default=1,
                       help="process-pool size (1 = run inline)")
        p.add_argument("--timeout", type=float, default=None,
                       help="per-run wall-clock budget in seconds")
        p.add_argument("--retries", type=int, default=1,
                       help="extra attempts per failing run")
        p.add_argument("--max-runs", type=int, default=None,
                       help="stop after this many new completions (CI smoke)")
        p.add_argument("--events-dir", metavar="DIR", default=None,
                       help="record each run's flight-recorder log as "
                       "DIR/<run_hash>.events.jsonl (boundary runs excluded)")
        _store_args(p)
        p.set_defaults(func=_cmd_campaign)
    status = campaign_sub.add_parser("status", help="run-store status counts")
    status.add_argument("name", nargs="?", default=None)
    _store_args(status)
    status.set_defaults(func=_cmd_campaign)
    report = campaign_sub.add_parser("report", help="aggregate stored payloads")
    report.add_argument("name")
    _store_args(report)
    report.set_defaults(func=_cmd_campaign)
    gc = campaign_sub.add_parser(
        "gc", help="evict stored results older than a cutoff (result TTL)"
    )
    gc.add_argument("name", nargs="?", default=None,
                    help="restrict eviction to one campaign")
    gc.add_argument("--older-than", required=True, metavar="AGE",
                    help="evict terminal runs not updated for AGE "
                    "(e.g. 90s, 15m, 2h, 7d)")
    gc.add_argument("--status", default="done",
                    help="comma-separated terminal statuses to evict "
                    "(default: done)")
    gc.add_argument("--events-dir", metavar="DIR", default=None,
                    help="also delete the evicted runs' event logs from DIR")
    _store_args(gc)
    gc.set_defaults(func=_cmd_campaign)

    events = sub.add_parser(
        "events", help="inspect a flight-recorder event log (JSONL)"
    )
    events_sub = events.add_subparsers(dest="verb", required=True)
    tail = events_sub.add_parser("tail", help="print the last N event records")
    tail.add_argument("file", help="events JSONL file (from `repro run --events`)")
    tail.add_argument("-n", "--lines", type=int, default=10,
                      help="records to print (default: 10)")
    tail.set_defaults(func=_cmd_events)
    ev_summary = events_sub.add_parser(
        "summary", help="validate and aggregate an event log"
    )
    ev_summary.add_argument("file",
                            help="events JSONL file (from `repro run --events`)")
    ev_summary.add_argument("--json", action="store_true",
                            help="emit machine-readable JSON instead of a table")
    ev_summary.set_defaults(func=_cmd_events)

    explain = sub.add_parser(
        "explain",
        help="replay logged balancer decisions and explain why cells moved",
    )
    explain.add_argument("events",
                         help="events JSONL file (from `repro run --events`)")
    explain.add_argument(
        "--step", type=int, default=None, metavar="K",
        help="explain only the decision at step K (default: every decision); "
        "exit code 1 when any replay diverges from the log",
    )
    explain.set_defaults(func=_cmd_explain)

    bounds = sub.add_parser("bounds", help="print the theoretical bounds f(m, n)")
    bounds.add_argument("--n-min", type=float, default=1.0)
    bounds.add_argument("--n-max", type=float, default=4.0)
    bounds.add_argument("--points", type=int, default=13)
    bounds.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of a table")
    bounds.set_defaults(func=_cmd_bounds)

    calibrate = sub.add_parser(
        "calibrate", help="measure this host's per-pair force cost"
    )
    calibrate.add_argument("--particles", type=int, default=4096)
    calibrate.add_argument("--repeats", type=int, default=3)
    calibrate.set_defaults(func=_cmd_calibrate)

    serve = sub.add_parser(
        "serve",
        help="run the simulation service (HTTP/JSON API over the run store)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8321,
                       help="listen port (0 = ephemeral; default: 8321)")
    serve.add_argument("--dir", default=".campaigns/service",
                       help="run-store directory (default: .campaigns/service)")
    serve.add_argument("--workers", type=int, default=2,
                       help="concurrent worker slots (default: 2)")
    serve.add_argument("--queue-size", type=int, default=64,
                       help="bounded submission queue; a full queue answers "
                       "429 with Retry-After (default: 64)")
    serve.add_argument("--timeout", type=float, default=None,
                       help="per-run wall-clock budget in seconds")
    serve.add_argument("--retries", type=int, default=1,
                       help="extra attempts per failing run (default: 1)")
    serve.add_argument("--events-dir", metavar="DIR", default=None,
                       help="record flight-recorder logs for submissions "
                       "that ask (record_events: true), served from "
                       "/v1/runs/<id>/events")
    serve.add_argument("--lease-ttl", type=float, default=DEFAULT_LEASE_TTL,
                       help="run-lease TTL in seconds (> 0); siblings sharing "
                       "the store reclaim runs whose lease expires "
                       "(default: %(default)g)")
    serve.add_argument("--reap-interval", type=float, default=None,
                       help="lease renewal / reaper cadence in seconds "
                       "(default: lease TTL / 3)")
    serve.add_argument("--max-attempts", type=int, default=3,
                       help="distinct instances that must fail a run before "
                       "it is quarantined terminally (default: 3)")
    serve.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                       help="checkpoint preset runs every N steps so a "
                       "reclaimed run resumes mid-flight (default: 0 = off)")
    serve.add_argument("--result-ttl", metavar="AGE", default=None,
                       help="evict stored results older than AGE (e.g. 2h, "
                       "7d) on a periodic sweep (default: keep forever)")
    serve.add_argument("--gc-interval", type=float, default=60.0,
                       help="seconds between result-TTL sweeps (default: 60)")
    serve.set_defaults(func=_cmd_serve)

    runs = sub.add_parser(
        "runs", help="inspect and manage individual stored runs"
    )
    runs_sub = runs.add_subparsers(dest="verb", required=True)
    quarantine = runs_sub.add_parser(
        "quarantine",
        help="list quarantined runs with their structured error payloads",
    )
    quarantine.add_argument("name", nargs="?", default=None,
                            help="restrict to one campaign")
    quarantine.add_argument("--dir", default=".campaigns/service",
                            help="run-store directory "
                            "(default: .campaigns/service)")
    quarantine.add_argument("--json", action="store_true",
                            help="emit machine-readable JSON instead of a table")
    quarantine.set_defaults(func=_cmd_runs)
    requeue = runs_sub.add_parser(
        "requeue", help="lift a run's quarantine (back to pending)"
    )
    requeue.add_argument("hash", help="the quarantined run's hash")
    requeue.add_argument("--dir", default=".campaigns/service",
                         help="run-store directory "
                         "(default: .campaigns/service)")
    requeue.set_defaults(func=_cmd_runs)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
