"""The ledger's metric and workload definitions.

This is the one place a metric or workload name is spelled out;
``BENCHMARK.json`` is ``manifest()`` written to disk (``test_ledger.py``
keeps the two equal) and ``run.py`` reports exactly these names.
"""

from __future__ import annotations

from dataclasses import dataclass

#: How long one run measures, in seconds (the ``--seconds`` default).
RUN_SECONDS = 10


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


WORKLOADS = (
    Workload(
        "md_kdtree",
        "Paper regime on the default path (kdtree search, numpy kernel, permanent "
        "balancer), N=8000 clustered on 16 PEs: pair search does most of the work.",
    ),
    Workload(
        "md_verlet",
        "Same system with the cached Verlet list: the force kernel does most of the "
        "work and pair search little, so a pair-search gain must read as no change here.",
    ),
    Workload(
        "md_engine",
        "N=4096 on 16 PEs through the multiprocess engine (2 workers): the per-PE "
        "decomposed pass plus IPC and barrier, which the classic path never runs.",
    ),
    Workload(
        "driven_sweep",
        "First fifth of a Fig. 10 sweep (m=3, 36 PEs, N=27005), 8 balancer rounds per "
        "configuration and no MD: halo, accounting and DLB do all the work.",
    ),
    Workload(
        "service_mix",
        "Closed loop of 2 clients on an in-process service (SQLite store, 1 worker): "
        "short preset and probe runs, each resubmitted at once for a cache hit.",
    ),
)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may get worse.
    bound: float
    what: str


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "median of the set-up repetitions: input generation, configuration or "
             "schedule materialisation, server start, warm-up call"),
    EndToEnd("ops_per_s", "1/s", "higher", 0.25,
             "operations (MD steps, balancer rounds, served cold runs) per wall second "
             "of a whole API call or batch; median over the calls of a run"),
    EndToEnd("op_p50_ms", "ms", "lower", 0.25,
             "median latency of one user-visible operation: one simulate call, one "
             "driven configuration, one cold submit-to-result"),
    EndToEnd("sim_tt_ms", "ms", "lower", 0.15,
             "mean simulated step time Tt of the virtual T3E (Fig. 5 y-axis); "
             "deterministic per seed, guards balancer quality and the cost model"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10,
             "ru_maxrss of the benchmark process"),
)


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    #: End-to-end metric this layer metric should move.
    moves: str
    #: Workload on which it does most of the work ("" = every workload).
    where: str


def _span(name: str, moves: str, where: str) -> tuple[PerLayer, PerLayer]:
    return (
        PerLayer(f"{name}.self_ms", "ms", "lower", moves, where),
        PerLayer(f"{name}.calls", "count", "lower", moves, where),
    )


#: Span names whose self time and call count are reported, with the
#: prediction of which end-to-end metric they move and where.
SPANS = (
    ("md.pair_search", "ops_per_s", "md_kdtree"),
    ("md.kernel", "ops_per_s", "md_verlet"),
    ("md.force", "ops_per_s", "md_kdtree"),
    ("md.integrate", "ops_per_s", "md_verlet"),
    ("md.thermostat", "ops_per_s", "md_verlet"),
    ("md.cell_counts", "ops_per_s", "md_verlet"),
    ("core.step", "ops_per_s", ""),
    ("core.accounting", "ops_per_s", "driven_sweep"),
    ("core.charge_moves", "ops_per_s", "driven_sweep"),
    ("parallel.cost_model", "ops_per_s", "driven_sweep"),
    ("decomp.halo", "ops_per_s", "driven_sweep"),
    ("decomp.transfer", "ops_per_s", "driven_sweep"),
    ("dlb.decide", "ops_per_s", "driven_sweep"),
)

PER_LAYER = (
    *(metric for span in SPANS for metric in _span(*span)),
    PerLayer("core.step.ms_p50", "ms", "lower", "ops_per_s", ""),
    PerLayer("core.step.ms_p90", "ms", "lower", "ops_per_s", ""),
    PerLayer("core.digest.ms", "ms", "lower", "ops_per_s", ""),
    PerLayer("engine.force_pass.ms", "ms", "lower", "ops_per_s", "md_engine"),
    PerLayer("engine.bind.ms", "ms", "lower", "ops_per_s", "md_engine"),
    PerLayer("engine.wait_ms", "ms", "lower", "ops_per_s", "md_engine"),
    PerLayer("core.ddm.per_pe_sum_ms", "ms", "lower", "ops_per_s", "md_engine"),
    PerLayer("campaign.store.register.ms_p50", "ms", "lower", "op_p50_ms", "service_mix"),
    PerLayer("campaign.store.acquire_lease.ms_p50", "ms", "lower", "op_p50_ms", "service_mix"),
    PerLayer("campaign.store.complete.ms_p50", "ms", "lower", "op_p50_ms", "service_mix"),
    PerLayer("campaign.store.get.ms_p50", "ms", "lower", "op_p50_ms", "service_mix"),
    PerLayer("campaign.store.calls_per_submission", "count", "lower", "op_p50_ms", "service_mix"),
    PerLayer("campaign.exec.ms_mean", "ms", "lower", "ops_per_s", "service_mix"),
    PerLayer("service.submit_rtt.ms_p50", "ms", "lower", "op_p50_ms", "service_mix"),
    PerLayer("service.wait.ms_p50", "ms", "lower", "op_p50_ms", "service_mix"),
    PerLayer("service.result_rtt.ms_p50", "ms", "lower", "op_p50_ms", "service_mix"),
    PerLayer("service.submit_to_result.ms_p90", "ms", "lower", "op_p50_ms", "service_mix"),
    PerLayer("service.cache_hit.ms_p50", "ms", "lower", "op_p50_ms", "service_mix"),
    PerLayer("service.cache_hit.ms_p90", "ms", "lower", "op_p50_ms", "service_mix"),
    PerLayer("service.queue_overhead.ms_mean", "ms", "lower", "op_p50_ms", "service_mix"),
    PerLayer("service.dedup_hits", "count", "higher", "", "service_mix"),
    PerLayer("service.over_direct", "ratio", "lower", "ops_per_s", "service_mix"),
    PerLayer("md.pairs_accepted", "count", "lower", "", ""),
    PerLayer("md.candidates", "count", "lower", "", ""),
    PerLayer("md.acceptance_ratio", "ratio", "higher", "", ""),
    PerLayer("md.verlet_reuse_ratio", "ratio", "higher", "ops_per_s", "md_verlet"),
    PerLayer("md.kernel.ns_per_pair", "ns", "lower", "ops_per_s", "md_verlet"),
    PerLayer("dlb.moves_per_step", "count", "lower", "", ""),
    PerLayer("dlb.spread_first_ms", "ms", "lower", "sim_tt_ms", ""),
    PerLayer("dlb.spread_last_ms", "ms", "lower", "sim_tt_ms", ""),
    PerLayer("ledger.trace_overhead", "ratio", "lower", "", ""),
    PerLayer("ledger.root_coverage", "ratio", "higher", "", ""),
    PerLayer("ledger.cpu_per_wall", "ratio", "lower", "ops_per_s", ""),
)


def manifest() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "ledger/run.py"],
        "paths": ["ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
