"""Flight-recorder report: an ASCII digest of one run's event log.

Renders what :func:`repro.obs.events.summarize_events` aggregates — event
counts per kind, the step span, lend/return traffic, fault and audit
tallies — plus the imbalance analytics the ``run.end`` record embeds
(max/mean ratio, the paper's parallel-efficiency estimate, straggler
attribution, and the cumulative DLB benefit versus the no-balance
counterfactual). This is the block behind ``repro events summary`` and the
flight section of ``repro run --events``. :func:`profile_table` renders the
logs' host scope records: the ``repro run --profile`` table.
"""

from __future__ import annotations

from .tables import format_table

__all__ = ["flight_report", "profile_table"]


def _fmt_seconds(value: float | None) -> str:
    return "-" if value is None else f"{value:.6g} s"


def flight_report(records: list[dict], title: str | None = None) -> str:
    """ASCII report of an event-record list (see :func:`read_events`)."""
    from ..obs.events import summarize_events

    summary = summarize_events(records)
    if summary["events"] == 0:
        return "flight recorder: no events recorded"
    kind_rows = [
        (kind, count) for kind, count in summary["kinds"].items()
    ]
    table = format_table(
        ["event kind", "count"],
        kind_rows,
        title=title or "Flight recorder: event summary",
    )
    span = f"steps {summary['first_step']}..{summary['last_step']}"
    lines = [
        table,
        f"  {summary['events']} events over {span}",
        f"  balancer traffic: {summary['lends']} lend(s), "
        f"{summary['returns']} return(s)",
    ]
    if summary["fault_messages"] or summary["fault_stalls"]:
        lines.append(
            f"  faults: {summary['fault_messages']} message perturbation(s), "
            f"{summary['fault_stalls']} compute stall(s)"
        )
    if summary["audits"]:
        lines.append(
            f"  audits: {summary['audits']} run, "
            f"{summary['audit_violations']} violation(s)"
        )
    imbalance = summary["imbalance"]
    if imbalance:
        lines.append(
            f"  imbalance: mean ratio {imbalance['mean_ratio']:.4f}, "
            f"efficiency {imbalance['mean_efficiency']:.4f}, "
            f"worst {imbalance['worst_ratio']:.4f} @ step "
            f"{imbalance['worst_step']}"
        )
        straggler = imbalance.get("top_straggler")
        if straggler is not None:
            counts = imbalance.get("straggler_counts") or []
            held = counts[straggler] if straggler < len(counts) else 0
            lines.append(
                f"  top straggler: PE {straggler} set the barrier on "
                f"{held}/{imbalance['steps']} step(s)"
            )
        benefit = imbalance.get("dlb_benefit_seconds")
        if benefit is not None:
            lines.append(
                f"  DLB benefit vs no-balance counterfactual: "
                f"{_fmt_seconds(benefit)} saved "
                f"({_fmt_seconds(imbalance['counterfactual_seconds'])} -> "
                f"{_fmt_seconds(imbalance['actual_seconds'])})"
            )
    return "\n".join(lines)


def profile_table(logs, title: str = "host kernel profile (wall clock)") -> str:
    """One row per host scope over ``logs``, by total time descending."""
    from ..obs.events import profile

    rows = [
        (name, stat["count"], stat["total_s"], stat["mean_s"], stat["max_s"])
        for name, stat in profile(logs).items()
    ]
    return format_table(
        ["scope", "calls", "total [s]", "mean [s]", "max [s]"], rows, title=title
    )
