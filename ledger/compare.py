"""Compare two ledger files metric by metric against the benchmark's bounds."""

from __future__ import annotations

import statistics
from dataclasses import dataclass

#: Exit codes of ``run.py --compare``.
EXIT_OK, EXIT_REGRESSION, EXIT_REFUSED = 0, 1, 2


class Refused(Exception):
    """The two files cannot be compared at all."""


@dataclass(frozen=True)
class Row:
    workload: str
    metric: str
    unit: str
    base: float | None
    new: float | None
    #: Share of ``base`` by which ``new`` is worse (negative = better).
    worse_by: float | None
    bound: float | None
    verdict: str  # "ok" | "REGRESSION" | "UNMEASURED"


def compare(base: dict, new: dict, bounds: dict[str, tuple[str, float]]) -> list[Row]:
    """One row per (workload, end-to-end metric) of ``base``.

    ``bounds`` maps a metric name to ``(better, bound)`` as in
    ``BENCHMARK.json``. Raises :class:`Refused` for files from different
    hosts or from ``--quick`` runs: a ratio across them means nothing.
    """
    for label, ledger in (("first", base), ("second", new)):
        if not ledger.get("comparable", False):
            raise Refused(f"the {label} file is stamped non-comparable (--quick run)")
    if base["host"] != new["host"]:
        differing = sorted(k for k in base["host"] if base["host"][k] != new["host"].get(k))
        raise Refused(f"host fingerprints differ in {differing}; no cross-host ratios")
    if (base["seconds"], base["scale"]) != (new["seconds"], new["scale"]):
        raise Refused("the files were measured with different run lengths or sizes")

    rows: list[Row] = []
    for workload, entry in base["workloads"].items():
        other = new["workloads"].get(workload)
        measurable = entry["measurable"] and other is not None and other["measurable"]
        for metric, recorded in entry["end_to_end"].items():
            better, bound = bounds[metric]
            values = other["end_to_end"].get(metric, {}).get("values") if other else None
            if not measurable or not recorded["values"] or not values:
                rows.append(Row(workload, metric, recorded["unit"], None, None,
                                None, bound, "UNMEASURED"))
                continue
            a = statistics.median(recorded["values"])
            b = statistics.median(values)
            worse_by = (b - a) / a if better == "lower" else (a - b) / a
            verdict = "REGRESSION" if worse_by > bound else "ok"
            rows.append(Row(workload, metric, recorded["unit"], a, b, worse_by, bound, verdict))
        if measurable:
            # failed_frac has an absolute bound of zero: any failure regresses.
            a = sum(entry["failed"]) / sum(entry["attempted"])
            b = sum(other["failed"]) / sum(other["attempted"])
            rows.append(Row(workload, "failed_frac", "ratio", a, b, b - a, 0.0,
                            "REGRESSION" if b > 0 else "ok"))
    return rows


def render(rows: list[Row]) -> str:
    lines = [f"{'workload':<13} {'metric':<12} {'first':>12} {'second':>12} "
             f"{'worse by':>9} {'bound':>6}  verdict"]
    for r in rows:
        if r.base is None:
            lines.append(f"{r.workload:<13} {r.metric:<12} {'-':>12} {'-':>12} "
                         f"{'-':>9} {r.bound:>6.2f}  {r.verdict}")
        else:
            lines.append(
                f"{r.workload:<13} {r.metric:<12} {r.base:>12.4f} {r.new:>12.4f} "
                f"{r.worse_by:>+9.1%} {r.bound:>6.2f}  {r.verdict} [{r.unit}]"
            )
    counts = {v: sum(r.verdict == v for r in rows) for v in ("ok", "REGRESSION", "UNMEASURED")}
    lines.append(
        f"{counts['ok']} ok, {counts['REGRESSION']} regressed, "
        f"{counts['UNMEASURED']} unmeasured (not counted as passing)"
    )
    return "\n".join(lines)


def exit_code(rows: list[Row]) -> int:
    return EXIT_REGRESSION if any(r.verdict == "REGRESSION" for r in rows) else EXIT_OK
