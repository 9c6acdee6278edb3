"""Higher-level report builders used by the CLI and the examples."""

from __future__ import annotations

import numpy as np

from ..core.results import RunResult
from .tables import format_table


def series_preview(
    steps: np.ndarray, values: np.ndarray, n_points: int = 10, label: str = "value"
) -> str:
    """Down-sample a series into a small ASCII table for terminal display."""
    steps = np.asarray(steps)
    values = np.asarray(values)
    if len(steps) == 0:
        return f"(empty {label} series)"
    idx = np.unique(np.linspace(0, len(steps) - 1, min(n_points, len(steps))).astype(int))
    rows = [(int(steps[i]), float(values[i])) for i in idx]
    return format_table(["step", label], rows)


def comparison_report(ddm: RunResult, dlb: RunResult, title: str = "DDM vs DLB-DDM") -> str:
    """Side-by-side summary of a DDM run against its DLB-DDM counterpart.

    This is the textual form of Figure 5: the interesting outcome is the
    growth of DDM's per-step time against DLB-DDM's flat profile.
    """
    d = ddm.summary()
    b = dlb.summary()
    rows = []
    for key in ("tt_first", "tt_last", "tt_mean", "tt_max", "spread_last", "total_moves"):
        rows.append((key, d[key], b[key]))
    growth_ddm = d["tt_last"] / d["tt_first"] if d["tt_first"] > 0 else float("nan")
    growth_dlb = b["tt_last"] / b["tt_first"] if b["tt_first"] > 0 else float("nan")
    rows.append(("tt growth (last/first)", growth_ddm, growth_dlb))
    return format_table(["metric", "DDM", "DLB-DDM"], rows, title=title)


def balancer_comparison_report(
    results: "dict[str, RunResult | dict]", title: str = "Balancer comparison"
) -> str:
    """One row per balancer strategy, side by side over the same workload.

    ``results`` maps a strategy name (``permanent``, ``diffusion``, ``sfc``,
    ``none``, ...) to either a :class:`~repro.core.results.RunResult` or an
    already-computed summary dict (a campaign payload works directly). Rows
    keep insertion order, so callers control the comparison's reading order;
    the ``none`` baseline is the natural first row.
    """
    if not results:
        return f"(empty {title!r}: no balancer results)"
    rows = []
    for name, result in results.items():
        summary = result.summary() if isinstance(result, RunResult) else result
        tt_first = float(summary.get("tt_first", 0.0))
        tt_last = float(summary.get("tt_last", 0.0))
        growth = tt_last / tt_first if tt_first > 0 else float("nan")
        rows.append(
            (
                name,
                f"{float(summary.get('tt_mean', 0.0)):.5f}",
                f"{tt_last:.5f}",
                f"{float(summary.get('tt_max', 0.0)):.5f}",
                f"{float(summary.get('spread_last', 0.0)):.5f}",
                int(summary.get("total_moves", 0)),
                f"{growth:.3f}",
            )
        )
    return format_table(
        ["balancer", "tt_mean", "tt_last", "tt_max", "spread_last", "moves",
         "tt growth"],
        rows,
        title=title,
    )
