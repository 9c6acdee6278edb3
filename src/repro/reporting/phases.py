"""Per-phase breakdown of a run's simulated step time.

Splits the mean ``Tt`` into the phases the accountant charges -- force,
halo communication, DLB protocol, and everything else (integration,
cell-list upkeep) -- using the recorded columns of a
:class:`~repro.core.results.RunResult`. The "other" share is
the remainder ``Tt - Fmax - comm_max - dlb``, i.e. whatever the critical
PE spent outside the three named phases.
"""

from __future__ import annotations

import numpy as np

from ..core.results import RunResult
from .tables import format_table


def phase_shares(result: RunResult) -> dict[str, float]:
    """Mean seconds per step spent in each phase (keys: force/halo-comm/dlb/other/total)."""
    tt = float(result.tt.mean())
    force = float(result.fmax.mean())
    comm = float(result.comm_max.mean())
    dlb = float(result.dlb_time.mean())
    other = max(0.0, tt - force - comm - dlb)
    return {
        "force": force,
        "halo-comm": comm,
        "dlb": dlb,
        "other": other,
        "total": tt,
    }


def phase_breakdown(result: RunResult, title: str | None = None) -> str:
    """ASCII table of the per-phase mean step time and its share of ``Tt``."""
    shares = phase_shares(result)
    total = shares["total"]
    rows = []
    for phase in ("force", "halo-comm", "dlb", "other"):
        seconds = shares[phase]
        share = seconds / total if total > 0 else np.nan
        rows.append((phase, f"{seconds:.6g}", f"{100.0 * share:5.1f}%"))
    rows.append(("total (Tt)", f"{total:.6g}", "100.0%"))
    return format_table(
        ["phase", "mean s/step", "share"],
        rows,
        title=title or "Per-phase step-time breakdown",
    )
