"""Campaign reports: aggregate stored payloads back into figure/table form.

A report never re-executes anything -- it reads the run store, groups the
``done`` payloads of one campaign by experiment point and summarises them:

* ``boundary`` runs group by ``(m, P, density)`` and report *every*
  repetition's boundary point alongside the mean and spread (the paper plots
  the mean; the spread is what the error bars in Figure 10 come from), plus
  the theory bound and E/T ratio.  Each repetition's seed is printed, so any
  single run can be replayed from the report alone.
* ``preset`` runs are listed by preset, mode and balancer with the DDM vs
  DLB-DDM per-step times side by side (the Figure 5 comparison). Payloads
  stored before the pair-search axis was removed still carry a
  ``backend`` key; it is ignored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import mode_label
from ..reporting.tables import format_table
from .store import RunStore, StoredRun


def _balancer_of(payload: dict) -> str:
    """The balancer a preset payload ran under. Older DDM payloads name the
    unused default beside ``"mode": "ddm"``; pre-seam ones name none."""
    if payload["mode"] == "ddm":
        return "none"
    return payload.get("balancer", "permanent")


@dataclass(frozen=True)
class BoundaryGroup:
    """All repetitions of one (m, P, density) boundary point."""

    m: int
    n_pes: int
    density: float
    repetitions: tuple[dict, ...]

    @property
    def seeds(self) -> tuple[int, ...]:
        """Per-repetition schedule seeds, in run order."""
        return tuple(int(rep["seed"]) for rep in self.repetitions)

    @property
    def points(self) -> tuple[dict, ...]:
        """The diverged repetitions (those that produced a boundary point)."""
        return tuple(rep for rep in self.repetitions if rep["diverged"])

    @property
    def n_failed(self) -> int:
        """Repetitions whose spread never diverged."""
        return len(self.repetitions) - len(self.points)

    def mean_std(self, key: str) -> tuple[float, float] | None:
        """Mean and std of one payload field across the diverged reps."""
        values = [float(rep[key]) for rep in self.points if rep.get(key) is not None]
        if not values:
            return None
        return float(np.mean(values)), float(np.std(values))

    @property
    def mean_et_ratio(self) -> float | None:
        """Mean experimental/theoretical boundary ratio."""
        stats = self.mean_std("et_ratio")
        return stats[0] if stats else None


@dataclass(frozen=True)
class CampaignReport:
    """Aggregated view of one campaign's stored payloads."""

    campaign: str
    counts: dict[str, int]
    boundary_groups: tuple[BoundaryGroup, ...]
    preset_rows: tuple[dict, ...]
    failures: tuple[StoredRun, ...]

    @property
    def complete(self) -> bool:
        """Whether every registered run of the campaign is ``done``."""
        return self.counts.get("done", 0) == sum(self.counts.values())


def _group_boundaries(payloads: list[dict]) -> tuple[BoundaryGroup, ...]:
    grouped: dict[tuple[int, int, float], list[dict]] = {}
    for payload in payloads:
        key = (int(payload["m"]), int(payload["n_pes"]), float(payload["density"]))
        grouped.setdefault(key, []).append(payload)
    return tuple(
        BoundaryGroup(m=m, n_pes=n_pes, density=density, repetitions=tuple(reps))
        for (m, n_pes, density), reps in sorted(grouped.items())
    )


def campaign_report(store: RunStore, campaign: str) -> CampaignReport:
    """Build the aggregated report of one campaign from the store."""
    rows = store.runs(campaign)
    boundary: list[dict] = []
    presets: list[dict] = []
    failures: list[StoredRun] = []
    for row in rows:
        if row.status == "failed":
            failures.append(row)
        if row.status != "done" or row.payload is None:
            continue
        kind = row.payload.get("kind")
        if kind == "boundary":
            boundary.append(row.payload)
        elif kind == "preset":
            presets.append(row.payload)
    return CampaignReport(
        campaign=campaign,
        counts=store.status_counts(campaign),
        boundary_groups=_group_boundaries(boundary),
        preset_rows=tuple(presets),
        failures=tuple(failures),
    )


def group_experiment(group: BoundaryGroup):
    """Rebuild a :class:`~repro.experiments.fig10.BoundaryExperiment`.

    Stored campaign payloads carry everything a repetition outcome holds, so
    the serial drivers' aggregation (mean point, error bars, boundary fit)
    applies unchanged to campaign results -- this is what lets the Figure 10
    benchmark run through the engine without touching its assertions.
    """
    from ..experiments.common import geometry_for
    from ..experiments.fig10 import RepetitionOutcome, experiment_from_outcomes
    from ..theory.boundary import BoundaryPoint

    outcomes = [
        RepetitionOutcome(
            seed=int(rep["seed"]),
            point=(
                BoundaryPoint(
                    step=int(rep["step"]),
                    n=float(rep["n"]),
                    c0_ratio=float(rep["c0_ratio"]),
                )
                if rep["diverged"]
                else None
            ),
        )
        for rep in group.repetitions
    ]
    return experiment_from_outcomes(
        geometry_for(group.m, group.n_pes, group.density), outcomes
    )


def _fmt(value: float | None, pattern: str = "{:.4f}") -> str:
    return "-" if value is None else pattern.format(value)


def render_report(report: CampaignReport) -> str:
    """Human-readable report text (what ``repro campaign report`` prints)."""
    lines: list[str] = []
    counts = ", ".join(f"{k}={v}" for k, v in report.counts.items() if v)
    lines.append(f"campaign {report.campaign!r}: {counts or 'no runs registered'}")
    if report.boundary_groups:
        rows = []
        for group in report.boundary_groups:
            n_stats = group.mean_std("n")
            c_stats = group.mean_std("c0_ratio")
            rows.append(
                [
                    group.m,
                    group.n_pes,
                    group.density,
                    f"{len(group.points)}/{len(group.repetitions)}",
                    _fmt(n_stats[0] if n_stats else None)
                    + (f" ± {n_stats[1]:.4f}" if n_stats else ""),
                    _fmt(c_stats[0] if c_stats else None)
                    + (f" ± {c_stats[1]:.4f}" if c_stats else ""),
                    _fmt(group.mean_et_ratio, "{:.3f}"),
                ]
            )
        lines.append(
            format_table(
                ["m", "P", "rho", "diverged", "n (mean ± std)",
                 "C0/C (mean ± std)", "E/T"],
                rows,
                title="boundary points",
            )
        )
        rep_rows = []
        for group in report.boundary_groups:
            for index, rep in enumerate(group.repetitions):
                rep_rows.append(
                    [
                        group.m,
                        group.n_pes,
                        group.density,
                        index,
                        rep["seed"],
                        "yes" if rep["diverged"] else "no",
                        _fmt(rep.get("n")),
                        _fmt(rep.get("c0_ratio")),
                    ]
                )
        lines.append(
            format_table(
                ["m", "P", "rho", "rep", "seed", "diverged", "n", "C0/C"],
                rep_rows,
                title="per-repetition boundary points (seed replays the run)",
            )
        )
    if report.preset_rows:
        rows = []
        for payload in report.preset_rows:
            balancer = _balancer_of(payload)
            rows.append([
                payload["preset"],
                mode_label(balancer),
                balancer,
                payload["seed"],
                _fmt(payload.get("tt_mean"), "{:.5f}"),
                _fmt(payload.get("tt_last"), "{:.5f}"),
                _fmt(payload.get("spread_last"), "{:.5f}"),
            ])
        rows.sort(key=lambda row: row[:3])
        lines.append(
            format_table(
                ["preset", "mode", "balancer", "seed", "tt_mean",
                 "tt_last", "spread_last"],
                rows,
                title="preset runs",
            )
        )
    for failure in report.failures:
        last_line = (failure.error or "").strip().splitlines()
        lines.append(f"FAILED {failure.hash}: {last_line[-1] if last_line else '?'}")
    return "\n".join(lines)
