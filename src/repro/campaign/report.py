"""Campaign reports: aggregate stored payloads back into figure/table form.

A report never re-executes anything -- it reads the run store, groups the
``done`` payloads of one campaign by experiment point and summarises them:

* ``boundary`` runs group by ``(m, P, density)`` and report *every*
  repetition's boundary point alongside the mean and spread (the paper plots
  the mean; the spread is what the error bars in Figure 10 come from).  Each
  repetition's seed is printed, so any single run can be replayed from the
  report alone.  The paper's E/T is the least-squares scale ``k`` of each
  (m, P) pair's mean points (:meth:`CampaignReport.fits`): one per m is
  Figure 10's fit, the m x P grid is Table 1.  It is not the per-point mean
  of each repetition's own ``C0/C / f(m, n)``, which is printed beside it.
* ``preset`` runs are listed by preset, mode and balancer with the DDM vs
  DLB-DDM per-step times side by side (the Figure 5 comparison). Payloads
  stored before the pair-search axis was removed still carry a
  ``backend`` key; it is ignored.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..config import mode_label
from ..reporting.tables import format_table
from ..theory.boundary import BoundaryPoint
from ..theory.fitting import (
    ETComparison,
    average_points,
    fit_boundary_scale,
    point_error_ranges,
)
from .store import RunStore, StoredRun


def _balancer_of(payload: dict) -> str:
    """The balancer a preset payload ran under. Older DDM payloads name the
    unused default beside ``"mode": "ddm"``; pre-seam ones name none."""
    if payload["mode"] == "ddm":
        return "none"
    return payload.get("balancer", "permanent")


@dataclass(frozen=True)
class BoundaryGroup:
    """All repetitions of one (m, P, density) boundary point.

    ``repetitions`` are the stored payloads in run order; everything Figure
    10 plots for the point -- the mean point and its error ranges -- is
    derived from them here, and nowhere else.
    """

    m: int
    n_pes: int
    density: float
    repetitions: tuple[dict, ...]

    @property
    def seeds(self) -> tuple[int, ...]:
        """Per-repetition schedule seeds, in run order."""
        return tuple(int(rep["seed"]) for rep in self.repetitions)

    @property
    def points(self) -> tuple[BoundaryPoint, ...]:
        """Boundary points of the diverged repetitions, in run order."""
        return tuple(
            BoundaryPoint(
                step=int(rep["step"]), n=float(rep["n"]), c0_ratio=float(rep["c0_ratio"])
            )
            for rep in self.repetitions
            if rep["diverged"]
        )

    @property
    def n_failed(self) -> int:
        """Repetitions whose spread never diverged."""
        return sum(1 for rep in self.repetitions if not rep["diverged"])

    @property
    def mean_point(self) -> BoundaryPoint | None:
        """The averaged point the paper plots (None if no run diverged)."""
        points = list(self.points)
        return average_points([points])[0] if points else None

    def error_range(self) -> tuple[float, float]:
        """Std of (n, C0/C) across the diverged repetitions -- Figure 10's
        error bars ((0, 0) when none diverged)."""
        points = list(self.points)
        return point_error_ranges([points])[0] if points else (0.0, 0.0)

    def mean_std(self, key: str) -> tuple[float, float] | None:
        """Mean and std of one payload field across the diverged reps."""
        values = [
            float(rep[key]) for rep in self.repetitions
            if rep["diverged"] and rep.get(key) is not None
        ]
        if not values:
            return None
        return float(np.mean(values)), float(np.std(values))

    @property
    def mean_rep_et_ratio(self) -> float | None:
        """Mean over the repetitions of each one's ``C0/C / f(m, n)``.

        Not the paper's E/T: that is the fitted scale ``k`` of
        :meth:`CampaignReport.fits`, one per (m, P) across the densities.
        """
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

    def fits(self) -> dict[tuple[int, int], ETComparison]:
        """The paper's E/T per (m, P): the least-squares ``k`` of
        ``C0/C = k f(m, n)`` through the mean points, densities ascending.

        Figure 10 reads one per m, Table 1 the m x P grid; a pair with no
        diverged point has no fit and is omitted.
        """
        points: dict[tuple[int, int], list[BoundaryPoint]] = {}
        for group in self.boundary_groups:
            if group.mean_point is not None:
                points.setdefault((group.m, group.n_pes), []).append(group.mean_point)
        return {key: fit_boundary_scale(pts, key[0]) for key, pts in points.items()}

    def to_dict(self) -> dict:
        """JSON form (what ``repro campaign report --json`` prints)."""
        boundary = []
        for group in self.boundary_groups:
            mean = group.mean_point
            boundary.append({
                "m": group.m,
                "n_pes": group.n_pes,
                "density": group.density,
                "seeds": list(group.seeds),
                "repetitions": [dict(rep) for rep in group.repetitions],
                "mean_point": None if mean is None else asdict(mean),
                "error_range": list(group.error_range()),
                "mean_rep_et_ratio": group.mean_rep_et_ratio,
            })
        return {
            "campaign": self.campaign,
            "counts": self.counts,
            "boundary": boundary,
            "fitted_et": [
                {"m": m, "n_pes": n_pes, "k": fit.ratio,
                 "residual_rms": fit.residual_rms, "n_points": fit.n_points}
                for (m, n_pes), fit in sorted(self.fits().items())
            ],
            "presets": [dict(row) for row in self.preset_rows],
        }


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
            mean = group.mean_point
            n_std, c0_std = group.error_range()
            rows.append(
                [
                    group.m,
                    group.n_pes,
                    group.density,
                    f"{len(group.points)}/{len(group.repetitions)}",
                    "-" if mean is None else f"{mean.n:.4f} ± {n_std:.4f}",
                    "-" if mean is None else f"{mean.c0_ratio:.4f} ± {c0_std:.4f}",
                    _fmt(group.mean_rep_et_ratio, "{:.3f}"),
                ]
            )
        lines.append(
            format_table(
                ["m", "P", "rho", "diverged", "n (mean ± std)",
                 "C0/C (mean ± std)", "mean rep C0/C÷f"],
                rows,
                title="boundary points",
            )
        )
        fits = report.fits()
        m_values = sorted({group.m for group in report.boundary_groups})
        pe_counts = sorted({group.n_pes for group in report.boundary_groups})
        lines.append(
            format_table(
                ["", *(f"{p} PEs" for p in pe_counts)],
                [
                    [f"m={m}", *(
                        _fmt(fits[(m, p)].ratio if (m, p) in fits else None)
                        for p in pe_counts
                    )]
                    for m in m_values
                ],
                title="E/T = fitted k of C0/C = k*f(m, n) over the mean points",
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
