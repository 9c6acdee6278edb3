#!/usr/bin/env python3
"""Reproduce every table and figure of the paper's evaluation in one run.

Drives the experiment drivers of ``repro.experiments`` at a selectable
scale and prints a consolidated report (plus CSVs under examples/out/).
Figure 10 and Table 1 are campaigns, drained through an in-memory run store
and rendered from its report; the quick and paper scales use the built-in
``fig10-*`` / ``table1-*`` campaigns by name (``repro campaign run`` runs the
same grids against a persistent store):

  Figure 5(a)/(b)  -- execution time per step, DDM vs DLB-DDM
  Figure 6(a)/(b)  -- Tt / Fmax / Fave / Fmin breakdown
  Figure 9         -- (n, C0/C) trajectory
  Figure 10(a)-(c) -- theoretical bound vs experimental boundary points
  Table 1          -- E/T ratios across machine sizes

The paper's qualitative findings for Figures 5, 6 and 9 are checked on the
series as they are computed: DDM's Fmax - Fmin grows with concentration while
DLB-DDM's stays below it, Tt bounds Fmax, and the (n, C0/C) trajectory climbs
from the dilute corner. Each check prints ``ok`` or ``FAILED``; the script
exits 1 naming every finding that failed.

Run:  python examples/reproduce_paper.py --scale quick    (~1 min on 2 cores)
      python examples/reproduce_paper.py --scale medium   (~30 min)
      python examples/reproduce_paper.py --scale paper    (hours)
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from repro.campaign import CampaignSpec, drain_report, get_campaign
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig9 import run_fig9
from repro.experiments.fig10 import Fig10Result
from repro.experiments.table1 import Table1Result
from repro.reporting import format_table, write_csv
from repro.theory.bounds import upper_bound
from repro.units import PAPER_RHO_SWEEP


def grid(name: str, pe_counts, **table1) -> CampaignSpec:
    """A medium-scale m = 2, 3, 4 boundary grid (5 repetitions, 120 steps)."""
    return CampaignSpec.boundary_grid(
        name, m_values=(2, 3, 4), pe_counts=pe_counts, densities=PAPER_RHO_SWEEP,
        n_repetitions=5, n_steps=120, **table1,
    )


SCALES = {
    # fig5 steps b/a, fig9 steps and PEs, Figure 10 / Table 1 campaigns
    "quick": dict(fig5b=1500, fig5a=700, fig9=90, pes=9,
                  fig10=get_campaign("fig10-quick"),
                  table1=get_campaign("table1-quick")),
    "medium": dict(fig5b=2500, fig5a=2200, fig9=130, pes=16,
                   fig10=grid("fig10-medium", (16,)),
                   table1=grid("table1-medium", (9, 16, 25), pes_seed_offset=True)),
    "paper": dict(fig5b=10000, fig5a=10000, fig9=150, pes=36,
                  fig10=get_campaign("fig10-full"),
                  table1=get_campaign("table1-full")),
}


def check(failed: list[str], finding: str, holds) -> None:
    """Print one paper finding's verdict; remember it when it fails."""
    print(f"  {'ok' if holds else 'FAILED'}: {finding}")
    if not holds:
        failed.append(finding)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=sorted(SCALES), default="quick")
    parser.add_argument("--out", type=Path, default=Path("examples/out"))
    args = parser.parse_args()
    p = SCALES[args.scale]
    args.out.mkdir(parents=True, exist_ok=True)
    started = time.time()
    failed: list[str] = []

    # ---- Figure 5 / 6 -----------------------------------------------------
    for panel, preset, steps in (("b", "bench-m2", p["fig5b"]),
                                 ("a", "bench-m4", p["fig5a"])):
        print(f"\n=== Figure 5({panel}) / 6: {preset}, {steps} steps "
              f"[{time.time() - started:.0f}s] ===")
        fig5 = run_fig5(preset, steps=steps, seed=7, record_interval=20)
        g_ddm, g_dlb = fig5.growth()
        print(f"  Tt growth: DDM x{g_ddm:.2f}  DLB-DDM x{g_dlb:.2f}")
        k = max(1, len(fig5.ddm.spread) // 8)
        print(f"  late Fmax-Fmin: DDM {fig5.ddm.spread[-k:].mean():.2e}  "
              f"DLB-DDM {fig5.dlb.spread[-k:].mean():.2e}")
        for label, run in (("ddm", fig5.ddm), ("dlb", fig5.dlb)):
            write_csv(args.out / f"fig5{panel}_{label}.csv",
                      {"step": run.steps, "tt": run.tt, "fmax": run.fmax,
                       "fave": run.fave, "fmin": run.fmin})
        # Section 3.3: DDM's force-time imbalance grows with concentration,
        # DLB-DDM's stays below it, and Tt (set at the barrier) bounds Fmax.
        name = f"Fig. 5({panel})/6 {preset}"
        ddm, dlb = fig5.ddm.spread, fig5.dlb.spread
        check(failed, f"{name}: DDM Fmax-Fmin grows > 1.5x",
              ddm[-k:].mean() / max(ddm[:k].mean(), 1e-12) > 1.5)
        check(failed, f"{name}: DLB-DDM ends with a smaller Fmax-Fmin gap than DDM",
              dlb[-k:].mean() < ddm[-k:].mean())
        if panel == "b":
            name = f"Fig. 6 {preset}"
            check(failed, f"{name}: Tt >= Fmax at every step",
                  np.all(fig5.ddm.tt >= fig5.ddm.fmax)
                  and np.all(fig5.dlb.tt >= fig5.dlb.fmax))
            check(failed, f"{name}: DDM gap grows > 1.5x (decile-smoothed)",
                  fig5.gap_growth()[0] > 1.5)
            mid = slice(len(fig5.dlb.steps) // 3, 2 * len(fig5.dlb.steps) // 3)
            check(failed, f"{name}: DLB-DDM holds Fmax/Fave at or below DDM's "
                          "in the middle third",
                  np.median(fig5.dlb.fmax[mid] / fig5.dlb.fave[mid])
                  < np.median(fig5.ddm.fmax[mid] / fig5.ddm.fave[mid]) + 1e-9)

    # ---- Figure 9 ----------------------------------------------------------
    print(f"\n=== Figure 9: trajectory [{time.time() - started:.0f}s] ===")
    fig9 = run_fig9(m=3, n_pes=p["pes"], n_steps=p["fig9"], seed=1)
    trajectory = fig9.trajectory
    print(f"  {len(trajectory)} records; C0/C "
          f"{trajectory.c0_ratio[0]:.3f} -> {trajectory.c0_ratio[-1]:.3f}")
    if fig9.boundary:
        print(f"  boundary at step {fig9.boundary.step}: "
              f"n={fig9.boundary.n:.2f}, C0/C={fig9.boundary.c0_ratio:.3f}")
    write_csv(args.out / "fig9.csv",
              {"step": trajectory.steps, "n": trajectory.n,
               "c0_ratio": trajectory.c0_ratio})
    # The paper's example trajectory: starts near C0/C = 0 and climbs.
    c0 = trajectory.c0_ratio
    check(failed, "Fig. 9: the trajectory starts at C0/C < 0.05", c0[0] < 0.05)
    check(failed, "Fig. 9: C0/C climbs over 5x from the first to the last "
                  "five records", c0[-5:].mean() > 5 * max(c0[:5].mean(), 1e-4))
    check(failed, "Fig. 9: n >= 1 on every record", np.all(trajectory.n >= 1.0))

    # ---- Figure 10 ---------------------------------------------------------
    campaign = p["fig10"]
    print(f"\n=== Figure 10: effective ranges, campaign {campaign.name!r} "
          f"({len(campaign)} runs) [{time.time() - started:.0f}s] ===")
    fig10 = Fig10Result.from_report(drain_report(campaign, workers=2))
    for m, panel in sorted(fig10.panels.items()):
        rows = []
        for group in panel.groups:
            pt = group.mean_point
            if pt is None:
                rows.append((group.density, "-", "-", "-"))
                continue
            rows.append((group.density, f"{pt.n:.2f}", f"{pt.c0_ratio:.3f}",
                         f"{float(upper_bound(m, pt.n)):.3f}"))
        title = f"Figure 10, m={m}, P={panel.n_pes}"
        if panel.fit:
            title += f"  (fitted E/T = {panel.fit.ratio:.2f})"
        print(format_table(["rho", "n", "C0/C (E)", "f(m,n) (T)"], rows, title=title))

    # ---- Table 1 -----------------------------------------------------------
    campaign = p["table1"]
    print(f"\n=== Table 1: E/T across machines, campaign {campaign.name!r} "
          f"({len(campaign)} runs) [{time.time() - started:.0f}s] ===")
    table1 = Table1Result.from_report(drain_report(campaign, workers=2))
    rows = []
    for m in table1.m_values:
        rows.append([f"m={m}"] + [f"{v:.2f}" if v is not None else "-"
                                  for v in table1.row(m)])
    print(format_table(["", *[f"{q} PEs" for q in table1.pe_counts]], rows))
    csv = {"m": [], "n_pes": [], "et": []}
    for (m, q), v in sorted(table1.ratios.items()):
        csv["m"].append(m); csv["n_pes"].append(q); csv["et"].append(v)
    if csv["m"]:
        write_csv(args.out / "table1.csv", csv)

    print(f"\nall experiments done in {time.time() - started:.0f}s; "
          f"CSVs under {args.out}/")
    if failed:
        print("paper findings not reproduced:", file=sys.stderr)
        for finding in failed:
            print(f"  {finding}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
