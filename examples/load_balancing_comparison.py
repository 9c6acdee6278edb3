#!/usr/bin/env python3
"""Figure 5/6 at laptop scale: DDM vs DLB-DDM on real MD dynamics.

Runs the scaled Figure 5 workload (configurable panel and length), prints
both per-step time series and the Figure 6 breakdown (Tt, Fmax, Fave, Fmin),
and writes CSVs with the full series.

Run:  python examples/load_balancing_comparison.py [--panel a|b] [--steps N]

Panel b (m=2, N=1000) takes ~1 minute; panel a (m=4, N=8000) several minutes.
"""

import argparse
from pathlib import Path

import numpy as np

from repro.experiments.fig5 import run_fig5
from repro.reporting import comparison_report, format_table, write_csv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--panel", choices=["a", "b"], default="b",
                        help="Figure 5 panel: a (m=4) or b (m=2)")
    parser.add_argument("--steps", type=int, default=None,
                        help="override the preset's step count")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=Path, default=Path("examples/out"))
    args = parser.parse_args()

    preset_name = f"fig5{args.panel}-scaled"
    print(f"running {preset_name} (both curves) ...")
    fig5 = run_fig5(preset_name, steps=args.steps, seed=args.seed)

    print()
    print(comparison_report(fig5.ddm, fig5.dlb,
                            title=f"Figure 5({args.panel}) -- {fig5.preset.description}"))

    growth_ddm, growth_dlb = fig5.growth()
    gap_ddm, gap_dlb = fig5.gap_growth()
    print(f"\nper-step time growth: DDM x{growth_ddm:.2f}, DLB-DDM x{growth_dlb:.2f}")
    print(f"gap (Fmax - Fmin) growth: DDM x{gap_ddm:.2f}, DLB-DDM x{gap_dlb:.2f}")

    # Down-sampled Figure 6 table for the terminal.
    ddm, dlb = fig5.ddm, fig5.dlb
    idx = np.unique(np.linspace(0, len(ddm.steps) - 1, 12).astype(int))
    rows = [
        (int(ddm.steps[i]), ddm.tt[i], ddm.fmax[i], ddm.fmin[i],
         dlb.tt[i], dlb.fmax[i], dlb.fmin[i])
        for i in idx
    ]
    print()
    print(format_table(
        ["step", "DDM Tt", "DDM Fmax", "DDM Fmin", "DLB Tt", "DLB Fmax", "DLB Fmin"],
        rows,
        title="Figure 6 series (both panels)",
    ))

    args.out.mkdir(parents=True, exist_ok=True)
    for label, run in (("ddm", ddm), ("dlb", dlb)):
        path = write_csv(
            args.out / f"fig5{args.panel}_{label}.csv",
            {"step": run.steps, "tt": run.tt, "fmax": run.fmax,
             "fave": run.fave, "fmin": run.fmin},
        )
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
