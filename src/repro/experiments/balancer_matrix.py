"""Balancer strategy matrix: competing strategies over one workload grid.

The permanent-cells protocol is the paper's contribution, but its efficiency
claim only means something against alternatives. This driver runs the same
workloads under every registered balancer strategy -- ``permanent`` (the
paper), ``diffusion`` (nearest-neighbour load diffusion), ``sfc``
(space-filling-curve repartition) and ``none`` (static decomposition, the
control) -- over a (workload x PE-count) grid and renders one comparison
table per grid point via
:func:`repro.reporting.balancer_comparison_report`.

Workloads are the two regimes the paper contrasts: ``uniform`` (no
attraction -- the gas stays homogeneous, so there is nothing to balance) and
``clustered`` (seeded nucleation concentrates particles, the Figure 5
scenario where DLB pays off). The headline check -- ``permanent`` beating
``none`` on the clustered workload -- is what the CI smoke job asserts.

Run it directly::

    python -m repro.experiments.balancer_matrix --quick
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, replace

from .. import api
from ..config import RunConfig
from ..core.results import RunResult
from ..errors import ConfigurationError
from ..reporting import balancer_comparison_report
from ..units import PAPER_RHO
from .common import geometry_for, simulation_config_for

#: Strategy order of the comparison tables (the control row leads).
DEFAULT_BALANCERS = ("none", "permanent", "diffusion", "sfc")

#: Workload regimes: name -> nucleation-attraction strength.
WORKLOADS = {"uniform": 0.0, "clustered": 0.6}


@dataclass(frozen=True)
class MatrixCell:
    """One completed run of the (balancer x workload x P) grid."""

    balancer: str
    workload: str
    n_pes: int
    result: RunResult


@dataclass(frozen=True)
class BalancerMatrixResult:
    """The full grid plus the comparison views over it."""

    cells: tuple[MatrixCell, ...]
    steps: int
    seed: int

    def grid_points(self) -> list[tuple[str, int]]:
        """The distinct (workload, n_pes) points, in first-seen order."""
        seen: list[tuple[str, int]] = []
        for cell in self.cells:
            key = (cell.workload, cell.n_pes)
            if key not in seen:
                seen.append(key)
        return seen

    def results_at(self, workload: str, n_pes: int) -> dict[str, RunResult]:
        """Balancer -> result at one grid point (insertion = run order)."""
        return {
            cell.balancer: cell.result
            for cell in self.cells
            if cell.workload == workload and cell.n_pes == n_pes
        }

    def report(self) -> str:
        """One comparison table per grid point."""
        blocks = []
        for workload, n_pes in self.grid_points():
            blocks.append(
                balancer_comparison_report(
                    self.results_at(workload, n_pes),
                    title=(
                        f"Balancer comparison: {workload} workload, "
                        f"P={n_pes} ({self.steps} steps, seed {self.seed})"
                    ),
                )
            )
        return "\n\n".join(blocks)

    def permanent_beats_none(self, workload: str = "clustered") -> bool | None:
        """Whether ``permanent`` out-balanced the static control.

        Compares mean per-step simulated time at every ``workload`` grid
        point; ``None`` when the grid lacks either strategy there. This is
        the paper's headline claim restated over the seam: the protocol's
        redistribution must beat doing nothing where load concentrates.
        """
        verdicts = []
        for point_workload, n_pes in self.grid_points():
            if point_workload != workload:
                continue
            results = self.results_at(point_workload, n_pes)
            if "permanent" not in results or "none" not in results:
                continue
            verdicts.append(
                results["permanent"].summary()["tt_mean"]
                < results["none"].summary()["tt_mean"]
            )
        if not verdicts:
            return None
        return all(verdicts)


def _config_for(workload: str, n_pes: int, m: int):
    """The simulation config of one grid point (dlb always enabled).

    The ``none`` strategy -- not ``dlb=False`` -- is the control: every run
    takes the same decision cadence through the same seam, so the comparison
    isolates the *strategy*, not the presence of the balancing machinery.
    """
    try:
        attraction = WORKLOADS[workload]
    except KeyError:
        raise ConfigurationError(
            f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}"
        ) from None
    geometry = geometry_for(m, n_pes, PAPER_RHO)
    config = simulation_config_for(geometry, dlb_enabled=True, attraction=attraction)
    if attraction > 0:
        # Several seeded nucleation sites, like the scaled Figure 5 presets:
        # clustering happens in hundreds of steps instead of thousands.
        config = replace(config, md=replace(config.md, n_attractors=5))
    return config


def run_balancer_matrix(
    balancers: tuple[str, ...] = DEFAULT_BALANCERS,
    workloads: tuple[str, ...] = ("uniform", "clustered"),
    pe_counts: tuple[int, ...] = (9,),
    steps: int = 300,
    seed: int = 7,
    m: int = 2,
    record_interval: int = 5,
) -> BalancerMatrixResult:
    """Run the balancer x workload x PE-count grid and collect the results.

    Every run goes through :func:`repro.api.simulate` with an explicit
    ``RunConfig.balancer`` -- the same selection surface users hit -- so
    the matrix exercises exactly the code path it reports on.
    """
    cells = []
    for workload in workloads:
        for n_pes in pe_counts:
            config = _config_for(workload, n_pes, m)
            for balancer in balancers:
                result = api.simulate(
                    config,
                    run=RunConfig(
                        steps=steps,
                        seed=seed,
                        record_interval=record_interval,
                        balancer=balancer,
                    ),
                )
                cells.append(
                    MatrixCell(
                        balancer=result.meta["balancer"],
                        workload=workload,
                        n_pes=n_pes,
                        result=result,
                    )
                )
    return BalancerMatrixResult(cells=tuple(cells), steps=steps, seed=seed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="compare balancer strategies over a workload grid"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized grid: one PE count, short runs (seconds, not minutes)",
    )
    parser.add_argument("--steps", type=int, default=None,
                        help="override the per-run step count")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--balancers",
        nargs="+",
        default=list(DEFAULT_BALANCERS),
        help="strategies to compare (default: all registered)",
    )
    parser.add_argument(
        "--pe-counts",
        nargs="+",
        type=int,
        default=None,
        help="PE counts of the grid (default: 9, plus 16 without --quick)",
    )
    args = parser.parse_args(argv)
    pe_counts = tuple(args.pe_counts) if args.pe_counts else (
        (9,) if args.quick else (9, 16)
    )
    steps = args.steps if args.steps is not None else (150 if args.quick else 300)
    matrix = run_balancer_matrix(
        balancers=tuple(args.balancers),
        pe_counts=pe_counts,
        steps=steps,
        seed=args.seed,
    )
    print(matrix.report())
    verdict = matrix.permanent_beats_none()
    if verdict is None:
        print("\nheadline check skipped (grid lacks permanent/none "
              "on the clustered workload)")
        return 0
    if verdict:
        print("\nheadline check: permanent beats the static 'none' baseline "
              "on the clustered workload")
        return 0
    print("\nheadline check FAILED: permanent did not beat 'none' "
          "on the clustered workload")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
