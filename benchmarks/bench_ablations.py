"""Ablations: design choices the paper fixes, swept.

Not paper tables -- these quantify the choices DESIGN.md calls out:

* redistribution policy ("fastest" every step vs imbalance threshold);
* redistribution interval (every step vs every k steps);
* machine (T3E-class vs CM-5-class vs free communication): how network cost
  shifts the DDM/DLB trade-off;
* sends per step (the protocol's one-cell-per-step choice).
"""

import numpy as np
import pytest

from repro.config import DLBConfig, MachineConfig, SimulationConfig
from repro.core.runner import DrivenLoadRunner
from repro.experiments.common import geometry_for, simulation_config_for
from repro.parallel.network import preset
from repro.workloads.concentration import ConcentrationSchedule

GEOMETRY = geometry_for(3, 9, 0.256)


def sweep(
    config: SimulationConfig,
    n_steps: int = 60,
    seed: int = 13,
    balancer: str | None = None,
) -> dict:
    schedule = ConcentrationSchedule(
        n_particles=GEOMETRY.n_particles,
        box_length=GEOMETRY.box_length,
        n_steps=n_steps,
        n_droplets=90,
        seed=seed,
    )
    result = DrivenLoadRunner(
        config, rounds_per_config=4, balancer=balancer
    ).run(schedule)
    return {
        "late_spread": float(result.spread[-10:].mean()),
        "mean_tt": float(result.tt.mean()),
        "moves": result.total_moves,
    }


def with_dlb(dlb: DLBConfig, machine: MachineConfig | None = None) -> SimulationConfig:
    from dataclasses import replace

    config = simulation_config_for(GEOMETRY, machine=machine)
    return replace(config, dlb=dlb)


class TestPolicyAblation:
    def test_threshold_policy_moves_fewer_cells(self, benchmark):
        def run():
            eager = sweep(with_dlb(DLBConfig(policy="fastest")))
            lazy = sweep(with_dlb(DLBConfig(policy="threshold", threshold=0.3)))
            return eager, lazy

        eager, lazy = benchmark.pedantic(run, rounds=1, iterations=1)
        print(f"\n  fastest:   spread {eager['late_spread']:.2e}, moves {eager['moves']}")
        print(f"  threshold: spread {lazy['late_spread']:.2e}, moves {lazy['moves']}")
        assert lazy["moves"] < eager["moves"]
        # The lazy policy still beats no balancing at all.
        ddm = sweep(simulation_config_for(GEOMETRY), balancer="none")
        assert lazy["late_spread"] < ddm["late_spread"]


class TestIntervalAblation:
    def test_less_frequent_rebalancing_weakens_dlb(self, benchmark):
        def run():
            return {
                interval: sweep(with_dlb(DLBConfig(interval=interval)))
                for interval in (1, 8, 64)
            }

        results = benchmark.pedantic(run, rounds=1, iterations=1)
        for interval, metrics in results.items():
            print(f"\n  interval {interval:3d}: spread {metrics['late_spread']:.2e}, "
                  f"moves {metrics['moves']}")
        assert results[1]["moves"] > results[8]["moves"] > results[64]["moves"]
        # Balancing every step is at least as good as every 64 steps.
        assert results[1]["late_spread"] <= results[64]["late_spread"] * 1.25


class TestMachineAblation:
    @pytest.mark.parametrize("machine_name", ["t3e", "cm5", "ideal"])
    def test_dlb_helps_on_every_machine(self, benchmark, machine_name):
        machine = preset(machine_name)

        def run():
            dlb = sweep(with_dlb(DLBConfig(), machine=machine))
            ddm = sweep(simulation_config_for(GEOMETRY, machine=machine),
                        balancer="none")
            return dlb, ddm

        dlb, ddm = benchmark.pedantic(run, rounds=1, iterations=1)
        print(f"\n  {machine_name}: DLB spread {dlb['late_spread']:.2e} "
              f"vs DDM {ddm['late_spread']:.2e}")
        assert dlb["late_spread"] < ddm["late_spread"]

    def test_slow_network_raises_dlb_cost_share(self, benchmark):
        # On a CM-5-class network the same migrations cost more time.
        def run():
            t3e = sweep(with_dlb(DLBConfig(), machine=preset("t3e")))
            cm5 = sweep(with_dlb(DLBConfig(), machine=preset("cm5")))
            return t3e, cm5

        t3e, cm5 = benchmark.pedantic(run, rounds=1, iterations=1)
        assert cm5["mean_tt"] > t3e["mean_tt"]


class TestSendsPerStepAblation:
    def test_more_sends_accelerate_convergence(self, benchmark):
        def run():
            return {
                sends: sweep(with_dlb(DLBConfig(max_sends_per_step=sends)))
                for sends in (1, 4)
            }

        results = benchmark.pedantic(run, rounds=1, iterations=1)
        for sends, metrics in results.items():
            print(f"\n  sends/step {sends}: spread {metrics['late_spread']:.2e}, "
                  f"moves {metrics['moves']}")
        assert results[4]["moves"] >= results[1]["moves"]
        assert np.isfinite(results[4]["late_spread"])
