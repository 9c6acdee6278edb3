"""Ablations: design choices the paper fixes, swept.

Not paper tables -- these quantify the choices DESIGN.md calls out, each on
the same driven m = 3, P = 9 concentration sweep (60 steps, schedule seed 13,
4 balancer rounds per configuration):

* redistribution policy ("fastest" every step vs imbalance threshold);
* redistribution interval (every step vs every k steps);
* machine (T3E-class vs CM-5-class vs free communication): how network cost
  shifts the DDM/DLB trade-off;
* sends per step (the protocol's one-cell-per-step choice).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.config import DLBConfig, MachineConfig, SimulationConfig
from repro.core.runner import DrivenLoadRunner
from repro.experiments.common import geometry_for, simulation_config_for
from repro.parallel.network import preset
from repro.workloads.concentration import ConcentrationSchedule

GEOMETRY = geometry_for(3, 9, 0.256)


def sweep(config: SimulationConfig, balancer: str | None = None) -> dict:
    schedule = ConcentrationSchedule(
        n_particles=GEOMETRY.n_particles,
        box_length=GEOMETRY.box_length,
        n_steps=60,
        n_droplets=90,
        seed=13,
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
    return replace(simulation_config_for(GEOMETRY, machine=machine), dlb=dlb)


def test_threshold_policy_moves_fewer_cells():
    eager = sweep(with_dlb(DLBConfig(policy="fastest")))
    lazy = sweep(with_dlb(DLBConfig(policy="threshold", threshold=0.3)))
    assert lazy["moves"] < eager["moves"]
    # The lazy policy still beats no balancing at all.
    ddm = sweep(simulation_config_for(GEOMETRY), balancer="none")
    assert lazy["late_spread"] < ddm["late_spread"]


def test_less_frequent_rebalancing_weakens_dlb():
    results = {
        interval: sweep(with_dlb(DLBConfig(interval=interval)))
        for interval in (1, 8, 64)
    }
    assert results[1]["moves"] > results[8]["moves"] > results[64]["moves"]
    # Balancing every step is at least as good as every 64 steps.
    assert results[1]["late_spread"] <= results[64]["late_spread"] * 1.25


@pytest.mark.parametrize("machine_name", ["t3e", "cm5", "ideal"])
def test_dlb_helps_on_every_machine(machine_name):
    machine = preset(machine_name)
    dlb = sweep(with_dlb(DLBConfig(), machine=machine))
    ddm = sweep(simulation_config_for(GEOMETRY, machine=machine), balancer="none")
    assert dlb["late_spread"] < ddm["late_spread"]


def test_slow_network_raises_dlb_cost_share():
    # On a CM-5-class network the same migrations cost more time.
    t3e = sweep(with_dlb(DLBConfig(), machine=preset("t3e")))
    cm5 = sweep(with_dlb(DLBConfig(), machine=preset("cm5")))
    assert cm5["mean_tt"] > t3e["mean_tt"]


def test_more_sends_accelerate_convergence():
    results = {
        sends: sweep(with_dlb(DLBConfig(max_sends_per_step=sends)))
        for sends in (1, 4)
    }
    assert results[4]["moves"] >= results[1]["moves"]
    assert np.isfinite(results[4]["late_spread"])
