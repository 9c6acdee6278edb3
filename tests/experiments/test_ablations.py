"""Ablations: the machine the paper's protocol runs on, swept.

Not paper tables -- these quantify how network cost shifts the DDM/DLB
trade-off (T3E-class vs CM-5-class vs free communication) on the same
driven m = 3, P = 9 concentration sweep (60 steps, schedule seed 13, 4
balancer rounds per configuration). The protocol itself has no settings to
sweep: Section 2.3 fixes one round per step, one cell per PE, toward the
fastest PE.
"""

import pytest

from repro.config import SimulationConfig
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
    }


@pytest.mark.parametrize("machine_name", ["t3e", "cm5", "ideal"])
def test_dlb_helps_on_every_machine(machine_name):
    config = simulation_config_for(GEOMETRY, machine=preset(machine_name))
    dlb = sweep(config)
    ddm = sweep(config, balancer="none")
    assert dlb["late_spread"] < ddm["late_spread"]


def test_slow_network_raises_dlb_cost_share():
    # On a CM-5-class network the same migrations cost more time.
    t3e = sweep(simulation_config_for(GEOMETRY, machine=preset("t3e")))
    cm5 = sweep(simulation_config_for(GEOMETRY, machine=preset("cm5")))
    assert cm5["mean_tt"] > t3e["mean_tt"]
