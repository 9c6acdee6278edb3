"""Workload builders that test modules import instead of each other."""

import numpy as np

from repro.config import DecompositionConfig, DLBConfig, MDConfig, SimulationConfig
from repro.core.ddm import DecomposedForceResult
from repro.engine import EngineContext, SequentialEngine
from repro.faults import FaultPlan, MessageFaultRule, SlowdownRule, TimingFaultRule
from repro.md.potential import LennardJones


def fig5_config() -> SimulationConfig:
    """The fig5(b)-shaped workload at test scale (paper's m=2 DLB regime)."""
    return SimulationConfig(
        md=MDConfig(n_particles=1000, density=0.256),
        decomposition=DecompositionConfig(cells_per_side=6, n_pes=9),
        dlb=DLBConfig(enabled=True),
    )


def readme_plan() -> FaultPlan:
    """The fault plan of the README's chaos walkthrough."""
    return FaultPlan(
        seed=11,
        slowdowns=(SlowdownRule(pe=4, factor=2.0),),
        jitter=0.05,
        messages=(MessageFaultRule(tag="*", loss=0.2, delay_prob=0.2, delay=0.005),),
        timing=TimingFaultRule(drop=0.3, max_staleness=2),
    )


def sequential_passes(
    positions: np.ndarray,
    box_length: float,
    cells_per_side: int,
    cell_owner: np.ndarray,
    potential: LennardJones,
    n_pes: int = 9,
    passes: int = 1,
) -> list[DecomposedForceResult]:
    """``passes`` decomposed force passes of one sequential engine over the
    same positions and owner map (the first builds its neighbour list, the
    rest reuse it)."""
    context = EngineContext(
        n_particles=len(positions),
        n_pes=n_pes,
        box_length=box_length,
        cells_per_side=cells_per_side,
        potential=potential,
    )
    with SequentialEngine() as engine:
        engine.bind(context)
        return [engine.force_pass(positions, cell_owner, step) for step in range(passes)]
