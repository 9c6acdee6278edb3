"""Workload builders that test modules import instead of each other."""

from repro.config import DecompositionConfig, DLBConfig, MDConfig, SimulationConfig


def fig5_config() -> SimulationConfig:
    """The fig5(b)-shaped workload at test scale (paper's m=2 DLB regime)."""
    return SimulationConfig(
        md=MDConfig(n_particles=1000, density=0.256),
        decomposition=DecompositionConfig(cells_per_side=6, n_pes=9),
        dlb=DLBConfig(enabled=True),
    )
