"""repro: dynamic load balancing with permanent cells for parallel MD.

A from-scratch Python reproduction of Hayashi & Horiguchi, "Efficiency of
Dynamic Load Balancing Based on Permanent Cells for Parallel Molecular
Dynamics Simulation" (IPPS 2000): the Lennard-Jones MD substrate, the
square-pillar domain decomposition, the permanent-cell load balancer, a
simulated T3E-class multicomputer, and the theory of DLB's effective ranges.

Quickstart::

    from repro import api
    from repro.config import RunConfig

    result = api.simulate("fig5b-scaled", run=RunConfig(steps=200, seed=1))
    print(result.summary())

:mod:`repro.api` is the stable public surface; the runner classes it wraps
live in :mod:`repro.core.runner`.
"""

import importlib

from .config import (
    DecompositionConfig,
    DLBConfig,
    MachineConfig,
    MDConfig,
    RunConfig,
    SimulationConfig,
)
from .core import RunResult, StepRecord
from .dlb import DynamicLoadBalancer, dlb_limit_ratio, movable_fraction
from .errors import (
    AnalysisError,
    ConfigurationError,
    DecompositionError,
    GeometryError,
    ProtocolError,
    ReproError,
    SimulationError,
)
from .md import LennardJones, ParticleSystem, SerialSimulation
from .theory import (
    BoundaryPoint,
    detect_divergence_step,
    fit_boundary_scale,
    measure_concentration,
    upper_bound,
)
from .workloads import (
    ConcentrationSchedule,
    Preset,
    get_preset,
    supercooled_simulation_config,
)

__version__ = "1.0.0"


def __getattr__(name: str):
    if name == "api":
        return importlib.import_module(".api", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AnalysisError",
    "BoundaryPoint",
    "ConcentrationSchedule",
    "ConfigurationError",
    "DLBConfig",
    "DecompositionConfig",
    "DecompositionError",
    "DynamicLoadBalancer",
    "GeometryError",
    "LennardJones",
    "MDConfig",
    "MachineConfig",
    "ParticleSystem",
    "Preset",
    "ProtocolError",
    "ReproError",
    "RunConfig",
    "RunResult",
    "SerialSimulation",
    "SimulationConfig",
    "SimulationError",
    "StepRecord",
    "detect_divergence_step",
    "dlb_limit_ratio",
    "fit_boundary_scale",
    "get_preset",
    "measure_concentration",
    "movable_fraction",
    "supercooled_simulation_config",
    "upper_bound",
]
