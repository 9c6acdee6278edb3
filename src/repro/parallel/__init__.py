"""Simulated multicomputer: virtual PEs, topologies and cost models.

The paper runs on a Cray T3E; this subpackage replaces the hardware with a
deterministic model -- a 2-D torus topology, a per-PE compute cost model and
a latency/bandwidth network -- that reproduces the quantities the paper
measures (per-step execution time ``Tt`` and the per-PE force-time spread
``Fmax/Fave/Fmin``). See DESIGN.md, "Substitutions".
"""

from .costmodel import ComputeCostModel, calibrate_tau_pair
from .instrumentation import NeighborStats, StepTiming
from .message import TrafficLog
from .network import NetworkModel, preset
from .topology import Torus2D

__all__ = [
    "ComputeCostModel",
    "NeighborStats",
    "NetworkModel",
    "StepTiming",
    "Torus2D",
    "TrafficLog",
    "calibrate_tau_pair",
    "preset",
]
