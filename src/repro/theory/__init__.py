"""Theory of DLB effective ranges (Section 4 of the paper).

Upper bounds ``f(m, n)`` on the particle concentration ratio ``C0/C`` up to
which DLB can equalise load, measurement of the concentration parameters
``(n, C0/C)`` from simulation state, experimental boundary-point detection
and the least-squares E/T comparison of Table 1.
"""

from .boundary import BoundaryPoint, detect_divergence_step
from .bounds import f2, f3, f4, ordering_gap, upper_bound
from .concentration import ConcentrationState, measure_concentration
from .fitting import ETComparison, fit_boundary_scale
from .trajectory import Trajectory

__all__ = [
    "BoundaryPoint",
    "ConcentrationState",
    "ETComparison",
    "Trajectory",
    "detect_divergence_step",
    "f2",
    "f3",
    "f4",
    "fit_boundary_scale",
    "measure_concentration",
    "ordering_gap",
    "upper_bound",
]
