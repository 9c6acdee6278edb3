"""Simulation core: the public entry points of the library.

:class:`ParallelMDRunner` couples the MD engine, the square-pillar
decomposition, the virtual machine and (optionally) the permanent-cell load
balancer into the DDM / DLB-DDM simulations of Section 3.
:class:`DrivenLoadRunner` replaces the MD dynamics with an externally driven
sequence of configurations -- the quasi-static concentration sweeps behind
Figures 9-10 and Table 1.
"""

from .accounting import StepAccountant
from .results import RunResult, StepRecord
from .runner import DrivenLoadRunner, ParallelMDRunner

__all__ = [
    "DrivenLoadRunner",
    "ParallelMDRunner",
    "RunResult",
    "StepAccountant",
    "StepRecord",
]
