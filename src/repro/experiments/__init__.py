"""Experiment drivers: one module per table/figure of the paper's evaluation.

Each driver returns plain data structures (arrays + dataclasses) that the
examples print and plot as ASCII; nothing here touches the terminal
directly, so the same code backs tests and scripts. Figure 6 is the
Figure 5 runs' ``tt``/``fmax``/``fave``/``fmin`` columns. Figure 10 and Table 1 are campaigns (:mod:`repro.campaign`), rendered from a
stored report by :meth:`Fig10Result.from_report` /
:meth:`Table1Result.from_report`.
"""

from .common import ExperimentGeometry, geometry_for
from .fig5 import Fig5Result, run_fig5
from .fig9 import Fig9Result, run_fig9
from .fig10 import Fig10Result, run_boundary_repetition
from .table1 import Table1Result

__all__ = [
    "ExperimentGeometry",
    "Fig5Result",
    "Fig9Result",
    "Fig10Result",
    "Table1Result",
    "geometry_for",
    "run_boundary_repetition",
    "run_fig5",
    "run_fig9",
]
