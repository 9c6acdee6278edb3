"""Domain decomposition: cells, domains and cell-to-PE assignment.

Implements the square-pillar shape of Figure 2 -- the paper's choice for
DLB: the load balancer redistributes its cells one at a time, while the
permanent wall (a row and a column of full-z cell columns per domain) pins
the 8-neighbour structure. The plane and cube shapes survive only in
:mod:`~repro.decomp.shapes`, as closed-form communication volumes.
"""

from .assignment import CellAssignment
from .halo import HaloExchange, halo_summary
from .partition import pillar_partition
from .shapes import domain_comm_volume, domain_shape_info
from .validation import check_eight_neighbor_property, contact_pairs

__all__ = [
    "CellAssignment",
    "HaloExchange",
    "check_eight_neighbor_property",
    "contact_pairs",
    "domain_comm_volume",
    "domain_shape_info",
    "halo_summary",
    "pillar_partition",
]
