"""Dynamic load balancing with permanent cells -- the paper's contribution.

Each PE's square-pillar domain keeps a wall of *permanent* cell columns that
never migrate, guaranteeing the regular 8-neighbour communication pattern;
the remaining *movable* columns flow toward faster neighbours one column per
step, following the protocol of Section 2.3.

Since the strategy seam landed, the permanent-cell protocol is one of
three strategies behind the :class:`~repro.dlb.strategies.Balancer`
protocol (see :mod:`repro.dlb.strategies`); select one with
``RunConfig.balancer`` (``--balancer`` on the CLI; ``"none"`` is plain
DDM, with no balancer) and build balancer instances through
:func:`create_balancer`.
"""

from .balancer import DynamicLoadBalancer, Move
from .cells import movable_count, movable_fraction, permanent_count
from .limits import dlb_limit_ratio, max_domain_cells, max_domain_columns
from .protocol import Case, classify_case, decide_move
from .strategies import (
    Balancer,
    DecisionView,
    available,
    create_balancer,
    create_strategy,
    resolve_balancer_name,
)

__all__ = [
    "Balancer",
    "Case",
    "DecisionView",
    "DynamicLoadBalancer",
    "Move",
    "available",
    "classify_case",
    "create_balancer",
    "create_strategy",
    "decide_move",
    "dlb_limit_ratio",
    "max_domain_cells",
    "max_domain_columns",
    "movable_count",
    "movable_fraction",
    "permanent_count",
    "resolve_balancer_name",
]
