"""Pluggable execution engines for the SPMD force pass.

``sequential`` runs every virtual PE in rank order in-process (the reference
backend); ``multiprocess`` shards PEs across worker processes over shared
memory. Both route their per-PE results through a
:class:`~repro.engine.router.DeterministicRouter` and reduce in delivery
order, so they are bit-identical by run digest (DESIGN.md §10).
"""

from .base import (
    ENGINE_NAMES,
    Engine,
    EngineContext,
    create_engine,
    effective_engine_workers,
)
from .forcefield import EngineForceField
from .multiprocess import MultiprocessEngine
from .router import DeterministicRouter, RoutedMessage
from .sequential import SequentialEngine

__all__ = [
    "ENGINE_NAMES",
    "DeterministicRouter",
    "Engine",
    "EngineContext",
    "EngineForceField",
    "MultiprocessEngine",
    "RoutedMessage",
    "SequentialEngine",
    "create_engine",
    "effective_engine_workers",
]
