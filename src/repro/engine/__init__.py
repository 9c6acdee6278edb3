"""Pluggable execution engines for the force pass.

``sequential`` runs every force block in-process; ``multiprocess`` splits
each pass's blocks between the calling process and child processes over
shared memory. Both fold the
block partials in block order with the kernel's one fold function, so they
give the classic path's run digest (DESIGN.md §10).
"""

from .base import (
    ENGINE_NAMES,
    Engine,
    EngineContext,
    EnginePass,
    create_engine,
    effective_engine_workers,
)
from .forcefield import EngineForceField
from .multiprocess import MultiprocessEngine
from .sequential import SequentialEngine

__all__ = [
    "ENGINE_NAMES",
    "Engine",
    "EngineContext",
    "EngineForceField",
    "EnginePass",
    "MultiprocessEngine",
    "SequentialEngine",
    "create_engine",
    "effective_engine_workers",
]
