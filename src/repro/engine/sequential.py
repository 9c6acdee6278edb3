"""In-process engine: every force block of a pass, in block order.

It runs exactly what the classic path's kernel runs, behind the engine
protocol: one cached pair list and :func:`repro.md.kernels.fold_blocks`.
"""

from __future__ import annotations

import time

import numpy as np

from ..md.kernels import fold_blocks
from .base import Engine, EngineContext, EnginePass, search


# Kept only because the ledger's md_engine check compares against engine="sequential".
class SequentialEngine(Engine):
    """Computes and folds every force block in the calling process."""

    name = "sequential"

    def _start(self) -> None:
        self._pair_list = self._context.pair_list()  # bound by Engine.bind

    def _run_pass(self, context: EngineContext, positions: np.ndarray) -> EnginePass:
        start = time.perf_counter()
        candidates, rebuilt = search(self._pair_list, positions)
        force = fold_blocks(
            positions, candidates, context.box_length, context.potential,
            context.n_particles,
        )
        seconds = time.perf_counter() - start
        return EnginePass(force, len(candidates), rebuilt, np.array([seconds]))
