"""In-process engine: PEs execute in rank order, one per loop iteration.

This is the reference backend — the extracted form of what the runner always
did. It exists so the multiprocess engine has a bit-identical baseline to be
checked against: both cut their slices with one :class:`SliceCutter`, post
the same per-PE scalars through the same router and share
:meth:`Engine._fold`.
"""

from __future__ import annotations

import numpy as np

from ..core.ddm import DecomposedForceResult
from ..obs.events import scope
from .base import FORCE_RESULT_TAG, Engine, SliceCutter


class SequentialEngine(Engine):
    """Executes every PE's force slice in rank order in the calling process."""

    name = "sequential"

    def __init__(self) -> None:
        super().__init__()
        self._cutter: SliceCutter | None = None

    def _start(self) -> None:
        self._cutter = SliceCutter(self._context)  # bound by Engine.bind

    def force_pass(
        self, positions: np.ndarray, cell_owner: np.ndarray, step: int
    ) -> DecomposedForceResult:
        context = self._require_context()
        with scope("engine.force_pass"):
            pieces, list_info = self._cutter.cut(
                positions, cell_owner, range(context.n_pes)
            )
            forces = np.zeros_like(positions)
            for piece in pieces:
                forces[piece.owned_ids] = piece.forces
                self.router.post(
                    step, FORCE_RESULT_TAG, piece.pe, 0,
                    (piece.energy, piece.virial, piece.seconds, piece.n_pairs),
                )
            result = self._fold(forces, step, list_info)
        if self._observability is not None and self._observability.metrics is not None:
            self._observability.metrics.counter(
                "repro_engine_force_passes_total",
                "Decomposed force passes executed by the engine",
            ).inc(engine=self.name)
        return result
