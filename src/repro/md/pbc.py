"""Periodic boundary conditions for a cubic box.

The paper's simulation space is a cube with periodic boundaries
(Section 3.2). All positions live in the half-open interval ``[0, L)`` along
each axis; displacements follow the minimum-image convention, which is valid
because configurations always keep ``L >= 2 * r_c``.
"""

from __future__ import annotations

import numpy as np


def wrap_positions(positions: np.ndarray, box_length: float) -> np.ndarray:
    """Map ``positions`` into the primary box ``[0, L)^3``.

    Returns a new array; the input is not modified. Handles arbitrarily
    distant images via the modulo operation.
    """
    wrapped = np.mod(positions, box_length)
    # ``mod`` can return exactly L for tiny negative inputs due to rounding;
    # fold those back onto 0 so cell indexing never sees an out-of-range value.
    wrapped[wrapped >= box_length] = 0.0
    return wrapped


def wrap_positions_inplace(positions: np.ndarray, box_length: float) -> None:
    """In-place variant of :func:`wrap_positions` for hot loops."""
    np.mod(positions, box_length, out=positions)
    positions[positions >= box_length] = 0.0


def minimum_image(displacements: np.ndarray, box_length: float) -> np.ndarray:
    """Apply the minimum-image convention to raw displacement vectors.

    Each component is folded into ``[-L/2, L/2)``. Works on any array whose
    last axis holds vector components.
    """
    return displacements - box_length * np.round(displacements / box_length)


def minimum_image_inplace(displacements: np.ndarray, box_length: float) -> None:
    """In-place variant of :func:`minimum_image` (no temporary copies)."""
    shift = displacements * (1.0 / box_length)
    np.rint(shift, out=shift)  # np.round's own ufunc at 0 decimals, in place
    shift *= box_length
    displacements -= shift


def squared_norms(delta: np.ndarray) -> np.ndarray:
    """``r²`` of each column of a ``(3, m)`` displacement array.

    Summed as ``(x² + z²) + y²``: the order ``np.einsum("ij,ij->i")`` took
    over ``(m, 3)`` rows where it was measured (NumPy 2.4, x86-64), spelled
    out so the bits no longer hang on einsum's SIMD dispatch. Every distance test of the
    simulation (the kernel's cut-off, the exact-pair filter, the rebuild
    trigger) goes through it, so two of them cannot disagree by an ulp.
    """
    r_sq = delta[0] * delta[0]
    r_sq += delta[2] * delta[2]
    r_sq += delta[1] * delta[1]
    return r_sq


def pair_displacements(
    positions: np.ndarray, i: np.ndarray, j: np.ndarray, box_length: float
) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-image ``positions[i] - positions[j]`` as ``(3, m)``, and its ``r²``.

    Gathers, subtracts and folds one coordinate row at a time; pass
    column-major ``(N, 3)`` positions (``np.asfortranarray``) and each row
    is a contiguous gather. The layout moves no bit: every step is
    elementwise.
    """
    coordinates = positions.T
    delta = np.take(coordinates, i, axis=1)
    delta -= np.take(coordinates, j, axis=1)
    minimum_image_inplace(delta, box_length)
    return delta, squared_norms(delta)


def pair_distance(
    a: np.ndarray, b: np.ndarray, box_length: float
) -> np.ndarray:
    """Minimum-image distances between matching rows of ``a`` and ``b``."""
    delta = minimum_image(np.asarray(a, dtype=float) - np.asarray(b, dtype=float), box_length)
    return np.sqrt(np.sum(delta * delta, axis=-1))
