"""Deterministic random-number plumbing.

Every stochastic component of the library takes an explicit
:class:`numpy.random.Generator`. This module provides helpers to derive
independent child generators from a root seed so that experiments are
reproducible run-to-run and stream-to-stream (e.g. the five independent
initial configurations the paper averages over).
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

#: Default root seed: what a run without an explicit seed uses.
DEFAULT_SEED = 20000501  # IPPS 2000, May 1-5, Cancun.


def generator(seed: int | np.random.SeedSequence | None = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``None`` maps to :data:`DEFAULT_SEED` (the library never uses OS entropy,
    keeping all built-in workloads deterministic).
    """
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)


def spawn(seed: int | None, n: int) -> list[np.random.Generator]:
    """Derive ``n`` statistically independent generators from ``seed``."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    root = np.random.SeedSequence(DEFAULT_SEED if seed is None else seed)
    return [np.random.default_rng(s) for s in root.spawn(n)]


def repetition_seeds(seed: int | None, n: int) -> list[int]:
    """``n`` independent integer seeds derived from a root ``seed``.

    These are the seeds :func:`spawn`'s children would draw as their first
    ``integers(2**31)`` sample, so a driver that loops over spawned
    generators and one that loops over these integers produce identical
    streams -- which is what lets a campaign store record a single integer
    per repetition and still replay the exact run.
    """
    return [int(child.integers(2**31)) for child in spawn(seed, n)]


def stream(seed: int | None = None) -> Iterator[np.random.Generator]:
    """Yield an unbounded stream of independent generators from ``seed``."""
    root = np.random.SeedSequence(DEFAULT_SEED if seed is None else seed)
    while True:
        (child,) = root.spawn(1)
        yield np.random.default_rng(child)
