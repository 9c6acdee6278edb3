"""Quasi-static concentration schedule.

The supercooled gas of the paper concentrates over ~10^4 MD steps; the
effective-range experiments only care about *where* in (n, C0/C) space DLB
breaks down, not how long the gas takes to get there. A
:class:`ConcentrationSchedule` therefore drives configurations directly,
sweeping the (n, C0/C) trajectory from the dilute-uniform corner upward.
See DESIGN.md, substitutions.

A growing fraction of the particles condenses into many small droplets
scattered (with uneven weights) over the box -- the nucleation morphology of
a supercooled gas. Load imbalance comes from droplets landing unevenly across
domains; DLB can counteract it by moving columns until the emptiness of the
space exceeds its theoretical limit.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..md.lattice import ball_sites_sorted
from ..rng import generator

#: Fraction of particles condensed at the end of the schedule.
MAX_CLUSTER_FRACTION = 0.95
#: Fraction of droplets that survive coarsening to the end of the sweep.
SURVIVOR_FRACTION = 0.05
#: Gamma shape of the droplet mass distribution; large values mean
#: near-equal droplets (relative spread ``1/sqrt(shape)``).
WEIGHT_SHAPE = 8.0
#: Schedule parameter by which condensation completes (coarsening continues
#: afterwards).
CONDENSE_BY = 0.4
#: Reduced density inside droplets; sets each droplet's radius from its
#: occupancy (LJ liquid: ~0.8).
LIQUID_DENSITY = 0.8


@dataclass(frozen=True)
class ConcentrationSchedule:
    """Generates a sequence of progressively more concentrated configurations.

    Attributes
    ----------
    n_particles:
        Particles per configuration.
    box_length:
        Periodic box edge.
    n_steps:
        Number of configurations the schedule produces.
    n_droplets:
        Initial droplet (nucleation site) count.
    seed:
        Seed of droplet placement and per-step jitter (vary per run for the
        paper's independent repetitions).
    """

    n_particles: int
    box_length: float
    n_steps: int
    n_droplets: int = 64
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.n_particles <= 0:
            raise ConfigurationError("n_particles must be positive")
        if self.box_length <= 0:
            raise ConfigurationError("box_length must be positive")
        if self.n_steps <= 0:
            raise ConfigurationError("n_steps must be positive")
        if self.n_droplets <= 0:
            raise ConfigurationError("n_droplets must be positive")

    def fraction_at(self, s: float) -> float:
        """Condensed fraction at schedule parameter ``s`` in [0, 1].

        Ramps linearly to :data:`MAX_CLUSTER_FRACTION` by ``s =``
        :data:`CONDENSE_BY`;
        the remainder of the sweep is pure coarsening at constant condensed
        mass (gas exhaustion happens much faster than Ostwald ripening in a
        deeply supercooled gas).
        """
        return np.minimum(s / CONDENSE_BY, 1.0) * MAX_CLUSTER_FRACTION

    def _occupancy_matrix(self, rng: np.random.Generator) -> np.ndarray:
        """Per-step droplet occupancies: nucleation + coarsening.

        Returns an ``(n_steps, K)`` integer matrix whose row ``t`` holds each
        droplet's particle count at schedule step ``t``. The total condensed
        mass grows linearly to ``MAX_CLUSTER_FRACTION * N`` (nucleation), and
        most droplets die off smoothly along the way (Ostwald ripening): the
        survivors absorb their mass, so the late configurations hold the same
        mass in far fewer, larger droplets -- which is what empties cells and
        pushes C0/C upward, exactly as in the paper's supercooled gas.
        """
        k = self.n_droplets
        # Near-equal droplet masses: the imbalance the theory describes comes
        # from *where* droplets sit (occupancy fluctuations across domains),
        # not from a heavy-tailed size distribution; large skew would break
        # the heavy side of the balancer in a way Section 4 does not model.
        weights = rng.gamma(shape=WEIGHT_SHAPE, scale=1.0, size=k)
        n_survivors = max(2, int(round(SURVIVOR_FRACTION * k)))
        survivors = rng.choice(k, size=n_survivors, replace=False)
        # Death times of the dying droplets: coarsening overlaps the end of
        # condensation and continues to the end of the sweep.
        death = rng.uniform(0.75 * CONDENSE_BY, 1.0, size=k)
        death[survivors] = np.inf

        s_grid = np.arange(self.n_steps) / max(self.n_steps - 1, 1)
        # Smoothly shrinking share of dying droplets: w * (1 - s/d)^1.5.
        with np.errstate(invalid="ignore"):
            decay = np.clip(1.0 - s_grid[:, None] / death[None, :], 0.0, 1.0) ** 1.5
        decay[:, survivors] = 1.0
        alive = weights[None, :] * decay
        share = alive / alive.sum(axis=1, keepdims=True)

        n_cond = np.round(self.fraction_at(s_grid) * self.n_particles).astype(int)
        raw = share * n_cond[:, None]
        occupancy = np.floor(raw).astype(int)
        remainder = n_cond - occupancy.sum(axis=1)
        frac = raw - occupancy
        for t in range(self.n_steps):
            if remainder[t] > 0:
                top = np.argsort(-frac[t])[: remainder[t]]
                occupancy[t, top] += 1
        return occupancy

    def configurations(self) -> Iterator[np.ndarray]:
        """Yield the ``n_steps`` position arrays in schedule order: a smooth
        droplet sweep with nucleation and coarsening.

        All randomness is drawn up front (droplet centres/weights/death
        times, gas positions, per-droplet inside-out site sequences), so
        consecutive configurations differ only by the few particles that
        condensed or migrated between droplets. The load evolves
        quasi-statically, letting the balancer genuinely keep up until its
        structural limit -- as in the paper's slow MD runs.
        """
        rng = generator(self.seed)
        centers = rng.uniform(0.0, self.box_length, size=(self.n_droplets, 3))
        occupancy = self._occupancy_matrix(rng)
        max_occ = occupancy.max(axis=0)

        spacing = (1.0 / LIQUID_DENSITY) ** (1.0 / 3.0)
        # Per-droplet site sequence, sorted inside-out: a droplet's particles
        # fill (and vacate) shell by shell, so its radius physically tracks
        # its occupancy at liquid density.
        site_lists: list[np.ndarray] = []
        for k in range(self.n_droplets):
            if max_occ[k] == 0:
                site_lists.append(np.empty((0, 3)))
                continue
            radius = 1.1 * (
                3.0 * max_occ[k] / (4.0 * np.pi * LIQUID_DENSITY)
            ) ** (1.0 / 3.0)
            radius = max(radius, spacing)
            site_lists.append(centers[k] + ball_sites_sorted(int(max_occ[k]), radius, rng, spacing))

        gas = rng.uniform(0.0, self.box_length, size=(self.n_particles, 3))
        for t in range(self.n_steps):
            row = occupancy[t]
            n_cond = int(row.sum())
            parts = [site_lists[k][: row[k]] for k in range(self.n_droplets) if row[k]]
            parts.append(gas[: self.n_particles - n_cond])
            positions = np.concatenate(parts, axis=0)
            yield np.mod(positions, self.box_length)

    def __iter__(self) -> Iterator[np.ndarray]:
        return self.configurations()
