"""Deterministic workload inputs for the ledger (pure NumPy, no ``repro`` imports).

Everything the benchmark feeds the program is derived from one integer seed:
the same seed gives the same particle systems and the same service
submission stream, bit for bit. The program under test never sees the seed
itself -- only the arrays and dicts built here.

Clustered system
----------------
``clustered_system`` condenses a fraction of the particles into liquid
droplets and scatters the rest as gas:

* droplet centres sit on a 2x2x2 grid (half a box apart) so droplets can
  never overlap, each on the axis of a PE pillar so that pillar is loaded
  far above its neighbours. The seed picks which grid sites stay empty
  (whole body diagonals, so all choices are equivalent by symmetry) and
  shifts the whole grid by a whole number of *PE domains*: the load
  statistics relative to the domains are the same for every seed, only
  their location moves, which keeps the simulated step time steady across
  seeds;
* each droplet is the ``n`` sites of a simple-cubic lattice (spacing
  ``DROPLET_SPACING`` = 1.1 sigma) closest to its centre;
* gas particles occupy seeded sites of a box-wide simple-cubic lattice,
  excluding every site closer than one lattice spacing to a droplet;
* velocities are Maxwell-Boltzmann at ``T* = 0.722`` with the drift removed.

By construction no two particles are closer than 1.1 sigma inside a droplet
and 1.0 sigma anywhere; the workload set-up asserts it on every system.

Run as a script to inspect one system: ``python ledger/inputs.py --seed 11``.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass

import numpy as np

#: Lattice constant inside a droplet, in sigma (LJ minimum is at 1.122).
DROPLET_SPACING = 1.1
#: Smallest allowed pair distance anywhere in a generated system, in sigma.
MIN_DISTANCE = 1.0
#: Reduced temperature of the velocity draw (the paper's T*).
TEMPERATURE = 0.722


@dataclass(frozen=True)
class ClusteredSystem:
    """One generated particle system (plain arrays, reduced LJ units)."""

    positions: np.ndarray
    velocities: np.ndarray
    box_length: float
    n_droplets: int
    droplet_fraction: float

    @property
    def n(self) -> int:
        return len(self.positions)


def _rng(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per (seed, purpose), so adding a stream later
    does not shift the numbers another stream draws."""
    return np.random.default_rng([int(seed), *stream.encode()])


def _lattice_ball(n: int, spacing: float) -> np.ndarray:
    """The ``n`` simple-cubic lattice points closest to the origin.

    Ties (points on the same shell) are broken by lexicographic order of
    the integer coordinates, so the result is a pure function of ``n``.
    """
    reach = int(np.ceil((3.0 * n / (4.0 * np.pi)) ** (1.0 / 3.0))) + 2
    axis = np.arange(-reach, reach + 1)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    r_sq = (grid * grid).sum(axis=1)
    order = np.lexsort((grid[:, 2], grid[:, 1], grid[:, 0], r_sq))
    return grid[order[:n]] * spacing


def clustered_system(
    seed: int,
    n_particles: int,
    density: float,
    pe_side: int,
    n_droplets: int,
    droplet_fraction: float,
) -> ClusteredSystem:
    """Droplets-plus-gas system of ``n_particles`` at ``density``.

    ``pe_side`` is the side of the square PE torus (``sqrt(P)``, even) the
    system will be decomposed on; it fixes where the droplet grid sits.
    """
    if not 1 <= n_droplets <= 8:
        raise ValueError(f"n_droplets must be in 1..8, got {n_droplets}")
    if pe_side < 2 or pe_side % 2:
        raise ValueError(f"pe_side must be even and >= 2, got {pe_side}")
    box = (n_particles / density) ** (1.0 / 3.0)
    domain = box / pe_side
    rng = _rng(seed, "positions")

    n_liquid = int(round(droplet_fraction * n_particles))
    sizes = np.full(n_droplets, n_liquid // n_droplets)
    sizes[: n_liquid % n_droplets] += 1
    balls = [_lattice_ball(int(size), DROPLET_SPACING) for size in sizes]
    radii = [float(np.linalg.norm(ball, axis=1).max()) for ball in balls]
    radius = max(radii)
    if 2.0 * radius + MIN_DISTANCE > box / 2.0:
        raise ValueError(
            f"droplets of radius {radius:.2f} do not fit half a box of {box / 2:.2f}"
        )

    # Sites are emptied a body diagonal at a time, starting from a seeded
    # diagonal: the four diagonals map onto each other under half-box
    # translations, so every seed leaves the same arrangement up to symmetry.
    corners = np.array([(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)])
    corners = np.roll(corners, int(rng.integers(4)), axis=0)
    grid = np.stack((corners, 1 - corners), axis=1).reshape(8, 3).astype(float)
    occupied = np.arange(8 - n_droplets, 8)
    shift = rng.integers(0, pe_side, size=3) * domain
    # A quarter lattice spacing off the pillar axis: with m even the axis is
    # a cell boundary, and a lattice plane lying exactly on it would be
    # binned by rounding noise.
    centers = 0.5 * domain + 0.25 * DROPLET_SPACING + 0.5 * box * grid[occupied] + shift

    droplets = [center + ball for center, ball in zip(centers, balls)]

    # Gas: seeded sites of a box-wide lattice, outside every droplet's
    # exclusion sphere (droplet radius + one minimum distance).
    per_side = int(box // DROPLET_SPACING)
    axis = (np.arange(per_side) + 0.5) * (box / per_side)
    sites = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    free = np.ones(len(sites), dtype=bool)
    for center, reach in zip(centers, radii):
        delta = sites - center
        delta -= box * np.round(delta / box)
        free &= (delta * delta).sum(axis=1) >= (reach + MIN_DISTANCE) ** 2
    n_gas = n_particles - n_liquid
    candidates = np.flatnonzero(free)
    if len(candidates) < n_gas:
        raise ValueError(f"only {len(candidates)} gas sites for {n_gas} gas particles")
    gas = sites[np.sort(rng.choice(candidates, size=n_gas, replace=False))]

    positions = np.mod(np.concatenate(droplets + [gas], axis=0), box)
    velocities = _rng(seed, "velocities").normal(
        0.0, np.sqrt(TEMPERATURE), size=positions.shape
    )
    velocities -= velocities.mean(axis=0)
    return ClusteredSystem(
        positions=np.ascontiguousarray(positions),
        velocities=np.ascontiguousarray(velocities),
        box_length=float(box),
        n_droplets=n_droplets,
        droplet_fraction=droplet_fraction,
    )


def service_specs(seed: int, start: int, count: int) -> list[dict]:
    """Submissions ``start .. start+count`` of the seed's service stream.

    The stream repeats a group of three: two short ``quickstart`` preset
    runs (real MD) and one driven ``probe`` (no MD). The two presets of a
    group run ``20 - d`` and ``20 + d`` steps with ``d`` drawn from the
    seed, so every group is the same amount of work while the simulated
    times in the payloads still depend on the seed. Run seeds count up from
    a seeded base, so no two submissions of a stream describe the same run
    and dedupe by accident.
    """
    base = int(_rng(seed, "service").integers(1, 1_000_000)) * 1000
    specs: list[dict] = []
    for k in range(start, start + count):
        group, member = divmod(k, 3)
        if member == 2:
            specs.append({"kind": "probe", "m": 2, "n_pes": 9, "n_steps": 60,
                          "probe_index": 30, "probe_hold": 10, "seed": base + k})
        else:
            d = int(_rng(seed, f"service-group-{group}").integers(0, 5))
            specs.append({"kind": "preset", "preset": "quickstart", "mode": "dlb",
                          "n_steps": 20 + (d if member else -d), "seed": base + k})
    return specs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    system = clustered_system(args.seed, 8000, 0.256, 4, 8, 0.70)
    print(json.dumps({
        "seed": args.seed,
        "n": system.n,
        "box_length": system.box_length,
        "temperature": float((system.velocities**2).sum() / (3 * system.n)),
        "first_specs": service_specs(args.seed, 0, 3),
    }, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
