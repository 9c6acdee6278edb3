"""Initial configurations: lattices and Maxwell-Boltzmann velocities."""

from __future__ import annotations

import math

import numpy as np

from ..errors import GeometryError


def simple_cubic_positions(n_particles: int, box_length: float) -> np.ndarray:
    """Place ``n_particles`` on a simple cubic lattice inside the box.

    The lattice has ``ceil(N^(1/3))`` sites per side; the first ``N`` sites
    (lexicographic order) are used, each offset to the centre of its lattice
    cell so no particle sits on the box boundary.
    """
    if n_particles <= 0:
        raise GeometryError(f"n_particles must be positive, got {n_particles}")
    side = math.ceil(n_particles ** (1.0 / 3.0))
    while side**3 < n_particles:  # guard against float round-off in the cube root
        side += 1
    spacing = box_length / side
    idx = np.arange(side**3)
    coords = np.column_stack((idx // (side * side), (idx // side) % side, idx % side))
    positions = (coords[:n_particles] + 0.5) * spacing
    return np.ascontiguousarray(positions, dtype=np.float64)


def maxwell_boltzmann_velocities(
    n_particles: int,
    temperature: float,
    rng: np.random.Generator,
    zero_momentum: bool = True,
) -> np.ndarray:
    """Sample velocities from the Maxwell-Boltzmann distribution at ``T*``.

    With ``zero_momentum`` the centre-of-mass velocity is removed and the
    kinetic energy rescaled back so the instantaneous temperature is exactly
    ``temperature`` (matching the paper's constant-NVE start).
    """
    if n_particles <= 0:
        raise GeometryError(f"n_particles must be positive, got {n_particles}")
    if temperature < 0:
        raise GeometryError(f"temperature must be non-negative, got {temperature}")
    if temperature == 0:
        return np.zeros((n_particles, 3), dtype=np.float64)
    velocities = rng.normal(0.0, math.sqrt(temperature), size=(n_particles, 3))
    if zero_momentum:
        velocities -= velocities.mean(axis=0, keepdims=True)
    # Rescale to the exact target temperature (3 N k T / 2 = sum m v^2 / 2).
    kinetic = 0.5 * float(np.sum(velocities * velocities))
    current = 2.0 * kinetic / (3.0 * n_particles)
    if current > 0:
        velocities *= math.sqrt(temperature / current)
    return np.ascontiguousarray(velocities, dtype=np.float64)


def ball_sites_sorted(
    n_points: int,
    radius: float,
    rng: np.random.Generator,
    min_separation: float = 0.7,
) -> np.ndarray:
    """Jittered-grid points inside a ball around the origin, inside-out.

    The grid spacing bounds how tightly points pack so LJ forces on the
    resulting configuration stay finite; the ball is refilled cyclically when
    it undersupplies sites. The concentration schedule fills the sites in
    order, growing a droplet shell by shell, so its radius tracks its
    occupancy.
    """
    spacing = max(min_separation, 1e-3)
    n_side = max(1, int(2 * radius / spacing))
    axis = (np.arange(n_side) + 0.5) * spacing - radius
    gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
    grid = np.column_stack((gx.ravel(), gy.ravel(), gz.ravel()))
    norms = np.sum(grid * grid, axis=1)
    inside = grid[norms <= radius * radius]
    if len(inside) == 0:
        inside = np.zeros((1, 3))
    order = np.argsort(np.sum(inside * inside, axis=1), kind="stable")
    inside = inside[order]
    reps = int(np.ceil(n_points / len(inside)))
    sites = np.tile(inside, (reps, 1))[:n_points]
    jitter = rng.uniform(-0.25 * spacing, 0.25 * spacing, size=sites.shape)
    return sites + jitter
