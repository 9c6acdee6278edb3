"""Workload builders that test modules import instead of each other."""

from pathlib import Path

import numpy as np

from repro.config import DecompositionConfig, MDConfig, SimulationConfig
from repro.engine import EngineContext, EnginePass, SequentialEngine
from repro.faults import FaultPlan, MessageFaultRule, SlowdownRule, TimingFaultRule
from repro.md.potential import LennardJones
from repro.md.system import ParticleSystem


def fig5_config() -> SimulationConfig:
    """The fig5(b)-shaped workload at test scale (paper's m=2 DLB regime)."""
    return SimulationConfig(
        md=MDConfig(n_particles=1000, density=0.256),
        decomposition=DecompositionConfig(cells_per_side=6, n_pes=9),
    )


def readme_plan() -> FaultPlan:
    """The fault plan of the README's chaos walkthrough."""
    return FaultPlan(
        seed=11,
        slowdowns=(SlowdownRule(pe=4, factor=2.0),),
        jitter=0.05,
        messages=(MessageFaultRule(tag="*", loss=0.2, delay_prob=0.2, delay=0.005),),
        timing=TimingFaultRule(drop=0.3, max_staleness=2),
    )


def droplet_system(
    n_particles: int, density: float, seed: int, n_droplets: int = 6,
    fraction: float = 0.6, temperature: float = 0.722,
) -> ParticleSystem:
    """``fraction`` of the particles in ``n_droplets`` dense droplets, the
    rest a lattice gas: the shape of the ledger's ``md_engine`` system.

    Droplets are simple-cubic blobs (spacing 1.1) on distinct sites of a
    2x2x2 grid half a box apart, each on the axis of one pillar of a 4x4
    pillar decomposition, so that pillar's PE owns it whole; gas particles
    take seeded sites of a box-wide lattice at least 1.2 from every droplet.
    """
    rng = np.random.default_rng(seed)
    box = (n_particles / density) ** (1.0 / 3.0)
    grid = (np.indices((2, 2, 2)).reshape(3, -1).T * 2 + 0.5) * (box / 4.0)
    centres = grid[rng.permutation(8)[:n_droplets]]
    per_droplet = int(fraction * n_particles) // n_droplets
    axis = np.arange(-10, 11) * 1.1
    offsets = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
    radius = np.linalg.norm(offsets, axis=1)
    blob = offsets[np.argsort(radius, kind="stable")[:per_droplet]]
    reach = np.sort(radius)[per_droplet] + 1.2
    per_side = int(box)
    sites = (np.indices((per_side,) * 3).reshape(3, -1).T + 0.5) * (box / per_side)
    gap = sites[:, None, :] - centres[None, :, :]
    gap -= box * np.round(gap / box)
    free = sites[(np.linalg.norm(gap, axis=2) > reach).all(axis=1)]
    n_gas = n_particles - n_droplets * per_droplet
    gas = free[rng.choice(len(free), n_gas, replace=False)]
    positions = np.mod(np.vstack([c + blob for c in centres] + [gas]), box)
    velocities = rng.normal(0.0, np.sqrt(temperature), positions.shape)
    velocities -= velocities.mean(axis=0)
    return ParticleSystem(positions, velocities, box)


def sequential_passes(
    positions: np.ndarray,
    box_length: float,
    potential: LennardJones,
    n_pes: int = 9,
    passes: int = 1,
) -> list[EnginePass]:
    """``passes`` force passes of one sequential engine over the same
    positions (the first builds its neighbour list, the rest reuse it)."""
    context = EngineContext(
        n_particles=len(positions),
        n_pes=n_pes,
        box_length=box_length,
        potential=potential,
    )
    with SequentialEngine() as engine:
        engine.bind(context)
        return [engine.force_pass(positions) for _ in range(passes)]


def leave_unmonitored_claim(store_dir, run_hash: str, owner: str = "old-1-x") -> None:
    """Mark a row ``running`` with no lease deadline, as a crashed drainer
    of a store version that took unmonitored claims left it."""
    import sqlite3

    from repro.campaign.store import DB_NAME

    db = sqlite3.connect(Path(store_dir) / DB_NAME)
    db.execute(
        "UPDATE runs SET status = 'running', owner = ?, lease_deadline = NULL, "
        "attempts = attempts + 1 WHERE hash = ?",
        (owner, run_hash),
    )
    db.commit()
    db.close()
