"""Serial molecular-dynamics driver (the single-PE reference)."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from ..config import MDConfig
from ..rng import generator
from .forces import ForceField, ForceResult
from .integrator import VelocityVerlet
from .lattice import maxwell_boltzmann_velocities, simple_cubic_positions
from .observables import kinetic_energy, temperature
from .potential import LennardJones
from .system import ParticleSystem
from .thermostat import VelocityRescale


@dataclass
class StepObservables:
    """Observables recorded after each serial MD step."""

    step: int
    potential_energy: float
    kinetic_energy: float
    temperature: float
    n_pairs: int

    @property
    def total_energy(self) -> float:
        """Total (potential + kinetic) energy."""
        return self.potential_energy + self.kinetic_energy


@dataclass
class SerialRunResult:
    """History of a serial run."""

    records: list[StepObservables] = field(default_factory=list)

    @property
    def total_energies(self) -> np.ndarray:
        """Array of total energies over the recorded steps."""
        return np.array([r.total_energy for r in self.records])

    @property
    def temperatures(self) -> np.ndarray:
        """Array of instantaneous temperatures over the recorded steps."""
        return np.array([r.temperature for r in self.records])


def build_system(config: MDConfig, rng: np.random.Generator) -> ParticleSystem:
    """Initial state per Section 3.2: lattice positions + MB velocities."""
    box = config.box_length
    positions = simple_cubic_positions(config.n_particles, box)
    velocities = maxwell_boltzmann_velocities(config.n_particles, config.temperature, rng)
    return ParticleSystem(positions, velocities, box)


def attractor_sites(config: MDConfig, rng: np.random.Generator) -> np.ndarray | None:
    """Nucleation sites for the accelerated-clustering field.

    ``None`` when the field is off or single-centred (the force field then
    defaults to the box centre); otherwise ``n_attractors`` seeded uniform
    sites.
    """
    if config.attraction <= 0.0 or config.n_attractors <= 1:
        return None
    return rng.uniform(0.0, config.box_length, size=(config.n_attractors, 3))


class SerialSimulation:
    """Single-process MD simulation assembled from an :class:`MDConfig`.

    This is the physics reference every parallel path is validated against.
    Forces come from one :class:`~repro.md.forces.ForceField` over a cached
    kd-tree pair list with search margin ``skin``.
    """

    def __init__(
        self,
        config: MDConfig,
        seed: int | None = None,
        system: ParticleSystem | None = None,
        shift_potential: bool = True,
        skin: float = 0.4,
    ) -> None:
        self.config = config
        rng = generator(seed)
        self.system = system if system is not None else build_system(config, rng)
        self.potential = LennardJones(cutoff=config.cutoff, shift=shift_potential)
        self.force_field = ForceField(
            self.potential,
            attraction=config.attraction,
            attractors=attractor_sites(config, rng),
            skin=skin,
        )
        self.integrator = VelocityVerlet(config.dt)
        self.thermostat = VelocityRescale(config.temperature, config.rescale_interval)
        self.step_count = 0
        self._last_force: ForceResult = self.integrator.initialize(self.system, self.force_field)

    @property
    def neighbor_stats(self):
        """Pair-search counters (rebuilds/reuses) of the underlying force field."""
        return self.force_field.stats

    def observe(self) -> StepObservables:
        """Snapshot the current observables."""
        return StepObservables(
            step=self.step_count,
            potential_energy=self._last_force.potential_energy,
            kinetic_energy=kinetic_energy(self.system),
            temperature=temperature(self.system),
            n_pairs=self._last_force.n_pairs,
        )

    def step(self) -> StepObservables:
        """Advance one step (integration + thermostat), returning observables."""
        self._last_force = self.integrator.step(self.system, self.force_field)
        self.step_count += 1
        self.thermostat.maybe_rescale(self.system, self.step_count)
        return self.observe()

    def run(
        self,
        steps: int,
        callback: Callable[[StepObservables], None] | None = None,
        record_interval: int = 1,
    ) -> SerialRunResult:
        """Run ``steps`` steps, recording every ``record_interval``-th one."""
        result = SerialRunResult()
        for _ in range(steps):
            obs = self.step()
            if self.step_count % record_interval == 0:
                result.records.append(obs)
                if callback is not None:
                    callback(obs)
        return result
