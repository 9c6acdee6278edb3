"""Configuration dataclasses shared across the library.

Each dataclass validates itself in ``__post_init__`` and raises
:class:`repro.errors.ConfigurationError` on inconsistency, so invalid setups
fail loudly at construction time rather than deep inside a simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigurationError
from .units import (
    PAPER_CUTOFF,
    PAPER_DT,
    PAPER_RESCALE_INTERVAL,
    PAPER_RHO,
    PAPER_T_REF,
    box_length_for,
)


@dataclass(frozen=True)
class MDConfig:
    """Physical setup of a molecular-dynamics run (Section 3.2 of the paper).

    Attributes
    ----------
    n_particles:
        Number of particles ``N``.
    density:
        Reduced density ``rho*``; with ``n_particles`` it fixes the cubic box.
    temperature:
        Reduced reference temperature ``T*``; velocities are rescaled to it.
    cutoff:
        Reduced LJ cut-off distance ``r_c``.
    dt:
        Reduced integration time step.
    rescale_interval:
        Velocity rescaling period in steps (0 disables the thermostat).
    attraction:
        Optional strength of a weak harmonic attraction toward nucleation
        sites. The paper's supercooled gas clusters over ~10^4 steps; this
        knob accelerates the same concentration process for scaled-down runs
        (see DESIGN.md, substitutions). 0 reproduces pure LJ dynamics.
    n_attractors:
        Number of nucleation sites. 1 means the box centre (single-blob
        collapse, the adversarial case); larger values scatter seeded random
        sites, reproducing the distributed droplet morphology of the real
        supercooled gas.
    """

    n_particles: int
    density: float = PAPER_RHO
    temperature: float = PAPER_T_REF
    cutoff: float = PAPER_CUTOFF
    dt: float = PAPER_DT
    rescale_interval: int = PAPER_RESCALE_INTERVAL
    attraction: float = 0.0
    n_attractors: int = 1

    def __post_init__(self) -> None:
        if self.n_particles <= 0:
            raise ConfigurationError(f"n_particles must be positive, got {self.n_particles}")
        if self.density <= 0:
            raise ConfigurationError(f"density must be positive, got {self.density}")
        if self.temperature < 0:
            raise ConfigurationError(f"temperature must be non-negative, got {self.temperature}")
        if self.cutoff <= 0:
            raise ConfigurationError(f"cutoff must be positive, got {self.cutoff}")
        if self.dt <= 0:
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        if self.rescale_interval < 0:
            raise ConfigurationError(
                f"rescale_interval must be non-negative, got {self.rescale_interval}"
            )
        if self.attraction < 0:
            raise ConfigurationError(f"attraction must be non-negative, got {self.attraction}")
        if self.n_attractors < 1:
            raise ConfigurationError(f"n_attractors must be >= 1, got {self.n_attractors}")
        if self.box_length < 2.0 * self.cutoff:
            raise ConfigurationError(
                "box too small for minimum-image convention: "
                f"L={self.box_length:.3f} < 2*r_c={2 * self.cutoff:.3f}"
            )

    @property
    def box_length(self) -> float:
        """Edge length of the cubic periodic box."""
        return box_length_for(self.n_particles, self.density)


#: The balancer strategies: the one name table :mod:`repro.dlb.strategies`,
#: ``RunSpec`` and ``--balancer`` read. ``"permanent"`` is the paper's
#: protocol and the default.
BALANCER_NAMES = ("permanent", "diffusion", "sfc", "none")

#: Valid domain shapes for 3-D DDM (Figure 2 of the paper).
DOMAIN_SHAPES = ("plane", "pillar", "cube")


@dataclass(frozen=True)
class DecompositionConfig:
    """Cell grid and PE layout of a domain decomposition.

    Attributes
    ----------
    cells_per_side:
        ``C^(1/3)``: number of cells along each axis of the cubic grid.
    n_pes:
        Number of processing elements ``P``.
    shape:
        Domain shape: ``"plane"`` (slabs, ring of PEs), ``"pillar"``
        (square pillars, 2-D torus -- the paper's choice for DLB) or
        ``"cube"`` (3-D torus).
    """

    cells_per_side: int
    n_pes: int
    shape: str = "pillar"

    def __post_init__(self) -> None:
        if self.cells_per_side <= 0:
            raise ConfigurationError(f"cells_per_side must be positive, got {self.cells_per_side}")
        if self.n_pes <= 0:
            raise ConfigurationError(f"n_pes must be positive, got {self.n_pes}")
        if self.shape not in DOMAIN_SHAPES:
            raise ConfigurationError(f"shape must be one of {DOMAIN_SHAPES}, got {self.shape!r}")
        if self.shape == "plane":
            if self.cells_per_side % self.n_pes != 0:
                raise ConfigurationError(
                    f"plane decomposition needs n_pes | cells_per_side, "
                    f"got {self.n_pes} and {self.cells_per_side}"
                )
        elif self.shape == "pillar":
            side = math.isqrt(self.n_pes)
            if side * side != self.n_pes:
                raise ConfigurationError(
                    f"pillar decomposition needs a square n_pes, got {self.n_pes}"
                )
            if self.cells_per_side % side != 0:
                raise ConfigurationError(
                    f"pillar decomposition needs sqrt(n_pes) | cells_per_side, "
                    f"got sqrt({self.n_pes})={side} and {self.cells_per_side}"
                )
            if self.pillar_m < 1:
                raise ConfigurationError("pillar cross-section m must be >= 1")
        else:  # cube
            side = round(self.n_pes ** (1.0 / 3.0))
            if side**3 != self.n_pes:
                raise ConfigurationError(
                    f"cube decomposition needs a cubic n_pes, got {self.n_pes}"
                )
            if self.cells_per_side % side != 0:
                raise ConfigurationError(
                    f"cube decomposition needs cbrt(n_pes) | cells_per_side, "
                    f"got cbrt({self.n_pes})={side} and {self.cells_per_side}"
                )

    @property
    def n_cells(self) -> int:
        """Total number of cells ``C``."""
        return self.cells_per_side**3

    @property
    def pe_side(self) -> int:
        """``P^(1/2)`` for pillar decompositions (torus side length)."""
        side = math.isqrt(self.n_pes)
        if side * side != self.n_pes:
            raise ConfigurationError(f"n_pes={self.n_pes} is not a perfect square")
        return side

    @property
    def pillar_m(self) -> int:
        """Pillar cross-section size ``m = C^(1/3) / P^(1/2)`` (Figure 7)."""
        return self.cells_per_side // self.pe_side


@dataclass(frozen=True)
class DLBConfig:
    """Behaviour of the permanent-cell dynamic load balancer.

    Attributes
    ----------
    enabled:
        Master switch; disabled means plain DDM.
    interval:
        Redistribution period in steps. The paper's overhead is small enough
        to run DLB every step (interval=1).
    max_sends_per_step:
        How many cell columns a PE may hand over per DLB invocation. The
        paper's protocol sends one.
    policy:
        Receiver-selection policy: ``"fastest"`` is the paper's (send to the
        fastest of the 8 neighbours); ``"threshold"`` only redistributes when
        the local imbalance exceeds ``threshold``; used for ablations.
    threshold:
        Relative imbalance required by the ``"threshold"`` policy.
    """

    enabled: bool = True
    interval: int = 1
    max_sends_per_step: int = 1
    policy: str = "fastest"
    threshold: float = 0.1

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ConfigurationError(f"interval must be positive, got {self.interval}")
        if self.max_sends_per_step <= 0:
            raise ConfigurationError(
                f"max_sends_per_step must be positive, got {self.max_sends_per_step}"
            )
        if self.policy not in ("fastest", "threshold"):
            raise ConfigurationError(f"unknown policy {self.policy!r}")
        if self.threshold < 0:
            raise ConfigurationError(f"threshold must be non-negative, got {self.threshold}")


@dataclass(frozen=True)
class MachineConfig:
    """Cost model of the simulated multicomputer (see repro.parallel.network).

    Times are in arbitrary but self-consistent units (we use seconds scaled
    so the default constants roughly match mid-1990s hardware; only the
    *shape* of the results depends on them).

    Attributes
    ----------
    name:
        Preset label, e.g. ``"t3e"`` or ``"cm5"``.
    latency:
        Per-message startup cost.
    inv_bandwidth:
        Per-byte transfer cost (1 / bandwidth).
    tau_pair:
        Cost of one candidate pair-distance evaluation in the force loop.
    tau_particle:
        Per-particle cost of integration + cell reassignment each step.
    tau_cell:
        Per-cell bookkeeping cost each step.
    dlb_overhead:
        Fixed per-step cost of running the DLB protocol (time exchange +
        decision), charged only when DLB is enabled.
    bytes_per_particle:
        Payload size of one particle in migration/halo messages.
    """

    name: str = "t3e"
    latency: float = 10e-6
    inv_bandwidth: float = 1.0 / 2.8e9
    tau_pair: float = 60e-9
    tau_particle: float = 150e-9
    tau_cell: float = 40e-9
    dlb_overhead: float = 30e-6
    bytes_per_particle: int = 48  # 6 doubles: position + velocity

    def __post_init__(self) -> None:
        for attr in (
            "latency",
            "inv_bandwidth",
            "tau_pair",
            "tau_particle",
            "tau_cell",
            "dlb_overhead",
        ):
            if getattr(self, attr) < 0:
                raise ConfigurationError(f"{attr} must be non-negative")
        if self.bytes_per_particle <= 0:
            raise ConfigurationError("bytes_per_particle must be positive")


@dataclass(frozen=True)
class RunConfig:
    """Top-level knobs of a simulated parallel run.

    Attributes
    ----------
    steps:
        Number of MD time steps to execute.
    seed:
        Root RNG seed for initial conditions.
    record_interval:
        Instrumentation records are kept every this many steps.
    force_backend:
        ``"kdtree"`` (default; ``"verlet"`` is the same path: a neighbour
        list built by scipy's cKDTree with a skin radius, rebuilt only on
        sufficient displacement) or ``"cells"`` (pure-NumPy linked cells,
        the faithful reference kernel, searched every step). All give
        bit-identical results.
    skin:
        Neighbour-list search margin beyond the cut-off (clamped to what the
        box admits). Larger skins rebuild less often but evaluate more
        candidates.
    neighbor_max_reuse:
        Cap on consecutive neighbour-list reuses before a forced rebuild
        (0 disables the cap; the displacement criterion alone decides).
    balancer:
        DLB strategy: ``"permanent"`` (the paper's permanent-cell protocol),
        ``"diffusion"`` (nearest-neighbour load diffusion), ``"sfc"``
        (space-filling-curve repartition; centralised engines only),
        or ``"none"`` (the no-balance counterfactual). ``None`` means
        ``"permanent"``. Only consulted when ``SimulationConfig.dlb.enabled``
        is true.
    timing_mode:
        ``"model"`` derives per-PE times from the calibratable cost model
        (fast, deterministic); ``"measured"`` uses the wall-clock times of
        an execution engine's per-PE force slices (host-dependent; needs an
        engine, and ``api.simulate`` supplies a sequential one).
    """

    steps: int
    seed: int | None = None
    record_interval: int = 1
    force_backend: str = "kdtree"
    skin: float = 0.4
    neighbor_max_reuse: int = 20
    balancer: str | None = None
    timing_mode: str = "model"

    def __post_init__(self) -> None:
        if self.steps < 0:
            raise ConfigurationError(f"steps must be non-negative, got {self.steps}")
        if self.record_interval <= 0:
            raise ConfigurationError(
                f"record_interval must be positive, got {self.record_interval}"
            )
        if self.force_backend not in ("kdtree", "cells", "verlet"):
            raise ConfigurationError(f"unknown force_backend {self.force_backend!r}")
        if self.skin <= 0:
            raise ConfigurationError(f"skin must be positive, got {self.skin}")
        if self.neighbor_max_reuse < 0:
            raise ConfigurationError(
                f"neighbor_max_reuse must be non-negative, got {self.neighbor_max_reuse}"
            )
        if self.balancer is not None and self.balancer not in BALANCER_NAMES:
            raise ConfigurationError(
                f"unknown balancer {self.balancer!r}; choose one of {BALANCER_NAMES}"
            )
        if self.timing_mode not in ("model", "measured"):
            raise ConfigurationError(f"unknown timing_mode {self.timing_mode!r}")


@dataclass(frozen=True)
class SimulationConfig:
    """Bundle of every configuration a parallel MD simulation needs."""

    md: MDConfig
    decomposition: DecompositionConfig
    dlb: DLBConfig = field(default_factory=DLBConfig)
    machine: MachineConfig = field(default_factory=MachineConfig)

    def __post_init__(self) -> None:
        cell_size = self.md.box_length / self.decomposition.cells_per_side
        # Cells must be at least as large as the cut-off (Section 2.2), or the
        # 26-neighbour stencil misses interacting pairs.
        if cell_size < self.md.cutoff - 1e-12:
            raise ConfigurationError(
                f"cell size {cell_size:.4f} smaller than cutoff {self.md.cutoff}: "
                "reduce cells_per_side or the cutoff"
            )

    @property
    def cell_size(self) -> float:
        """Edge length of one cubic cell."""
        return self.md.box_length / self.decomposition.cells_per_side
