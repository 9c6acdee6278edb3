"""Named workload presets: the paper's runs and scaled-down equivalents.

``paper`` presets match the published parameters exactly (N, C, P, m);
``scaled`` presets keep the *shape parameters* that matter to DLB -- the
pillar cross-section m, the density, the cells-per-PE ratio -- while shrinking
N and P so the runs complete in seconds on a laptop. Scaled MD presets add a
weak central attraction to reach the same concentration levels in hundreds of
steps instead of the paper's thousands (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import DecompositionConfig, MDConfig, SimulationConfig
from ..errors import ConfigurationError


@dataclass(frozen=True)
class Preset:
    """A named, fully specified workload.

    Attributes
    ----------
    name:
        Registry key.
    description:
        What it reproduces.
    n_particles, n_pes, cells_per_side, density:
        The headline parameters (``m = cells_per_side / sqrt(n_pes)``).
    steps:
        Recommended run length.
    attraction:
        Nucleation-attraction strength of the scaled MD presets.
    n_attractors:
        Number of nucleation sites (1 = box centre).
    """

    name: str
    description: str
    n_particles: int
    n_pes: int
    cells_per_side: int
    density: float
    steps: int
    attraction: float = 0.0
    n_attractors: int = 1

    @property
    def m(self) -> int:
        """Pillar cross-section of the preset."""
        return DecompositionConfig(self.cells_per_side, self.n_pes).pillar_m

    def simulation_config(self) -> SimulationConfig:
        """Materialise the preset as a :class:`SimulationConfig` (the paper's
        Section 3.2 conditions are the :class:`MDConfig` defaults)."""
        return SimulationConfig(
            md=MDConfig(
                n_particles=self.n_particles,
                density=self.density,
                attraction=self.attraction,
                n_attractors=self.n_attractors,
            ),
            decomposition=DecompositionConfig(self.cells_per_side, self.n_pes),
        )


#: Registry of named presets.
PRESETS: dict[str, Preset] = {
    # --- the paper's exact runs (Section 3.3) -----------------------------
    "fig5a-paper": Preset(
        name="fig5a-paper",
        description="Figure 5(a): m=4, N=59319, C=13824 (24^3), 36 PEs on T3E",
        n_particles=59319,
        n_pes=36,
        cells_per_side=24,
        density=0.256,
        steps=10000,
    ),
    "fig5b-paper": Preset(
        name="fig5b-paper",
        description="Figure 5(b): m=2, N=8000, C=1728 (12^3), 36 PEs on T3E",
        n_particles=8000,
        n_pes=36,
        cells_per_side=12,
        density=0.256,
        steps=10000,
    ),
    # --- scaled equivalents (same m, density, cells/PE; fewer PEs/particles)
    "fig5a-scaled": Preset(
        name="fig5a-scaled",
        description="Figure 5(a) shape at laptop scale: m=4, N=8000, 9 PEs",
        n_particles=8000,
        n_pes=9,
        cells_per_side=12,
        density=0.256,
        steps=2200,
        attraction=0.3,
        n_attractors=12,
    ),
    "fig5b-scaled": Preset(
        name="fig5b-scaled",
        description="Figure 5(b) shape at laptop scale: m=2, N=1000, 9 PEs",
        n_particles=1000,
        n_pes=9,
        cells_per_side=6,
        density=0.256,
        steps=3000,
        attraction=0.3,
        n_attractors=5,
    ),
    # --- tiny presets for tests and CI-speed benchmarks -------------------
    "quickstart": Preset(
        name="quickstart",
        description="Tiny demo/CI smoke run: m=2, N=1000, 9 PEs, seconds to finish",
        n_particles=1000,
        n_pes=9,
        cells_per_side=6,
        density=0.256,
        steps=120,
        attraction=0.6,
        n_attractors=5,
    ),
    "bench-m2": Preset(
        name="bench-m2",
        description="Benchmark-sized m=2 run: N=1000, 9 PEs",
        n_particles=1000,
        n_pes=9,
        cells_per_side=6,
        density=0.256,
        steps=2500,
        attraction=0.6,
        n_attractors=5,
    ),
    "bench-m4": Preset(
        name="bench-m4",
        description="Benchmark-sized m=4 run: N=8000, 9 PEs",
        n_particles=8000,
        n_pes=9,
        cells_per_side=12,
        density=0.256,
        steps=800,
        attraction=0.6,
        n_attractors=12,
    ),
}


def get_preset(name: str) -> Preset:
    """Look up a preset by name."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}"
        ) from None
