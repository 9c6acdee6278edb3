"""Declarative campaign specifications.

A *campaign* is the unit the paper's evaluation actually consists of: tens to
hundreds of independent runs over a parameter grid (m x P x density x seeds,
or preset x mode x backend), each repeated per seed and aggregated into one
figure or table.  :class:`CampaignSpec` describes that grid declaratively;
each cell is a :class:`RunSpec` keyed by a deterministic content hash of its
*resolved* configuration, so identical work is recognised across processes,
invocations and machines (the run store's exactly-once guarantee hangs off
this hash).

Three run kinds cover the repo's experiment surface:

``"boundary"``
    One concentration sweep + boundary-point detection (the repetition unit
    behind Figures 9/10 and Table 1) -- executes
    :func:`repro.experiments.fig10.run_boundary_repetition`.
``"probe"``
    A prefix of a concentration sweep held at a fixed concentration level:
    the yes/no divergence oracle the adaptive bisection search is built on
    (see :mod:`repro.campaign.search`).
``"preset"``
    A named workload preset run as DDM or DLB-DDM with a selectable force
    backend (the Figure 5/6 unit).
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable, Iterable
from dataclasses import asdict, dataclass, fields

from ..config import BALANCER_NAMES, SimulationConfig
from ..errors import CampaignError
from ..experiments.common import geometry_for, simulation_config_for
from ..md.forces import BACKENDS
from ..rng import repetition_seeds
from ..units import PAPER_RHO_SWEEP

#: Bump when the hashed content's layout changes (invalidates stored runs).
SPEC_SCHEMA = 1

#: Valid run kinds.
RUN_KINDS = ("boundary", "probe", "preset")


@dataclass(frozen=True)
class RunSpec:
    """One schedulable run, fully determined by its fields.

    Attributes
    ----------
    kind:
        One of :data:`RUN_KINDS`.
    m, n_pes, density:
        Experiment geometry of the ``boundary``/``probe`` kinds.
    n_steps:
        Schedule length (``boundary``/``probe``) or MD steps (``preset``).
    seed:
        The schedule seed (``boundary``/``probe``) or the run seed
        (``preset``).  This is the *only* stochastic input: a stored spec
        replays the run exactly.
    repetition:
        Informational repetition index within the campaign grid.  Not part
        of the content hash -- two repetitions with identical parameters and
        seed are the same run.
    rounds_per_config:
        Balancer rounds per configuration (None = ``auto_rounds``).
    detector_factor, detector_sustain:
        Boundary-detector knobs of the ``boundary`` kind.
    probe_index, probe_hold:
        Concentration level and hold length of the ``probe`` kind.
    preset, mode, backend:
        Workload name, ddm/dlb side and force backend of the ``preset`` kind.
    engine, engine_workers:
        Execution engine of the ``preset`` kind (None = classic in-process).
        ``engine`` is part of the content hash (it selects the decomposed
        force path); ``engine_workers`` is not -- engine results are
        bit-identical for any worker count, and the scheduler rewrites it
        through the nested-parallelism guard without invalidating caches.
    balancer:
        Balancer strategy of the ``preset`` kind (None = ``permanent``).
        Part of the content hash when set -- different strategies
        redistribute differently -- and omitted when None so pre-seam
        stored specs keep their hashes.
    """

    kind: str = "boundary"
    m: int = 3
    n_pes: int = 9
    density: float = 0.256
    n_steps: int = 110
    seed: int = 0
    repetition: int = 0
    rounds_per_config: int | None = None
    detector_factor: float = 2.5
    detector_sustain: int = 15
    probe_index: int | None = None
    probe_hold: int = 30
    preset: str | None = None
    mode: str = "dlb"
    backend: str = "kdtree"
    engine: str | None = None
    engine_workers: int | None = None
    balancer: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in RUN_KINDS:
            raise CampaignError(f"unknown run kind {self.kind!r} (expected {RUN_KINDS})")
        if self.n_steps <= 0:
            raise CampaignError(f"n_steps must be positive, got {self.n_steps}")
        if self.kind == "probe":
            if self.probe_index is None or self.probe_index < 0:
                raise CampaignError(
                    f"probe runs need a non-negative probe_index, got {self.probe_index}"
                )
            if self.probe_index >= self.n_steps:
                raise CampaignError(
                    f"probe_index {self.probe_index} outside the schedule "
                    f"(n_steps={self.n_steps})"
                )
            if self.probe_hold <= 0:
                raise CampaignError(f"probe_hold must be positive, got {self.probe_hold}")
        if self.kind == "preset":
            if not self.preset:
                raise CampaignError("preset runs need a preset name")
            if self.mode not in ("ddm", "dlb"):
                raise CampaignError(f"preset mode must be ddm or dlb, got {self.mode!r}")
        if self.backend not in BACKENDS:
            raise CampaignError(
                f"unknown backend {self.backend!r} (choose from {', '.join(BACKENDS)})"
            )
        if self.engine is not None:
            if self.kind != "preset":
                raise CampaignError("engines apply to preset runs only")
            if self.engine not in ("sequential", "multiprocess"):
                raise CampaignError(f"unknown engine {self.engine!r}")
            if self.backend == "cells":
                raise CampaignError(
                    "engines cut every PE's pairs from the kd-tree neighbour "
                    "list; backend 'cells' cannot run under an engine"
                )
        elif self.engine_workers is not None:
            raise CampaignError("engine_workers given without an engine")
        if self.balancer is not None:
            if self.kind != "preset":
                raise CampaignError("balancers apply to preset runs only")
            if self.balancer not in BALANCER_NAMES:
                raise CampaignError(
                    f"unknown balancer {self.balancer!r} (choose from "
                    f"{', '.join(BALANCER_NAMES)})"
                )

    # -- resolution and hashing -------------------------------------------

    def resolved_config(self) -> SimulationConfig:
        """The full :class:`SimulationConfig` this run executes against."""
        if self.kind == "preset":
            from ..workloads.presets import get_preset

            return get_preset(self.preset).simulation_config(
                dlb_enabled=self.mode == "dlb"
            )
        geometry = geometry_for(self.m, self.n_pes, self.density)
        return simulation_config_for(geometry, dlb_enabled=True)

    def content(self) -> dict:
        """The hashed content: resolved simulation config + run knobs.

        Everything that influences the run's payload is in here; pure
        metadata (the repetition index) is not, so re-gridding a campaign
        never re-executes work it has already stored.
        """
        knobs = {
            "kind": self.kind,
            "n_steps": self.n_steps,
            "seed": self.seed,
            "rounds_per_config": self.rounds_per_config,
        }
        if self.kind == "boundary":
            knobs["detector"] = {
                "factor": self.detector_factor,
                "sustain": self.detector_sustain,
            }
        elif self.kind == "probe":
            knobs["probe"] = {"index": self.probe_index, "hold": self.probe_hold}
        else:
            knobs["preset"] = {
                "name": self.preset,
                "mode": self.mode,
                "backend": self.backend,
            }
            # Hash-preserving: engine-less specs keep their pre-engine hash,
            # and the worker count never enters (results are worker-count
            # independent by the engine's bit-identity guarantee).
            if self.engine is not None:
                knobs["preset"]["engine"] = self.engine
            # Hash-preserving likewise: balancer-less specs resolve to the
            # permanent strategy and keep their pre-seam hash.
            if self.balancer is not None:
                knobs["preset"]["balancer"] = self.balancer
        return {
            "schema": SPEC_SCHEMA,
            "config": asdict(self.resolved_config()),
            "run": knobs,
        }

    def spec_hash(self) -> str:
        """Deterministic content hash (hex, 16 chars) keying the run store."""
        canonical = json.dumps(self.content(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    # -- (de)serialisation -------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form (what the run store persists).

        Engine fields are omitted at their defaults, so stored spec JSON is
        byte-identical to pre-engine stores for engine-less runs.
        """
        data = asdict(self)
        if self.engine is None:
            del data["engine"]
            del data["engine_workers"]
        if self.balancer is None:
            del data["balancer"]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        """Rebuild a spec from :meth:`to_dict` output (extra keys ignored)."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass(frozen=True)
class CampaignSpec:
    """A named, ordered collection of runs."""

    name: str
    runs: tuple[RunSpec, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise CampaignError("campaigns need a name")
        if not self.runs:
            raise CampaignError(f"campaign {self.name!r} has no runs")

    def __len__(self) -> int:
        return len(self.runs)

    def hashes(self) -> list[str]:
        """Content hash of every run, in campaign order."""
        return [run.spec_hash() for run in self.runs]

    @classmethod
    def boundary_grid(
        cls,
        name: str,
        m_values: Iterable[int],
        pe_counts: Iterable[int],
        densities: Iterable[float],
        n_repetitions: int,
        n_steps: int,
        seed: int = 0,
        description: str = "",
        density_seed_offset: bool = True,
        pes_seed_offset: bool = False,
    ) -> "CampaignSpec":
        """Expand an (m x P x density x repetition) boundary grid.

        Per-point seeds follow the serial drivers exactly --
        ``seed + 1000*density`` for the Figure 10 grid, plus ``n_pes`` for
        Table 1 -- so a campaign's stored payloads agree bit-for-bit with
        :func:`repro.experiments.fig10.run_fig10` /
        :func:`repro.experiments.table1.run_table1` at the same parameters.
        """
        runs: list[RunSpec] = []
        for m in m_values:
            for n_pes in pe_counts:
                for density in densities:
                    point_seed = seed
                    if density_seed_offset:
                        point_seed += int(1000 * density)
                    if pes_seed_offset:
                        point_seed += n_pes
                    for rep, schedule_seed in enumerate(
                        repetition_seeds(point_seed, n_repetitions)
                    ):
                        runs.append(
                            RunSpec(
                                kind="boundary",
                                m=m,
                                n_pes=n_pes,
                                density=density,
                                n_steps=n_steps,
                                seed=schedule_seed,
                                repetition=rep,
                            )
                        )
        return cls(name=name, runs=tuple(runs), description=description)

    @classmethod
    def preset_grid(
        cls,
        name: str,
        presets: Iterable[str],
        modes: Iterable[str] = ("ddm", "dlb"),
        backends: Iterable[str] = ("kdtree",),
        n_steps: int = 200,
        seed: int = 7,
        description: str = "",
        engine: str | None = None,
        engine_workers: int | None = None,
        balancers: Iterable[str | None] = (None,),
    ) -> "CampaignSpec":
        """Expand a (preset x mode x backend x balancer) MD-comparison grid.

        ``balancers`` defaults to ``(None,)`` — ``permanent`` — which keeps
        pre-seam grids and their hashes unchanged.
        """
        runs = tuple(
            RunSpec(
                kind="preset",
                preset=preset,
                mode=mode,
                backend=backend,
                n_steps=n_steps,
                seed=seed,
                engine=engine,
                engine_workers=engine_workers,
                balancer=balancer,
            )
            for preset in presets
            for mode in modes
            for backend in backends
            for balancer in balancers
        )
        return cls(name=name, runs=runs, description=description)


# -- built-in campaigns -----------------------------------------------------


def _smoke() -> CampaignSpec:
    return CampaignSpec.boundary_grid(
        "smoke",
        m_values=(2,),
        pe_counts=(9,),
        densities=(0.256, 0.384),
        n_repetitions=3,
        n_steps=60,
        description="6-run smoke campaign (CI interrupt/resume check)",
    )


def _fig9_quick() -> CampaignSpec:
    return CampaignSpec.boundary_grid(
        "fig9-quick",
        m_values=(3,),
        pe_counts=(9,),
        densities=(0.256,),
        n_repetitions=1,
        n_steps=110,
        description="Figure 9: one (n, C0/C) trajectory sweep at m=3, P=9",
    )


def _fig10_quick() -> CampaignSpec:
    return CampaignSpec.boundary_grid(
        "fig10-quick",
        m_values=(2, 3, 4),
        pe_counts=(9,),
        densities=PAPER_RHO_SWEEP,
        n_repetitions=3,
        n_steps=100,
        description="Figure 10 panels at bench scale (P=9, 3 repetitions/point)",
    )


def _fig10_full() -> CampaignSpec:
    return CampaignSpec.boundary_grid(
        "fig10-full",
        m_values=(2, 3, 4),
        pe_counts=(36,),
        densities=PAPER_RHO_SWEEP,
        n_repetitions=10,
        n_steps=130,
        description="Figure 10 at the paper's scale (P=36, 10 repetitions/point)",
    )


def _table1_quick() -> CampaignSpec:
    return CampaignSpec.boundary_grid(
        "table1-quick",
        m_values=(2, 3),
        pe_counts=(9, 16),
        densities=PAPER_RHO_SWEEP,
        n_repetitions=3,
        n_steps=90,
        description="Table 1 E/T grid at bench scale",
        pes_seed_offset=True,
    )


def _table1_full() -> CampaignSpec:
    return CampaignSpec.boundary_grid(
        "table1-full",
        m_values=(2, 3, 4),
        pe_counts=(16, 36, 64),
        densities=PAPER_RHO_SWEEP,
        n_repetitions=10,
        n_steps=130,
        description="Table 1 at the paper's scale (16/36/64 PEs)",
        pes_seed_offset=True,
    )


def _fig5_quick() -> CampaignSpec:
    return CampaignSpec.preset_grid(
        "fig5-quick",
        presets=("bench-m2", "bench-m4"),
        n_steps=200,
        description="Figure 5: DDM vs DLB-DDM per-step time at bench scale",
    )


def _balancer_matrix() -> CampaignSpec:
    return CampaignSpec.preset_grid(
        "balancer-matrix",
        presets=("bench-m2", "bench-m4"),
        modes=("dlb",),
        n_steps=200,
        balancers=BALANCER_NAMES,
        description=(
            "Balancer strategy matrix: permanent vs diffusion vs sfc vs none "
            "over the bench presets (the comparison-table unit)"
        ),
    )


#: Registry of built-in campaigns (factories, so specs stay immutable).
BUILTIN_CAMPAIGNS: dict[str, Callable[[], CampaignSpec]] = {
    "smoke": _smoke,
    "balancer-matrix": _balancer_matrix,
    "fig5-quick": _fig5_quick,
    "fig9-quick": _fig9_quick,
    "fig10-quick": _fig10_quick,
    "fig10-full": _fig10_full,
    "table1-quick": _table1_quick,
    "table1-full": _table1_full,
}


def campaign_names() -> list[str]:
    """Names of the built-in campaigns."""
    return sorted(BUILTIN_CAMPAIGNS)


def get_campaign(name: str) -> CampaignSpec:
    """Look up a built-in campaign by name."""
    try:
        factory = BUILTIN_CAMPAIGNS[name]
    except KeyError:
        raise CampaignError(
            f"unknown campaign {name!r}; available: {', '.join(campaign_names())}"
        ) from None
    return factory()
