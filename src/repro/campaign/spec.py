"""Declarative campaign specifications.

A *campaign* is the unit the paper's evaluation actually consists of: tens to
hundreds of independent runs over a parameter grid (m x P x density x seeds,
or preset x balancer), each repeated per seed and aggregated into one
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
    a yes/no divergence check at that one level (the boundary itself is
    located by the ``"boundary"`` kind's detector sweep).
``"preset"``
    A named workload preset run under one balancer -- ``"none"`` is plain
    DDM, every other name DLB-DDM (the Figure 5/6 unit).
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable, Iterable
from dataclasses import InitVar, asdict, dataclass

from ..config import (
    BALANCER_NAMES,
    PROTOCOL_SETTINGS,
    SimulationConfig,
    check_types,
    mode_label,
)
from ..engine.base import ENGINE_NAMES
from ..errors import CampaignError, ConfigurationError
from ..experiments.common import geometry_for, simulation_config_for
from ..rng import repetition_seeds
from ..theory.boundary import FACTOR, SUSTAIN
from ..units import PAPER_RHO_SWEEP

#: Bump when the hashed content's layout changes (invalidates stored runs).
SPEC_SCHEMA = 1

#: Valid run kinds.
RUN_KINDS = ("boundary", "probe", "preset")

def fold_mode(mode: str | None, balancer: str | None) -> str | None:
    """The balancer a spec names once the compat ``"mode"`` key is folded in:
    ``"ddm"`` is ``"none"`` (a contradiction beside any other balancer) and
    ``"dlb"`` a no-op. Stored specs, service clients and the ledger's
    ``service_mix`` (also as ``RunSpec(**spec)``) still send it; remove with
    Ledger v2, once ``ledger/`` stops."""
    if mode is None or mode == "dlb":
        return balancer
    if mode != "ddm":
        raise CampaignError(f"mode must be ddm or dlb, got {mode!r}")
    if balancer not in (None, "none"):
        raise ConfigurationError(
            f"mode 'ddm' (plain DDM) contradicts balancer {balancer!r}; "
            "plain DDM is balancer 'none'"
        )
    return "none"


def _refuse_detector_settings(factor: float | None, sustain: int | None) -> None:
    """Refuse a spec that asks for a detector other than the fixed one.

    Every stored spec carries ``detector_factor`` and ``detector_sustain``
    from when the boundary detector had settings; those that hold the fixed
    :data:`~repro.theory.boundary.FACTOR` and
    :data:`~repro.theory.boundary.SUSTAIN` load, and any other value would
    describe a run this build cannot execute."""
    for key, value, fixed in (
        ("detector_factor", factor, FACTOR), ("detector_sustain", sustain, SUSTAIN),
    ):
        if value is not None and (type(value) is not type(fixed) or value != fixed):
            raise CampaignError(
                f"{key} must be {fixed!r} (the boundary detector is fixed), got {value!r}"
            )


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
    probe_index, probe_hold:
        Concentration level and hold length of the ``probe`` kind.
    preset:
        Workload name of the ``preset`` kind.
    engine, engine_workers:
        Execution engine of the ``preset`` kind (None = classic in-process).
        ``engine`` is part of the content hash (it selects the decomposed
        force path); ``engine_workers`` is not -- engine results are
        bit-identical for any worker count, and the scheduler rewrites it
        through the nested-parallelism guard without invalidating caches.
    balancer:
        Balancer of the ``preset`` kind (None = ``permanent``; ``"none"`` is
        plain DDM). ``"permanent"`` is folded to None at construction, so
        the default has one spelling and one hash. Part of the content hash
        when it names a rival strategy -- different strategies redistribute
        differently -- and omitted for None and ``"none"`` so older stored
        specs keep their hashes.
    mode:
        Constructor-only input (not a field), see :func:`fold_mode`.
    detector_factor, detector_sustain:
        Constructor-only inputs (not fields) that stored specs carry, see
        :func:`_refuse_detector_settings`. The ``boundary`` kind runs the
        fixed detector of :mod:`repro.theory.boundary`.
    """

    kind: str = "boundary"
    m: int = 3
    n_pes: int = 9
    density: float = 0.256
    n_steps: int = 110
    seed: int = 0
    repetition: int = 0
    rounds_per_config: int | None = None
    probe_index: int | None = None
    probe_hold: int = 30
    preset: str | None = None
    engine: str | None = None
    engine_workers: int | None = None
    balancer: str | None = None
    mode: InitVar[str | None] = None
    detector_factor: InitVar[float | None] = None
    detector_sustain: InitVar[int | None] = None

    #: What the type check raises (a ``5.0`` or ``true`` would hash apart).
    error_type = CampaignError

    def __post_init__(
        self, mode: str | None, detector_factor: float | None, detector_sustain: int | None
    ) -> None:
        check_types(self)
        _refuse_detector_settings(detector_factor, detector_sustain)
        object.__setattr__(self, "balancer", fold_mode(mode, self.balancer))
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
        if self.engine is not None:
            if self.kind != "preset":
                raise CampaignError("engines apply to preset runs only")
            if self.engine not in ENGINE_NAMES:
                raise CampaignError(f"unknown engine {self.engine!r}")
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
            if self.balancer == "permanent":
                # One run, one hash: the default strategy has one spelling.
                object.__setattr__(self, "balancer", None)

    # -- resolution and hashing -------------------------------------------

    def resolved_config(self) -> SimulationConfig:
        """The full :class:`SimulationConfig` this run executes against."""
        if self.kind == "preset":
            from ..workloads.presets import get_preset

            return get_preset(self.preset).simulation_config()
        geometry = geometry_for(self.m, self.n_pes, self.density)
        return simulation_config_for(geometry)

    def content(self) -> dict:
        """The hashed content: resolved simulation config + run knobs.

        Everything that influences the run's payload is in here; pure
        metadata (the repetition index) is not, so re-gridding a campaign
        never re-executes work it has already stored. Hash-preserving:
        ``dlb.enabled`` and ``preset.mode`` are derived from the balancer,
        the rest of ``dlb`` is the protocol's fixed settings, and
        ``decomposition.shape`` is the one shape the runners implement.
        """
        mode = mode_label(self.balancer)
        knobs = {
            "kind": self.kind,
            "n_steps": self.n_steps,
            "seed": self.seed,
            "rounds_per_config": self.rounds_per_config,
        }
        if self.kind == "boundary":
            # Hash-preserving: the fixed detector, hashed as the settings
            # every stored boundary spec was keyed by.
            knobs["detector"] = {"factor": FACTOR, "sustain": SUSTAIN}
        elif self.kind == "probe":
            knobs["probe"] = {"index": self.probe_index, "hold": self.probe_hold}
        else:
            knobs["preset"] = {
                "name": self.preset,
                "mode": mode,
                # Hash-preserving: the removed pair-search axis's only
                # surviving value, so every stored preset spec keeps its hash.
                "backend": "kdtree",
            }
            # Hash-preserving: engine-less specs keep their pre-engine hash,
            # and the worker count never enters (results are worker-count
            # independent by the engine's bit-identity guarantee).
            if self.engine is not None:
                knobs["preset"]["engine"] = self.engine
            # Hash-preserving likewise: default specs resolve to the
            # permanent strategy and keep their pre-seam hash, and "none"
            # specs hash as the plain-DDM ("mode": "ddm") specs they are.
            if self.balancer not in (None, "none"):
                knobs["preset"]["balancer"] = self.balancer
        config = asdict(self.resolved_config())
        config["dlb"] = dict(PROTOCOL_SETTINGS, enabled=mode == "dlb")
        config["decomposition"]["shape"] = "pillar"
        return {"schema": SPEC_SCHEMA, "config": config, "run": knobs}

    def spec_hash(self) -> str:
        """Deterministic content hash (hex, 16 chars) keying the run store."""
        canonical = json.dumps(self.content(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form (what the run store persists; read back with
        :func:`repro.config.from_dict`).

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

        Per-point seeds are ``seed + 1000*density`` for the Figure 10 grid,
        plus ``n_pes`` for Table 1 (``density_seed_offset`` /
        ``pes_seed_offset``); each point's repetitions are the spawned
        children of that seed (:func:`repro.rng.repetition_seeds`).
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
        n_steps: int = 200,
        seed: int = 7,
        description: str = "",
        engine: str | None = None,
        engine_workers: int | None = None,
        balancers: Iterable[str | None] = (None,),
    ) -> "CampaignSpec":
        """Expand a (preset x balancer) MD-comparison grid.

        ``balancers`` defaults to ``(None,)`` — ``permanent`` — which keeps
        pre-seam grids and their hashes unchanged; ``"none"`` is plain DDM.
        """
        runs = tuple(
            RunSpec(
                kind="preset",
                preset=preset,
                n_steps=n_steps,
                seed=seed,
                engine=engine,
                engine_workers=engine_workers,
                balancer=balancer,
            )
            for preset in presets
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
        balancers=("none", None),
        description="Figure 5: DDM vs DLB-DDM per-step time at bench scale",
    )


def _balancer_matrix() -> CampaignSpec:
    return CampaignSpec.preset_grid(
        "balancer-matrix",
        presets=("bench-m2", "bench-m4"),
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
