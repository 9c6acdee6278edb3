"""Configuration dataclasses shared across the library.

Each dataclass checks its field types (:func:`check_types`), then its values
in ``__post_init__``, raising :class:`repro.errors.ConfigurationError` (or
its ``error_type``), so invalid setups fail loudly at construction time.
:func:`from_dict` reads a config tree from JSON-shaped data (the writer is
:func:`dataclasses.asdict`); :func:`config_token` keys a checkpoint to it.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import types
import typing
from collections.abc import Collection
from dataclasses import MISSING, InitVar, dataclass, field, fields, is_dataclass
from typing import Any

from .errors import ConfigurationError, ReproError
from .units import (
    PAPER_CUTOFF,
    PAPER_DT,
    PAPER_RESCALE_INTERVAL,
    PAPER_RHO,
    PAPER_T_REF,
    box_length_for,
)

# -- one type check, one reader, one token ----------------------------------

_WANTS = {int: "an integer", float: "a number", bool: "true or false",
          str: "a string", type(None): "null"}


@functools.cache
def _hints(cls: type) -> dict[str, Any]:
    """The resolved annotation of each constructor argument (and InitVar)."""
    init = {f.name for f in fields(cls) if f.init}
    return {
        name: hint.type if isinstance(hint, InitVar) else hint
        for name, hint in typing.get_type_hints(cls).items()
        if name in init or isinstance(hint, InitVar)
    }


def _expected(hint: Any, value: Any) -> str | None:
    """None when ``value`` fits the annotation ``hint``, else what it wants.
    Ints refuse ``bool`` and floats; floats accept ints."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        wants = [_expected(arg, value) for arg in args]
        return None if None in wants else " or ".join(wants)
    if origin is tuple:
        fits = isinstance(value, tuple) and not any(_expected(args[0], v) for v in value)
    else:
        fits = isinstance(value, (int, float) if hint is float else hint) and not (
            isinstance(value, bool) and hint in (int, float)
        )
    return None if fits else _WANTS.get(hint, f"a {(origin or hint).__name__}")


def check_types(config: Any) -> None:
    """Refuse any field whose value does not match its annotation (the first
    check of every config's ``__post_init__``)."""
    for f in fields(config):
        value = getattr(config, f.name)
        want = _expected(_hints(type(config))[f.name], value)
        if want:
            error = getattr(config, "error_type", ConfigurationError)
            raise error(f"{f.name} must be {want}, got {value!r}")


class Checked:
    """Base of the config dataclasses whose only check is :func:`check_types`."""

    def __post_init__(self) -> None:
        check_types(self)


def _read(hint: Any, value: Any, path: str, retired: Collection[str], error) -> Any:
    """One JSON value read against ``hint`` (objects to dataclasses, lists to
    tuples), then type-checked."""
    nested = [arg for arg in typing.get_args(hint) or (hint,) if is_dataclass(arg)]
    if nested and isinstance(value, dict):
        value = from_dict(nested[0], value, retired=retired, _path=path)
    elif typing.get_origin(hint) is tuple and isinstance(value, list | tuple):
        item = typing.get_args(hint)[0]
        value = tuple(
            _read(item, v, f"{path}[{i}]", retired, error) for i, v in enumerate(value)
        )
    want = _expected(hint, value)
    if want:
        raise error(f"{path} must be {want}, got {value!r}")
    return value


def from_dict(
    cls: type, data: Any, *, retired: Collection[str] = (), _path: str = ""
) -> Any:
    """Build the config dataclass ``cls`` (and all nested in it) from
    JSON-shaped data: the strict inverse of :func:`dataclasses.asdict`.
    Unknown keys are refused, except the dotted paths in ``retired`` (keys
    older versions of a persisted format wrote), which are dropped. Errors
    have the type ``cls.error_type`` and name the dotted path of the first
    bad key or value (``slowdowns[0].pe``)."""
    error = getattr(cls, "error_type", ConfigurationError)
    where = _path or "the top level"
    if not isinstance(data, dict):
        raise error(f"{_path or cls.__name__} must be an object, got {type(data).__name__}")
    hints = _hints(cls)
    paths = {key: f"{_path}.{key}" if _path else key for key in data}
    unknown = [key for key in data if key not in hints and paths[key] not in retired]
    if unknown:
        raise error(f"unknown field(s) {', '.join(map(repr, sorted(unknown)))} at "
                    f"{where}; known: {sorted(hints)}")
    missing = [f.name for f in fields(cls) if f.init and f.name not in data
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise error(f"missing field(s) {', '.join(map(repr, missing))} at {where}")
    kwargs = {key: _read(hints[key], value, paths[key], retired, error)
              for key, value in data.items() if key in hints}
    try:
        return cls(**kwargs)
    except ReproError as exc:
        if not _path:
            raise
        raise type(exc)(f"{_path}: {exc}") from exc


def _sparse(config: Any) -> dict[str, Any]:
    """``config`` as JSON data without its default-valued leaves (and
    without the nested configs that leaves empty)."""
    out = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if is_dataclass(value):
            value = _sparse(value)
        if value != f.default and value != {}:
            out[f.name] = value
    return out


def config_token(**parts: Any) -> str:
    """Identity of the configuration a checkpoint belongs to: SHA-256 of the
    canonical JSON of ``parts``, each config without its default-valued
    leaves, so fields added or removed at their defaults keep snapshots
    resumable (a changed default needs a ``SNAPSHOT_FORMAT`` bump)."""
    tree = {name: _sparse(part) if is_dataclass(part) else part
            for name, part in parts.items()}
    canonical = json.dumps(tree, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


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
        check_types(self)
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


#: The balancer names: the one table :mod:`repro.dlb.strategies`,
#: ``RunSpec`` and ``--balancer`` read, and the only switch for balancing.
#: ``"permanent"`` is the paper's protocol and the default; ``"none"`` is
#: plain DDM (no balancer, no DLB protocol, nothing charged for it).
BALANCER_NAMES = ("permanent", "diffusion", "sfc", "none")


def mode_label(balancer: str | None) -> str:
    """``"ddm"`` for ``"none"``, else ``"dlb"``: the one derivation of the
    run-mode label metadata, metrics, events, payloads and hashes carry."""
    return "ddm" if balancer == "none" else "dlb"


@dataclass(frozen=True)
class DecompositionConfig:
    """Cell grid and PE layout of a square-pillar domain decomposition:
    the paper's choice for DLB, each PE a pillar of ``m x m`` cell columns
    on a 2-D torus (the plane and cube shapes of Section 2.2 are compared
    in closed form by :mod:`repro.decomp.shapes`).

    Attributes
    ----------
    cells_per_side:
        ``C^(1/3)``: number of cells along each axis of the cubic grid.
    n_pes:
        Number of processing elements ``P``, a perfect square.
    """

    cells_per_side: int
    n_pes: int

    def __post_init__(self) -> None:
        check_types(self)
        if self.cells_per_side <= 0:
            raise ConfigurationError(f"cells_per_side must be positive, got {self.cells_per_side}")
        if self.n_pes <= 0:
            raise ConfigurationError(f"n_pes must be positive, got {self.n_pes}")
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

    @property
    def n_cells(self) -> int:
        """Total number of cells ``C``."""
        return self.cells_per_side**3

    @property
    def pe_side(self) -> int:
        """``P^(1/2)``: the side of the PE torus."""
        return math.isqrt(self.n_pes)

    @property
    def pillar_m(self) -> int:
        """Pillar cross-section size ``m = C^(1/3) / P^(1/2)`` (Figure 7)."""
        return self.cells_per_side // self.pe_side


@dataclass(frozen=True)
class DLBConfig:
    """Behaviour of the permanent-cell dynamic load balancer.

    Attributes
    ----------
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

    interval: int = 1
    max_sends_per_step: int = 1
    policy: str = "fastest"
    threshold: float = 0.1

    def __post_init__(self) -> None:
        check_types(self)
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
        decision), charged only to runs with a balancer (not ``"none"``).
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
        check_types(self)
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
        Selects nothing: every run searches pairs with one cached kd-tree
        list, and nothing in the library reads this field. ``"kdtree"``
        (default) and ``"verlet"`` are accepted; ``"cells"`` is refused,
        since the per-step linked-cell search was removed. The field keeps
        its place only because ``ledger/workloads.py`` still passes it, and
        goes with Ledger v2; held at its default, it leaves every
        checkpoint's config token unchanged when it goes.
    skin:
        Neighbour-list search margin beyond the cut-off (clamped to what the
        box admits). The list is rebuilt exactly when some particle has
        moved more than ``skin / 2`` since the last build: larger skins
        rebuild less often but evaluate more candidates.
    balancer:
        DLB strategy: ``"permanent"`` (the paper's permanent-cell protocol),
        ``"diffusion"`` (nearest-neighbour load diffusion), ``"sfc"``
        (space-filling-curve repartition; centralised engines only),
        or ``"none"`` (plain DDM: no balancer is built and no DLB protocol
        is charged). ``None`` means ``"permanent"``.
    """

    steps: int
    seed: int | None = None
    record_interval: int = 1
    force_backend: str = "kdtree"
    skin: float = 0.4
    balancer: str | None = None

    def __post_init__(self) -> None:
        check_types(self)
        if self.steps < 0:
            raise ConfigurationError(f"steps must be non-negative, got {self.steps}")
        if self.record_interval <= 0:
            raise ConfigurationError(
                f"record_interval must be positive, got {self.record_interval}"
            )
        if self.force_backend == "cells":
            raise ConfigurationError(
                "force_backend 'cells' is gone: the per-step linked-cell search "
                "was removed; every run uses the cached kd-tree list"
            )
        if self.force_backend not in ("kdtree", "verlet"):
            raise ConfigurationError(f"unknown force_backend {self.force_backend!r}")
        if self.skin <= 0:
            raise ConfigurationError(f"skin must be positive, got {self.skin}")
        if self.balancer is not None and self.balancer not in BALANCER_NAMES:
            raise ConfigurationError(
                f"unknown balancer {self.balancer!r}; choose one of {BALANCER_NAMES}"
            )


@dataclass(frozen=True)
class SimulationConfig:
    """Bundle of every configuration a parallel MD simulation needs."""

    md: MDConfig
    decomposition: DecompositionConfig
    dlb: DLBConfig = field(default_factory=DLBConfig)
    machine: MachineConfig = field(default_factory=MachineConfig)

    def __post_init__(self) -> None:
        check_types(self)
        # Cells must be at least as large as the cut-off (Section 2.2), or the
        # 26-neighbour stencil misses interacting pairs.
        if self.cell_size < self.md.cutoff - 1e-12:
            raise ConfigurationError(
                f"cell size {self.cell_size:.4f} smaller than cutoff {self.md.cutoff}: "
                "reduce cells_per_side or the cutoff"
            )

    @property
    def cell_size(self) -> float:
        """Edge length of one cubic cell."""
        return self.md.box_length / self.decomposition.cells_per_side
