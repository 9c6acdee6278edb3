"""Adaptive boundary search: bisection over the concentration schedule.

The exhaustive way to localise DLB's effective-range boundary (the Figure 10
"E" points) is to run the full concentration sweep and watch where the spread
diverges -- every repetition costs a whole ``n_steps`` schedule.  But the
underlying question per concentration level is binary ("does DLB still keep
up here?") and monotone in the level: once the concentration exceeds the
effective range, holding it there keeps the spread diverged.  That structure
admits bisection.

A *probe* (``RunSpec(kind="probe")``) runs the schedule prefix up to a level
and then holds that level; its payload's ``diverged`` flag is the oracle.
:func:`bisect_boundary` needs ``O(log G)`` probes to localise the boundary on
a ``G``-point grid where :func:`exhaustive_boundary_scan` needs ``G`` -- the
benchmark asserts the >= 2x saving.  Probes are ordinary campaign runs:
handed a :class:`~repro.campaign.store.RunStore`, repeated searches reuse
each other's probes for free.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CampaignError
from .executor import _pool_worker
from .pool import Batch
from .spec import RunSpec
from .store import RunStore


def probe_spec(
    m: int,
    n_pes: int,
    density: float,
    index: int,
    n_steps: int = 100,
    seed: int = 0,
    probe_hold: int = 30,
    rounds_per_config: int | None = None,
) -> RunSpec:
    """The probe run asking "does DLB diverge at schedule level ``index``?"."""
    return RunSpec(
        kind="probe",
        m=m,
        n_pes=n_pes,
        density=density,
        n_steps=n_steps,
        seed=seed,
        probe_index=index,
        probe_hold=probe_hold,
        rounds_per_config=rounds_per_config,
    )


def evaluate_probe(
    spec: RunSpec,
    store: RunStore | None = None,
    campaign: str = "search",
) -> dict:
    """A probe's payload, served from ``store`` or executed into it.

    With a store, the probe is a one-run :class:`~repro.campaign.pool.Batch`
    like any campaign run: a probe another process holds is not executed
    here (its payload is served once that process commits it), and a probe
    that raises ends ``failed``.  It runs on a thread of this process, as a
    search always has.  Without a store it is executed directly.  Either
    way a probe that raises raises :class:`CampaignError` here.
    """
    if spec.kind != "probe":
        raise CampaignError(f"evaluate_probe needs a probe spec, got {spec.kind!r}")
    if store is None:
        outcome = _pool_worker(spec.to_dict(), None)
        if not outcome["ok"]:
            raise CampaignError(f"probe failed: {outcome['error']}")
        return outcome["payload"]
    run_hash = store.register(spec, campaign)
    if store.get(run_hash).status != "done":
        Batch(
            store, {run_hash: spec}, runner=_pool_worker, threads=True, retries=0
        ).run()
    stored = store.get(run_hash)
    if stored.status != "done":
        raise CampaignError(
            f"probe {run_hash} ended {stored.status!r}: {stored.error}"
        )
    return stored.payload


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a boundary search over one (m, P, density) geometry.

    Attributes
    ----------
    boundary_index:
        First grid level whose probe diverges, or None when DLB keeps up
        across the whole grid.
    point:
        ``(n, c0_ratio)`` read off the boundary probe's trajectory
        (None when no boundary was found).
    n_probes:
        Probes *evaluated* by this search -- the cost the benchmark compares
        (cache hits served by a shared store still count; they would have
        been runs without the search strategy).
    grid:
        The schedule levels the search discretised over.
    """

    m: int
    n_pes: int
    density: float
    boundary_index: int | None
    point: tuple[float, float] | None
    n_probes: int
    grid: tuple[int, ...]

    @property
    def found(self) -> bool:
        """Whether the search localised a boundary."""
        return self.boundary_index is not None


def _search_grid(n_steps: int, stride: int) -> tuple[int, ...]:
    if stride <= 0:
        raise CampaignError(f"stride must be positive, got {stride}")
    return tuple(range(0, n_steps, stride))


def _point_of(payload: dict) -> tuple[float, float]:
    return (float(payload["n"]), float(payload["c0_ratio"]))


def bisect_boundary(
    m: int,
    n_pes: int,
    density: float,
    n_steps: int = 100,
    stride: int = 4,
    seed: int = 0,
    probe_hold: int = 30,
    rounds_per_config: int | None = None,
    store: RunStore | None = None,
) -> SearchResult:
    """Localise the first diverging schedule level by binary search.

    Assumes the probe oracle is monotone in the level (below the effective
    range DLB holds the spread, above it the spread stays diverged), which
    is the paper's own premise for a *boundary* existing.  Grid resolution
    matches :func:`exhaustive_boundary_scan` at the same ``stride``, so the
    two localise the same level -- in ``O(log G)`` instead of ``O(G)`` runs.
    """
    grid = _search_grid(n_steps, stride)
    n_probes = 0

    def oracle(index_in_grid: int) -> dict:
        nonlocal n_probes
        n_probes += 1
        spec = probe_spec(
            m, n_pes, density, grid[index_in_grid],
            n_steps=n_steps, seed=seed, probe_hold=probe_hold,
            rounds_per_config=rounds_per_config,
        )
        return evaluate_probe(spec, store=store)

    def result(boundary: int | None, payload: dict | None) -> SearchResult:
        return SearchResult(
            m=m, n_pes=n_pes, density=density,
            boundary_index=None if boundary is None else grid[boundary],
            point=_point_of(payload) if payload is not None else None,
            n_probes=n_probes, grid=grid,
        )

    # No boundary inside the grid at all?  One probe at the top level
    # settles it (and doubles as the bisection's initial "high" witness).
    top = oracle(len(grid) - 1)
    if not top["diverged"]:
        return result(None, None)
    first = oracle(0)
    if first["diverged"]:
        return result(0, first)

    # Invariant: grid[lo] holds, grid[hi] diverges.
    lo, hi, hi_payload = 0, len(grid) - 1, top
    while hi - lo > 1:
        mid = (lo + hi) // 2
        payload = oracle(mid)
        if payload["diverged"]:
            hi, hi_payload = mid, payload
        else:
            lo = mid
    return result(hi, hi_payload)


def exhaustive_boundary_scan(
    m: int,
    n_pes: int,
    density: float,
    n_steps: int = 100,
    stride: int = 4,
    seed: int = 0,
    probe_hold: int = 30,
    rounds_per_config: int | None = None,
    store: RunStore | None = None,
) -> SearchResult:
    """Probe every grid level in order -- the baseline the bisection beats.

    Scans the whole grid unconditionally (the way a parameter sweep would),
    then reports the first diverging level.
    """
    grid = _search_grid(n_steps, stride)
    boundary: int | None = None
    boundary_payload: dict | None = None
    for position, index in enumerate(grid):
        payload = evaluate_probe(
            probe_spec(
                m, n_pes, density, index,
                n_steps=n_steps, seed=seed, probe_hold=probe_hold,
                rounds_per_config=rounds_per_config,
            ),
            store=store,
        )
        if payload["diverged"] and boundary is None:
            boundary = position
            boundary_payload = payload
    return SearchResult(
        m=m, n_pes=n_pes, density=density,
        boundary_index=None if boundary is None else grid[boundary],
        point=_point_of(boundary_payload) if boundary_payload is not None else None,
        n_probes=len(grid), grid=grid,
    )
