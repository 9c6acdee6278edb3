"""Pluggable pair/force kernel tiers behind the :class:`ForceField` seam.

Three registered backends share one contract -- given a candidate pair list
(possibly beyond the cut-off), produce the LJ forces, potential energy and
virial:

``numpy``
    The full-list reference: one monolithic vectorised pass over the whole
    candidate list (:func:`forces_from_pairs`, historically in ``forces.py``).
``half``
    Cache-blocked half-neighbour-list kernel. Candidates are walked in
    blocks of :data:`BLOCK_PAIRS` pairs so the per-block working set
    (index gathers, displacement rows, ``r^2``) stays L2-resident; each
    pair is evaluated exactly once and its force is scattered to both rows
    (Newton's third law) through the *same* ``np.bincount`` chain as the
    reference. Because the surviving pairs are re-assembled in original
    candidate order before any reduction runs, the result is **bit-identical**
    to the ``numpy`` tier for every candidate list (see DESIGN.md section 11
    for why a sorted-segment ``np.add.reduceat`` cannot offer this).
``jit``
    numba-compiled loop over the same half-list. The elementwise pair math
    mirrors the reference op-for-op (same expression order, IEEE-754
    correctly-rounded primitives) and the reductions reuse the reference's
    NumPy code path, so results are designed to match bit-for-bit; the
    documented contract is agreement within 1e-12 relative tolerance.
    numba is an *optional* dependency: requesting ``jit`` without it raises
    :class:`~repro.errors.ConfigurationError`, while ``auto`` silently
    falls back to ``half``.

Register additional backends with :func:`register_kernel`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import KERNEL_NAMES, resolve_strategy_name
from ..errors import ConfigurationError
from .pbc import minimum_image_inplace
from .potential import LennardJones

#: Pairs per evaluation block of the half-list kernel. 32768 pairs keep the
#: per-block arrays (two int64 index gathers, a (B, 3) displacement block and
#: its squared norms, ~1.5 MB total) inside a typical L2 cache; measured on
#: the clustered benchmark config this beats the monolithic reference pass by
#: ~1.3x while staying bit-identical.
BLOCK_PAIRS = 32768

#: Kernel names after ``auto`` resolution (what :func:`create_kernel` accepts).
RESOLVED_KERNEL_NAMES = ("numpy", "half", "jit")


@dataclass(frozen=True)
class ForceResult:
    """Output of one force evaluation.

    Attributes
    ----------
    forces:
        ``(N, 3)`` force array.
    potential_energy:
        Total potential energy (pairs + external attraction).
    virial:
        Pair virial ``sum(f_ij . r_ij)`` (for the pressure).
    n_pairs:
        Number of interacting pairs within the cut-off.
    """

    forces: np.ndarray
    potential_energy: float
    virial: float
    n_pairs: int


def forces_from_pairs(
    positions: np.ndarray,
    pairs: np.ndarray,
    box_length: float,
    potential: LennardJones,
    n_particles: int | None = None,
) -> ForceResult:
    """Accumulate LJ forces/energy/virial for an explicit pair list.

    ``pairs`` may contain pairs beyond the cut-off (candidate lists); they are
    filtered here. Newton's third law is applied, so each unordered pair must
    appear exactly once.

    This is the ``numpy`` kernel tier and the bit-level reference every other
    tier is held to: its candidate traversal order fixes the floating-point
    accumulation order of the ``bincount`` force reduction.
    """
    n = len(positions) if n_particles is None else n_particles
    forces = np.zeros((n, 3), dtype=np.float64)
    if len(pairs) == 0:
        return ForceResult(forces, 0.0, 0.0, 0)

    i = pairs[:, 0]
    j = pairs[:, 1]
    # take/compress are the fast spellings of positions[i] / x[mask]; with a
    # skinned candidate list (a third of it beyond the cut-off) they and the
    # in-place subtraction keep this pass near the cost of an exact list.
    delta = np.take(positions, i, axis=0)
    delta -= np.take(positions, j, axis=0)
    minimum_image_inplace(delta, box_length)
    r_sq = np.einsum("ij,ij->i", delta, delta)
    mask = r_sq < potential.cutoff_sq
    if not mask.all():
        i, j, r_sq = np.compress(mask, i), np.compress(mask, j), np.compress(mask, r_sq)
        delta = np.compress(mask, delta, axis=0)
    if len(i) == 0:
        return ForceResult(forces, 0.0, 0.0, 0)

    energies, f_over_r = potential.energy_force_sq(r_sq)
    fvec = delta * f_over_r[:, None]
    for axis in range(3):
        forces[:, axis] += np.bincount(i, weights=fvec[:, axis], minlength=n)
        forces[:, axis] -= np.bincount(j, weights=fvec[:, axis], minlength=n)
    potential_energy = float(energies.sum())
    virial = float(np.dot(f_over_r, r_sq))
    return ForceResult(forces, potential_energy, virial, int(len(i)))


# -- numba availability --------------------------------------------------------

_NUMBA_AVAILABLE: bool | None = None


def numba_available() -> bool:
    """Whether numba imports cleanly (cached; monkeypatch ``_NUMBA_AVAILABLE``)."""
    global _NUMBA_AVAILABLE
    if _NUMBA_AVAILABLE is None:
        try:
            import numba  # noqa: F401

            _NUMBA_AVAILABLE = True
        except Exception:
            _NUMBA_AVAILABLE = False
    return _NUMBA_AVAILABLE


def default_kernel() -> str:
    """Session default kernel: the ``REPRO_KERNEL`` env var, else ``"numpy"``."""
    return resolve_strategy_name(
        None,
        env_var="REPRO_KERNEL",
        choices=KERNEL_NAMES,
        label="kernel",
        env_default="numpy",
    )


def resolve_kernel_name(requested: str | None) -> str:
    """Resolve a requested kernel (or ``None``) to a concrete backend name.

    ``None`` defers to :func:`default_kernel`; ``"auto"`` picks ``"jit"``
    when numba is importable and silently falls back to ``"half"`` otherwise;
    an explicit ``"jit"`` without numba is a configuration error. Shares the
    precedence rule (explicit > env var > default) with every other strategy
    knob through :func:`repro.config.resolve_strategy_name`.
    """
    name = resolve_strategy_name(
        requested,
        env_var="REPRO_KERNEL",
        choices=KERNEL_NAMES,
        label="kernel",
        env_default="numpy",
    )
    if name == "auto":
        return "jit" if numba_available() else "half"
    if name == "jit" and not numba_available():
        raise ConfigurationError(
            "kernel 'jit' requires numba, which is not installed in this "
            "environment: install it (pip install numba) or use --kernel auto "
            "to fall back to the bit-identical 'half' kernel silently"
        )
    return name


# -- backend implementations ---------------------------------------------------


class KernelBackend:
    """Contract shared by all force-kernel tiers.

    Subclasses implement :meth:`evaluate` (full reduction to a
    :class:`ForceResult`) and :meth:`pair_terms` (the filtered per-pair
    quantities, for callers that apply their own weighting, e.g. the
    decomposed ghost-cell pass in :mod:`repro.core.ddm`). Both must preserve
    the *original candidate order* of surviving pairs -- that order is the
    floating-point accumulation order, hence the reproducibility contract.
    """

    #: Registry key; subclasses override.
    name = "abstract"

    def evaluate(
        self,
        positions: np.ndarray,
        candidates: np.ndarray,
        box_length: float,
        potential: LennardJones,
        n_particles: int | None = None,
    ) -> ForceResult:
        """Reduce a candidate pair list to forces / energy / virial."""
        raise NotImplementedError

    def pair_terms(
        self,
        positions: np.ndarray,
        candidates: np.ndarray,
        box_length: float,
        potential: LennardJones,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-pair quantities of the surviving (within-cut-off) candidates.

        Returns ``(i, j, fvec, energies, f_over_r, r_sq)`` filtered to pairs
        inside the cut-off, in original candidate order.
        """
        raise NotImplementedError

    def accepted_pairs(
        self,
        positions: np.ndarray,
        candidates: np.ndarray,
        box_length: float,
        potential: LennardJones,
    ) -> np.ndarray:
        """The ``(K, 2)`` surviving pair list (for pair-set equality checks)."""
        i, j, _, _, _, _ = self.pair_terms(positions, candidates, box_length, potential)
        return np.column_stack([i, j])


class NumpyKernel(KernelBackend):
    """Tier 1: the monolithic full-list reference pass."""

    name = "numpy"

    def evaluate(self, positions, candidates, box_length, potential, n_particles=None):
        return forces_from_pairs(positions, candidates, box_length, potential, n_particles)

    def pair_terms(self, positions, candidates, box_length, potential):
        i = candidates[:, 0]
        j = candidates[:, 1]
        delta = positions[i] - positions[j]
        minimum_image_inplace(delta, box_length)
        r_sq = np.einsum("ij,ij->i", delta, delta)
        mask = r_sq < potential.cutoff_sq
        if not mask.all():
            i, j, delta, r_sq = i[mask], j[mask], delta[mask], r_sq[mask]
        energies, f_over_r = potential.energy_force_sq(r_sq)
        fvec = delta * f_over_r[:, None]
        return i, j, fvec, energies, f_over_r, r_sq


class HalfListKernel(KernelBackend):
    """Tier 2: cache-blocked half-list evaluation, bit-identical to tier 1.

    The candidate list is processed in :attr:`block_pairs`-sized blocks in
    original order; each block gathers its positions, applies the minimum
    image, squares distances and drops out-of-range pairs exactly as the
    reference does. The surviving per-block slices are then concatenated --
    still in original candidate order -- and fed through the *identical*
    potential call and ``bincount`` Newton-3 scatter, so every intermediate
    array holds the same values in the same order as the reference and the
    reduction results match bit-for-bit. Blocking bounds the working set to
    the L2 cache instead of streaming multi-MB temporaries through DRAM.
    """

    name = "half"

    def __init__(self, block_pairs: int = BLOCK_PAIRS) -> None:
        if block_pairs <= 0:
            raise ConfigurationError(f"block_pairs must be positive, got {block_pairs}")
        self.block_pairs = int(block_pairs)

    def _blocked_terms(self, positions, candidates, box_length, potential):
        """Filtered (i, j, delta, r_sq) in original candidate order, blockwise."""
        cutoff_sq = potential.cutoff_sq
        i_all = candidates[:, 0]
        j_all = candidates[:, 1]
        chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        for start in range(0, len(candidates), self.block_pairs):
            end = min(start + self.block_pairs, len(candidates))
            i = i_all[start:end]
            j = j_all[start:end]
            delta = positions[i] - positions[j]
            minimum_image_inplace(delta, box_length)
            r_sq = np.einsum("ij,ij->i", delta, delta)
            within = r_sq < cutoff_sq
            if not within.all():
                i, j, delta, r_sq = i[within], j[within], delta[within], r_sq[within]
            if len(i):
                chunks.append((i, j, delta, r_sq))
        if not chunks:
            empty_i = np.empty(0, dtype=np.int64)
            return empty_i, empty_i, np.empty((0, 3)), np.empty(0)
        i = np.concatenate([c[0] for c in chunks])
        j = np.concatenate([c[1] for c in chunks])
        delta = np.concatenate([c[2] for c in chunks])
        r_sq = np.concatenate([c[3] for c in chunks])
        return i, j, delta, r_sq

    def evaluate(self, positions, candidates, box_length, potential, n_particles=None):
        n = len(positions) if n_particles is None else n_particles
        forces = np.zeros((n, 3), dtype=np.float64)
        if len(candidates) == 0:
            return ForceResult(forces, 0.0, 0.0, 0)
        i, j, delta, r_sq = self._blocked_terms(positions, candidates, box_length, potential)
        if len(i) == 0:
            return ForceResult(forces, 0.0, 0.0, 0)
        energies, f_over_r = potential.energy_force_sq(r_sq)
        fvec = delta * f_over_r[:, None]
        for axis in range(3):
            forces[:, axis] += np.bincount(i, weights=fvec[:, axis], minlength=n)
            forces[:, axis] -= np.bincount(j, weights=fvec[:, axis], minlength=n)
        return ForceResult(
            forces, float(energies.sum()), float(np.dot(f_over_r, r_sq)), int(len(i))
        )

    def pair_terms(self, positions, candidates, box_length, potential):
        i, j, delta, r_sq = self._blocked_terms(positions, candidates, box_length, potential)
        energies, f_over_r = potential.energy_force_sq(r_sq)
        fvec = delta * f_over_r[:, None]
        return i, j, fvec, energies, f_over_r, r_sq


_JIT_PAIR_TERMS = None


def _compiled_pair_terms():
    """Compile (once) the numba pair-term loop; raises if numba is missing."""
    global _JIT_PAIR_TERMS
    if _JIT_PAIR_TERMS is not None:
        return _JIT_PAIR_TERMS
    import numba

    @numba.njit(cache=False, fastmath=False)
    def pair_terms_loop(  # pragma: no cover - requires numba
        positions, rows, cols, box_length, sigma_sq, epsilon, cutoff_sq, v_shift,
        out_i, out_j, out_fvec, out_energy, out_f_over_r, out_r_sq,
    ):
        # Mirrors the reference tier op-for-op: minimum image via
        # round-half-even, r^2 as ((dx*dx + dy*dy) + dz*dz) matching the
        # einsum contraction, and the exact LJ expression order of
        # LennardJones.energy_force_sq. fastmath stays OFF so every
        # primitive is IEEE-754 correctly rounded.
        inv_box = 1.0 / box_length
        written = 0
        for k in range(rows.shape[0]):
            i = rows[k]
            j = cols[k]
            dx = positions[i, 0] - positions[j, 0]
            dy = positions[i, 1] - positions[j, 1]
            dz = positions[i, 2] - positions[j, 2]
            dx -= np.rint(dx * inv_box) * box_length
            dy -= np.rint(dy * inv_box) * box_length
            dz -= np.rint(dz * inv_box) * box_length
            r_sq = (dx * dx + dy * dy) + dz * dz
            if r_sq < cutoff_sq:
                inv_r2 = sigma_sq / r_sq
                sr6 = inv_r2 * inv_r2 * inv_r2
                sr12 = sr6 * sr6
                energy = 4.0 * epsilon * (sr12 - sr6) - v_shift
                f_over_r = 24.0 * epsilon * (2.0 * sr12 - sr6) / r_sq
                out_i[written] = i
                out_j[written] = j
                out_fvec[written, 0] = dx * f_over_r
                out_fvec[written, 1] = dy * f_over_r
                out_fvec[written, 2] = dz * f_over_r
                out_energy[written] = energy
                out_f_over_r[written] = f_over_r
                out_r_sq[written] = r_sq
                written += 1
        return written

    _JIT_PAIR_TERMS = pair_terms_loop
    return _JIT_PAIR_TERMS


class JitKernel(KernelBackend):
    """Tier 3: numba-compiled half-list loop (optional dependency).

    The compiled loop walks the candidate list in original order, evaluates
    each surviving pair once and writes its terms *compacted but order
    preserving* -- exactly the arrays the reference obtains by boolean
    masking. The Newton-3 scatter and the energy/virial reductions then run
    through the same NumPy code path as the other tiers, so any deviation
    from the reference can only come from elementwise rounding; with
    ``fastmath`` disabled the loop mirrors the reference IEEE op order and
    is designed to be bit-identical (contract: <= 1e-12 relative).
    """

    name = "jit"

    def __init__(self) -> None:
        if not numba_available():
            raise ConfigurationError(
                "kernel 'jit' requires numba, which is not installed in this "
                "environment: install it (pip install numba) or use --kernel "
                "auto to fall back to the bit-identical 'half' kernel silently"
            )
        self._loop = _compiled_pair_terms()

    def _compiled_terms(self, positions, candidates, box_length, potential):
        n_cand = len(candidates)
        out_i = np.empty(n_cand, dtype=np.int64)
        out_j = np.empty(n_cand, dtype=np.int64)
        out_fvec = np.empty((n_cand, 3), dtype=np.float64)
        out_energy = np.empty(n_cand, dtype=np.float64)
        out_f_over_r = np.empty(n_cand, dtype=np.float64)
        out_r_sq = np.empty(n_cand, dtype=np.float64)
        v_shift = potential._v_cut if potential.shift else 0.0
        written = self._loop(
            positions,
            np.ascontiguousarray(candidates[:, 0]),
            np.ascontiguousarray(candidates[:, 1]),
            float(box_length),
            float(potential.sigma * potential.sigma),
            float(potential.epsilon),
            float(potential.cutoff_sq),
            float(v_shift),
            out_i, out_j, out_fvec, out_energy, out_f_over_r, out_r_sq,
        )
        return (
            out_i[:written], out_j[:written], out_fvec[:written],
            out_energy[:written], out_f_over_r[:written], out_r_sq[:written],
        )

    def evaluate(self, positions, candidates, box_length, potential, n_particles=None):
        n = len(positions) if n_particles is None else n_particles
        forces = np.zeros((n, 3), dtype=np.float64)
        if len(candidates) == 0:
            return ForceResult(forces, 0.0, 0.0, 0)
        i, j, fvec, energies, f_over_r, r_sq = self._compiled_terms(
            positions, candidates, box_length, potential
        )
        if len(i) == 0:
            return ForceResult(forces, 0.0, 0.0, 0)
        for axis in range(3):
            forces[:, axis] += np.bincount(i, weights=fvec[:, axis], minlength=n)
            forces[:, axis] -= np.bincount(j, weights=fvec[:, axis], minlength=n)
        return ForceResult(
            forces, float(energies.sum()), float(np.dot(f_over_r, r_sq)), int(len(i))
        )

    def pair_terms(self, positions, candidates, box_length, potential):
        return self._compiled_terms(positions, candidates, box_length, potential)


# -- registry ------------------------------------------------------------------

_REGISTRY: dict[str, type[KernelBackend]] = {}


def register_kernel(name: str, factory: type[KernelBackend]) -> None:
    """Register a kernel backend class under ``name`` (overwrites allowed)."""
    _REGISTRY[name] = factory


register_kernel("numpy", NumpyKernel)
register_kernel("half", HalfListKernel)
register_kernel("jit", JitKernel)


def create_kernel(name: str | None = None) -> KernelBackend:
    """Instantiate the kernel backend for ``name`` (after ``auto`` resolution)."""
    resolved = resolve_kernel_name(name)
    try:
        factory = _REGISTRY[resolved]
    except KeyError:  # a registered-then-removed or exotic name
        raise ConfigurationError(
            f"no kernel backend registered under {resolved!r}; "
            f"known: {sorted(_REGISTRY)}"
        ) from None
    return factory()
