"""The one pair kernel: ``pair_terms`` and the block fold of ``forces_from_pairs``.

The generators cover the regimes where a pair kernel goes wrong if it is
going to: uniform random gases, clustered blobs (the paper's concentration
regime), and pairs engineered to straddle the cut-off where the accept mask
itself is the hazard.
"""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.config import RunConfig
from repro.md import kernels
from repro.md.kernels import ForceResult, forces_from_pairs, pair_terms
from repro.md.neighbors import VerletList, canonical_pairs, pairs_kdtree
from repro.md.pbc import minimum_image, pair_displacements
from repro.md.potential import LennardJones

POTENTIAL = LennardJones()
CUTOFF = POTENTIAL.cutoff


def candidate_list(positions: np.ndarray, box: float) -> np.ndarray:
    """A skin-padded canonical candidate list (contains beyond-cut-off pairs)."""
    return canonical_pairs(pairs_kdtree(positions, box, CUTOFF + 0.4))


def uniform_gas(seed: int, n: int, box: float) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.0, box, (n, 3))


def clustered_gas(seed: int, n: int, box: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    blob = rng.normal(box / 2.0, box / 12.0, (n // 2, 3))
    rest = rng.uniform(0.0, box, (n - n // 2, 3))
    return np.mod(np.vstack([blob, rest]), box)


def near_cutoff_gas(seed: int, n: int, box: float) -> np.ndarray:
    """Pairs deliberately placed a hair inside/outside the cut-off sphere.

    The accept decision ``r_sq < cutoff_sq`` is where a different distance
    computation would first diverge, so stress it with separations within
    +/- 1e-7 of the cut-off.
    """
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, box, (n // 2, 3))
    directions = rng.normal(size=(n // 2, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = CUTOFF + rng.uniform(-1e-7, 1e-7, n // 2)
    partners = centers + directions * radii[:, None]
    return np.mod(np.vstack([centers, partners]), box)


GENERATORS = {
    "uniform": uniform_gas,
    "clustered": clustered_gas,
    "near_cutoff": near_cutoff_gas,
}


@given(
    regime=st.sampled_from(sorted(GENERATORS)),
    seed=st.integers(min_value=0, max_value=1_000),
    n=st.integers(min_value=16, max_value=160),
)
@settings(max_examples=25, deadline=None)
def test_forces_are_pair_terms_scattered_in_candidate_order(regime, seed, n):
    box = max((n / 0.25) ** (1.0 / 3.0), 3.0 * CUTOFF)
    positions = GENERATORS[regime](seed, n, box)
    candidates = candidate_list(positions, box)
    i, j, fvec, energies, f_over_r, r_sq = pair_terms(positions, candidates, box, POTENTIAL)

    # Survivors are the within-cut-off rows of the plain fancy-indexed
    # distance computation, in original candidate order; r² is summed in
    # the kernel's spelled-out order, (x² + z²) + y².
    delta = minimum_image(positions[candidates[:, 0]] - positions[candidates[:, 1]], box)
    dx, dy, dz = delta.T
    within = (dx * dx + dz * dz) + dy * dy < POTENTIAL.cutoff_sq
    assert np.array_equal(np.column_stack([i, j]), candidates[within])
    assert np.array_equal(fvec, delta[within] * f_over_r[:, None])

    # At most 160 particles are one force block: the reduction is the
    # sequential Newton-3 scatter of those terms.
    plus = np.zeros((n, 3))
    minus = np.zeros((n, 3))
    for row in range(len(i)):
        plus[i[row]] += fvec[row]
        minus[j[row]] += fvec[row]
    result = forces_from_pairs(positions, candidates, box, POTENTIAL, n)
    assert np.array_equal(result.forces, plus - minus)
    assert result.potential_energy == float(energies.sum())
    assert result.virial == float(np.sum(f_over_r * r_sq))
    assert result.n_pairs == len(i)


def cutoff_shell_gas(seed: int, n: int, box: float) -> np.ndarray:
    """Partners at exactly ``r_c`` along random directions from centres kept
    off the walls: each pair's r² lands within an ulp or two of r_c², where
    the summation order of r² alone decides whether it is accepted."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(CUTOFF, box - CUTOFF, (n // 2, 3))
    directions = rng.normal(size=(n // 2, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return np.vstack([centers, centers + CUTOFF * directions])


@pytest.mark.parametrize("seed", range(3))
def test_exact_pairs_are_the_kernels_survivors_at_the_cutoff(seed):
    # The exact-pair filter and the kernel share one r², so no pair on the
    # cut-off shell is accepted by one and refused by the other.
    n, box = 800, 20.0
    positions = cutoff_shell_gas(seed, n, box)
    candidates = candidate_list(positions, box)
    exact = VerletList(box, CUTOFF, 0.4).pairs(positions)
    i, j = pair_terms(positions, candidates, box, POTENTIAL)[:2]
    assert np.array_equal(np.column_stack([i, j]), exact)
    # The gas has teeth: summed (x² + y²) + z², some pair changes side.
    delta, r_sq = pair_displacements(positions, candidates[:, 0], candidates[:, 1], box)
    x_y_z = (delta[0] * delta[0] + delta[1] * delta[1]) + delta[2] * delta[2]
    assert ((x_y_z < POTENTIAL.cutoff_sq) != (r_sq < POTENTIAL.cutoff_sq)).any()


def test_empty_and_all_rejected_candidates():
    box = 20.0
    positions = np.array([[1.0, 1.0, 1.0], [9.0, 9.0, 9.0]])
    empty = np.zeros((0, 2), dtype=np.int64)
    far = np.array([[0, 1]], dtype=np.int64)
    for candidates in (empty, far):
        terms = pair_terms(positions, candidates, box, POTENTIAL)
        assert [len(term) for term in terms] == [0] * 6
        assert terms[2].shape == (0, 3)
        result = forces_from_pairs(positions, candidates, box, POTENTIAL)
        assert result.n_pairs == 0
        assert result.potential_energy == 0.0
        assert result.virial == 0.0
        assert result.forces.shape == (2, 3)
        assert not result.forces.any()


def test_a_list_out_of_canonical_order_is_folded_in_canonical_order(monkeypatch):
    monkeypatch.setattr(kernels, "_BLOCK_PARTICLES", 16)
    n = 120
    box = max((n / 0.25) ** (1.0 / 3.0), 3.0 * CUTOFF)
    positions = clustered_gas(3, n, box)
    candidates = candidate_list(positions, box)
    scrambled = np.random.default_rng(0).permutation(candidates)[:, ::-1]
    got = forces_from_pairs(positions, scrambled, box, POTENTIAL)
    want = forces_from_pairs(positions, candidates, box, POTENTIAL)
    assert np.array_equal(got.forces, want.forces)
    assert (got.potential_energy, got.virial, got.n_pairs) == (
        want.potential_energy, want.virial, want.n_pairs
    )


def single_pass_reference(positions, pairs, box_length, potential, n_particles=None):
    """The block fold spelled out over one whole-list pass: whole-list
    ``pair_terms``, each pair's block from its first index, then per block
    six ``bincount`` and ``sum`` of energies and ``f_over_r * r_sq``, folded
    in block order."""
    n = len(positions) if n_particles is None else n_particles
    i, j, fvec, energies, f_over_r, r_sq = pair_terms(
        positions, pairs, box_length, potential
    )
    block = i // kernels._BLOCK_PARTICLES
    forces = np.zeros((n, 3), dtype=np.float64)
    energy = virial = 0.0
    for k in range(kernels.n_blocks(n)):
        rows = block == k
        part = np.zeros((n, 3), dtype=np.float64)
        for axis in range(3):
            part[:, axis] = np.bincount(
                i[rows], weights=fvec[rows, axis], minlength=n
            ) - np.bincount(j[rows], weights=fvec[rows, axis], minlength=n)
        forces += part
        energy += float(energies[rows].sum())
        virial += float((f_over_r[rows] * r_sq[rows]).sum())
    return ForceResult(forces, energy, virial, int(len(i)))


def seeded_stream(positions, pairs, box_length, potential, n_particles=None, *, bug, block):
    """A block-by-block reduction with one of the bugs a block fold invites."""
    n = len(positions) if n_particles is None else n_particles
    edges = np.arange(-(-n // block) + 1) * block
    rows = np.searchsorted(pairs[:, 0], edges)
    forces = np.zeros((3, n))
    energy = virial = 0.0
    every_energy = []
    for start, stop in zip(rows[:-1], rows[1:]):
        i, j, fvec, energies, f_over_r, r_sq = pair_terms(
            positions, pairs[start:stop], box_length, potential
        )
        for axis in range(3):
            plus = np.bincount(i, weights=fvec[:, axis], minlength=n)
            minus = np.bincount(j, weights=fvec[:, axis], minlength=n)
            if bug == "per_block_bincount":  # counts folded in without a partial
                forces[axis] += plus
                forces[axis] -= minus
            elif bug == "j_before_i":  # one accumulator, j's terms first
                forces[axis] += np.bincount(
                    np.concatenate([j, i]),
                    weights=np.concatenate([-fvec[:, axis], fvec[:, axis]]),
                    minlength=n,
                )
            else:
                forces[axis] += plus - minus
        every_energy.append(energies)
        energy += float(energies.sum())
        virial += float((f_over_r * r_sq).sum())
    if bug == "per_block_energy":  # one whole-list sum instead of the blocks'
        energy = float(np.concatenate(every_energy).sum())
    return ForceResult(forces.T, energy, virial, sum(map(len, every_energy)))


def assert_equals_single_pass(evaluate, positions, candidates, box, n_particles=None):
    """``evaluate`` reproduces the single pass bit for bit: no tolerance."""
    got = evaluate(positions, candidates, box, POTENTIAL, n_particles)
    want = single_pass_reference(positions, candidates, box, POTENTIAL, n_particles)
    assert np.array_equal(got.forces, want.forces)
    assert got.potential_energy == want.potential_energy
    assert got.virial == want.virial
    assert got.n_pairs == want.n_pairs


def block_boundary_cases():
    """``(positions, candidates, box, n_particles)``: the three regimes (one
    with ``n_particles`` given), an empty list and an all-rejected one."""
    n = 120
    box = max((n / 0.25) ** (1.0 / 3.0), 3.0 * CUTOFF)
    for seed, regime in enumerate(sorted(GENERATORS)):
        positions = GENERATORS[regime](seed, n, box)
        yield positions, candidate_list(positions, box), box, n + 3 if seed == 0 else None
    two = np.array([[1.0, 1.0, 1.0], [9.0, 9.0, 9.0]])
    yield two, np.zeros((0, 2), dtype=np.int64), 20.0, None
    yield two, np.array([[0, 1]], dtype=np.int64), 20.0, None


def block_sizes(n_particles: int) -> list[int]:
    """Particles per block: tiny, and either side of the whole system."""
    return [1, 7, 64] + [size for size in range(n_particles - 1, n_particles + 2) if size > 0]


@pytest.fixture(scope="module")
def many_block_list():
    """A clustered list of three real blocks (N = 3000)."""
    n = 3000
    box = (n / 0.25) ** (1.0 / 3.0)
    positions = clustered_gas(5, n, box)
    candidates = candidate_list(positions, box)
    assert kernels.n_blocks(n) == 3
    return positions, candidates, box


def test_streamed_blocks_equal_the_single_pass_at_every_block_boundary(monkeypatch):
    for positions, candidates, box, n_particles in block_boundary_cases():
        for block in block_sizes(len(positions)):
            monkeypatch.setattr(kernels, "_BLOCK_PARTICLES", block)
            assert_equals_single_pass(forces_from_pairs, positions, candidates, box, n_particles)


def test_streamed_blocks_equal_the_single_pass_at_the_real_block(many_block_list):
    assert_equals_single_pass(forces_from_pairs, *many_block_list)


def sweep_seeded_stream(bug: str, monkeypatch) -> None:
    for positions, candidates, box, n_particles in block_boundary_cases():
        for block in block_sizes(len(positions)):
            monkeypatch.setattr(kernels, "_BLOCK_PARTICLES", block)
            evaluate = functools.partial(seeded_stream, bug=bug, block=block)
            assert_equals_single_pass(evaluate, positions, candidates, box, n_particles)


def test_seeded_stream_without_a_bug_is_clean(monkeypatch):
    sweep_seeded_stream("none", monkeypatch)


@pytest.mark.parametrize("bug", ["per_block_bincount", "per_block_energy", "j_before_i"])
def test_block_boundary_oracle_trips_on_seeded_bugs(bug, monkeypatch):
    with pytest.raises(AssertionError):
        sweep_seeded_stream(bug, monkeypatch)


#: Traced bytes one call may hold per row of its largest block
#: (``pair_terms``' temporaries peak near 72) and per particle (the folded
#: total, one partial and two ``bincount`` outputs: 8 float64).
BLOCK_BYTES_PER_ROW = 128
BYTES_PER_PARTICLE = 64


def traced_peak(evaluate, positions, candidates, box) -> int:
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        evaluate(positions, candidates, box, POTENTIAL)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_no_list_length_temporaries_are_assembled(many_block_list, monkeypatch):
    # Blocks of 256 particles: the blob's rows spread over six of them.
    monkeypatch.setattr(kernels, "_BLOCK_PARTICLES", 256)
    positions, candidates, box = many_block_list
    largest = int(np.diff(kernels.block_rows(candidates, len(positions))).max())
    budget = BLOCK_BYTES_PER_ROW * largest + BYTES_PER_PARTICLE * len(positions)
    assert traced_peak(forces_from_pairs, positions, candidates, box) <= budget
    # The guard has teeth: the monolithic body blows the same budget.
    assert traced_peak(single_pass_reference, positions, candidates, box) > 1.5 * budget


def test_kernel_knob_is_gone(capsys):
    with pytest.raises(TypeError):
        RunConfig(steps=1, kernel="half")
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "quickstart", "--kernel", "half"])
    assert exit_info.value.code == 2
    assert "--kernel" in capsys.readouterr().err
