"""The one pair kernel: ``pair_terms`` and its ``forces_from_pairs`` reduction.

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
from repro.md.neighbors import pairs_kdtree
from repro.md.pbc import minimum_image
from repro.md.potential import LennardJones

POTENTIAL = LennardJones()
CUTOFF = POTENTIAL.cutoff


def candidate_list(positions: np.ndarray, box: float) -> np.ndarray:
    """A skin-padded candidate list (contains beyond-cut-off pairs)."""
    return pairs_kdtree(positions, box, CUTOFF + 0.4)


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
    # distance computation, in original candidate order.
    delta = minimum_image(positions[candidates[:, 0]] - positions[candidates[:, 1]], box)
    within = np.einsum("ij,ij->i", delta, delta) < POTENTIAL.cutoff_sq
    assert np.array_equal(np.column_stack([i, j]), candidates[within])
    assert np.array_equal(fvec, delta[within] * f_over_r[:, None])

    # The reduction is the sequential Newton-3 scatter of those terms.
    plus = np.zeros((n, 3))
    minus = np.zeros((n, 3))
    for row in range(len(i)):
        plus[i[row]] += fvec[row]
        minus[j[row]] += fvec[row]
    result = forces_from_pairs(positions, candidates, box, POTENTIAL, n)
    assert np.array_equal(result.forces, plus - minus)
    assert result.potential_energy == float(energies.sum())
    assert result.virial == float(np.dot(f_over_r, r_sq))
    assert result.n_pairs == len(i)


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


def single_pass_reference(positions, pairs, box_length, potential, n_particles=None):
    """The body ``forces_from_pairs`` had before it streamed blocks, byte-copied:
    whole-list ``pair_terms``, six ``bincount``, ``energies.sum()``, ``np.dot``."""
    n = len(positions) if n_particles is None else n_particles
    forces = np.zeros((n, 3), dtype=np.float64)
    i, j, fvec, energies, f_over_r, r_sq = pair_terms(
        positions, pairs, box_length, potential
    )
    for axis in range(3):
        forces[:, axis] += np.bincount(i, weights=fvec[:, axis], minlength=n)
        forces[:, axis] -= np.bincount(j, weights=fvec[:, axis], minlength=n)
    potential_energy = float(energies.sum())
    virial = float(np.dot(f_over_r, r_sq))
    return ForceResult(forces, potential_energy, virial, int(len(i)))


def seeded_stream(positions, pairs, box_length, potential, n_particles=None, *, bug, block):
    """A block-streaming reduction with one of the bugs streaming invites."""
    n = len(positions) if n_particles is None else n_particles
    plus, minus = np.zeros((3, n)), np.zeros((3, n))
    forces = np.zeros((n, 3))
    energies, f_over_r, r_sq = [np.zeros(0)], [np.zeros(0)], [np.zeros(0)]
    for start in range(0, len(pairs), block):
        i, j, fvec, *scalars = pair_terms(
            positions, pairs[start : start + block], box_length, potential
        )
        for axis in range(3):
            if bug == "per_block_bincount":
                forces[:, axis] += np.bincount(
                    i, weights=fvec[:, axis], minlength=n
                ) - np.bincount(j, weights=fvec[:, axis], minlength=n)
            elif bug == "j_before_i":
                np.add.at(plus[axis], j, -fvec[:, axis])
                np.add.at(plus[axis], i, fvec[:, axis])
            else:
                np.add.at(plus[axis], i, fvec[:, axis])
                np.add.at(minus[axis], j, fvec[:, axis])
        for kept, values in zip((energies, f_over_r, r_sq), scalars):
            kept.append(values)
    if bug != "per_block_bincount":
        forces = (plus - minus).T
    if bug == "per_block_energy":
        potential_energy = float(sum(part.sum() for part in energies))
    else:
        potential_energy = float(np.concatenate(energies).sum())
    virial = float(np.dot(np.concatenate(f_over_r), np.concatenate(r_sq)))
    return ForceResult(forces, potential_energy, virial, sum(map(len, energies)))


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


def block_sizes(n_candidates: int) -> list[int]:
    return [1, 7, 64] + [size for size in range(n_candidates - 1, n_candidates + 2) if size > 0]


@pytest.fixture(scope="module")
def many_block_list():
    """A clustered list of well over four real blocks (N = 3000)."""
    n = 3000
    box = (n / 0.25) ** (1.0 / 3.0)
    positions = clustered_gas(5, n, box)
    candidates = candidate_list(positions, box)
    assert len(candidates) >= 4 * kernels._PAIR_BLOCK >= 65_536
    return positions, candidates, box


def test_streamed_blocks_equal_the_single_pass_at_every_block_boundary(monkeypatch):
    for positions, candidates, box, n_particles in block_boundary_cases():
        for block in block_sizes(len(candidates)):
            monkeypatch.setattr(kernels, "_PAIR_BLOCK", block)
            assert_equals_single_pass(forces_from_pairs, positions, candidates, box, n_particles)


def test_streamed_blocks_equal_the_single_pass_at_the_real_block(many_block_list):
    assert_equals_single_pass(forces_from_pairs, *many_block_list)


def sweep_seeded_stream(bug: str) -> None:
    for positions, candidates, box, n_particles in block_boundary_cases():
        for block in block_sizes(len(candidates)):
            evaluate = functools.partial(seeded_stream, bug=bug, block=block)
            assert_equals_single_pass(evaluate, positions, candidates, box, n_particles)


def test_seeded_stream_without_a_bug_is_clean():
    sweep_seeded_stream("none")


@pytest.mark.parametrize("bug", ["per_block_bincount", "per_block_energy", "j_before_i"])
def test_block_boundary_oracle_trips_on_seeded_bugs(bug):
    with pytest.raises(AssertionError):
        sweep_seeded_stream(bug)


#: Traced bytes one call may hold per row of a block on top of the three
#: list-length float64 buffers: ``pair_terms``' temporaries peak near 120 and
#: the (3, n) accumulators add 13 at N = 3000; the single pass holds 72 per
#: row of the *whole list*.
BLOCK_BYTES_PER_ROW = 192


def traced_peak(evaluate, positions, candidates, box) -> int:
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        evaluate(positions, candidates, box, POTENTIAL)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_no_list_length_temporaries_are_assembled(many_block_list):
    positions, candidates, box = many_block_list
    budget = 3 * 8 * len(candidates) + BLOCK_BYTES_PER_ROW * kernels._PAIR_BLOCK
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
