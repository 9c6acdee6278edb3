"""The one pair kernel: ``pair_terms`` and its ``forces_from_pairs`` reduction.

The generators cover the regimes where a pair kernel goes wrong if it is
going to: uniform random gases, clustered blobs (the paper's concentration
regime), and pairs engineered to straddle the cut-off where the accept mask
itself is the hazard.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.config import RunConfig
from repro.md.kernels import forces_from_pairs, pair_terms
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


def test_kernel_knob_is_gone(capsys):
    with pytest.raises(TypeError):
        RunConfig(steps=1, kernel="half")
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "quickstart", "--kernel", "half"])
    assert exit_info.value.code == 2
    assert "--kernel" in capsys.readouterr().err
