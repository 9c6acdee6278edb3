"""Halo exchange accounting."""

import numpy as np
import pytest

from repro.decomp.assignment import CellAssignment
from repro.decomp.halo import compute_halo, halo_summary
from repro.errors import DecompositionError
from repro.md.celllist import FULL_STENCIL, CellList


@pytest.fixture
def setup():
    nc, n_pes = 6, 9  # m = 2 pillars
    cell_list = CellList(box_length=float(nc), cells_per_side=nc)
    assignment = CellAssignment(nc, n_pes)
    return cell_list, assignment


def brute_force_ghosts(cell_owner, cell_list, pe):
    """Reference: cells adjacent (26-stencil) to pe's cells, owned elsewhere."""
    owned = np.flatnonzero(cell_owner == pe)
    ghosts = set()
    for offset in FULL_STENCIL:
        if offset == (0, 0, 0):
            continue
        neighbor = cell_list.neighbor_ids(offset)
        for c in owned:
            g = int(neighbor[c])
            if cell_owner[g] != pe:
                ghosts.add(g)
    return ghosts


def assert_halo_matches_oracle(cell_owner, cell_list, counts, n_pes):
    """All three fields of ``compute_halo`` against the per-offset oracle."""
    halo = compute_halo(cell_owner, cell_list, counts, n_pes)
    ghosts = [brute_force_ghosts(cell_owner, cell_list, pe) for pe in range(n_pes)]
    expected = {
        "ghost_cells": [len(g) for g in ghosts],
        "ghost_particles": [sum(int(counts[c]) for c in g) for g in ghosts],
        "messages": [len({int(cell_owner[c]) for c in g}) for g in ghosts],
    }
    for name, values in expected.items():
        field = getattr(halo, name)
        assert field.dtype == np.int64, name
        assert field.tolist() == values, name


def lent_map(nc, n_pes, rng):
    """Owner map after real ``transfer`` lends: each PE lends about half of
    its movable cells to randomly chosen lower neighbours."""
    assignment = CellAssignment(nc, n_pes)
    for pe in range(n_pes):
        lower = sorted(assignment.lower_neighbors(pe) - {pe})
        if not lower:  # a 1x1 PE grid is its own neighbour
            continue
        for cell in assignment.movable_at_home(pe):
            if rng.random() < 0.5:
                assignment.transfer(int(cell), int(rng.choice(lower)))
    assignment.validate()
    return assignment.cell_owner_map()


def owner_map(kind, nc, n_pes, rng):
    if kind == "home":
        return CellAssignment(nc, n_pes).cell_owner_map()
    if kind == "lent":
        return lent_map(nc, n_pes, rng)
    if kind == "random":  # unconstrained strategies (diffusion, sfc)
        return rng.integers(0, n_pes, nc**3)
    assert kind == "idle-pe"  # the last PE owns nothing
    return rng.integers(0, n_pes - 1, nc**3)


class TestComputeHalo:
    def test_matches_brute_force_ghost_cells(self, setup):
        cell_list, assignment = setup
        owner = assignment.cell_owner_map()
        counts = np.ones(cell_list.n_cells, dtype=np.int64)
        halo = compute_halo(owner, cell_list, counts, 9)
        for pe in range(9):
            expected = brute_force_ghosts(owner, cell_list, pe)
            assert halo.ghost_cells[pe] == len(expected)

    def test_ghost_particles_weighted_by_counts(self, setup):
        cell_list, assignment = setup
        owner = assignment.cell_owner_map()
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 7, cell_list.n_cells)
        halo = compute_halo(owner, cell_list, counts, 9)
        for pe in (0, 4, 8):
            expected = sum(counts[g] for g in brute_force_ghosts(owner, cell_list, pe))
            assert halo.ghost_particles[pe] == expected

    def test_pillar_messages_are_8_neighbors(self, setup):
        cell_list, assignment = setup
        owner = assignment.cell_owner_map()
        counts = np.ones(cell_list.n_cells, dtype=np.int64)
        halo = compute_halo(owner, cell_list, counts, 9)
        assert np.all(halo.messages == 8)

    def test_single_pe_has_no_halo(self):
        nc = 4
        cell_list = CellList(4.0, nc)
        owner = np.zeros(nc**3, dtype=np.int64)
        halo = compute_halo(owner, cell_list, np.ones(nc**3, dtype=np.int64), 1)
        assert halo.ghost_cells[0] == 0
        assert halo.messages[0] == 0

    def test_rejects_bad_shapes(self, setup):
        cell_list, assignment = setup
        with pytest.raises(DecompositionError):
            compute_halo(np.zeros(5, dtype=int), cell_list, np.ones(cell_list.n_cells), 9)
        with pytest.raises(DecompositionError):
            compute_halo(
                assignment.cell_owner_map(), cell_list, np.ones(5), 9
            )

    def test_halo_shrinks_nothing_when_cells_move(self, setup):
        # Moving a boundary cell between neighbours must keep halos finite
        # and consistent (smoke property, exact counts change).
        cell_list, assignment = setup
        cell = int(assignment.movable_at_home(4)[0])
        assignment.transfer(cell, assignment.pe_flat(0, 1))
        counts = np.ones(cell_list.n_cells, dtype=np.int64)
        halo = compute_halo(assignment.cell_owner_map(), cell_list, counts, 9)
        assert np.all(halo.ghost_cells > 0)


class TestHaloAgainstOracle:
    """``compute_halo`` dilates a one-hot ownership mask axis by axis; the
    oracle walks the 26 offsets cell by cell. On grids of 3 and 4 cells per
    side the periodic offsets wrap onto (almost) the whole grid."""

    @pytest.mark.parametrize(
        "kind, nc, n_pes",
        [
            ("home", 6, 9), ("home", 8, 16), ("home", 4, 4), ("home", 3, 9), ("home", 3, 1),
            ("lent", 6, 9), ("lent", 8, 16), ("lent", 4, 4), ("lent", 9, 9),
            ("random", 3, 9), ("random", 4, 4), ("random", 7, 5), ("random", 6, 36),
            ("random", 5, 1), ("idle-pe", 4, 4), ("idle-pe", 6, 9),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_all_fields_match(self, kind, nc, n_pes, seed):
        rng = np.random.default_rng([seed, nc, n_pes])
        owner = owner_map(kind, nc, n_pes, rng)
        counts = rng.integers(0, 9, nc**3)
        assert_halo_matches_oracle(owner, CellList(float(nc), nc), counts, n_pes)

    def test_lent_maps_really_lend(self):
        rng = np.random.default_rng(0)
        home = CellAssignment(6, 9).cell_owner_map()
        assert np.count_nonzero(lent_map(6, 9, rng) != home) > 10

    @pytest.mark.parametrize("dropped_axis", [0, 1, 2])
    def test_trips_when_the_dilation_skips_an_axis(self, monkeypatch, dropped_axis):
        # Seeded bug: the box stencil loses one of its three 1-D passes.
        real_roll = np.roll
        monkeypatch.setattr(
            np, "roll",
            lambda a, shift, axis: a if axis == dropped_axis else real_roll(a, shift, axis),
        )
        rng = np.random.default_rng(4)
        owner = owner_map("random", 6, 9, rng)
        with pytest.raises(AssertionError):
            assert_halo_matches_oracle(
                owner, CellList(6.0, 6), rng.integers(0, 9, 6**3), 9
            )


class TestHaloSummary:
    def test_keys_and_values(self, setup):
        cell_list, assignment = setup
        counts = np.ones(cell_list.n_cells, dtype=np.int64)
        halo = compute_halo(assignment.cell_owner_map(), cell_list, counts, 9)
        summary = halo_summary(halo)
        assert summary["max_ghost_cells"] >= summary["mean_ghost_cells"] > 0
        assert summary["max_messages"] == 8
