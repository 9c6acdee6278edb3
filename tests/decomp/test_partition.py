"""Initial partitions."""

import numpy as np
import pytest

from repro.decomp.partition import expand_columns_to_cells, pillar_partition
from repro.errors import DecompositionError


class TestPillarPartition:
    def test_equal_domains(self):
        owner = pillar_partition(12, 9)
        counts = np.bincount(owner, minlength=9)
        assert np.all(counts == 144 // 9 * 9 // 9)  # 16 columns each
        assert np.all(counts == 16)

    def test_block_structure(self):
        owner = pillar_partition(6, 9).reshape(6, 6)
        # PE(i, j) owns the 2x2 block at (2i, 2j).
        for i in range(3):
            for j in range(3):
                assert np.all(owner[2 * i: 2 * i + 2, 2 * j: 2 * j + 2] == i * 3 + j)

    def test_rejects_non_square_pe_count(self):
        with pytest.raises(DecompositionError):
            pillar_partition(12, 8)

    def test_rejects_non_divisible_grid(self):
        with pytest.raises(DecompositionError):
            pillar_partition(7, 9)


class TestExpandColumns:
    def test_repeats_along_z(self):
        nc = 3
        col_owner = np.arange(9)
        cell_owner = expand_columns_to_cells(col_owner, nc)
        assert cell_owner.shape == (27,)
        for col in range(9):
            assert np.all(cell_owner[col * 3: (col + 1) * 3] == col)

    def test_rejects_wrong_shape(self):
        with pytest.raises(DecompositionError):
            expand_columns_to_cells(np.arange(8), 3)
