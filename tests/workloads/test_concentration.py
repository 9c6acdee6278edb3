"""Concentration schedules."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.md.celllist import CellList
from repro.workloads.concentration import (
    CONDENSE_BY,
    MAX_CLUSTER_FRACTION,
    ConcentrationSchedule,
)


def schedule(**kwargs) -> ConcentrationSchedule:
    defaults = dict(n_particles=800, box_length=15.75, n_steps=20, seed=7)
    defaults.update(kwargs)
    return ConcentrationSchedule(**defaults)


class TestValidation:
    def test_rejects_bad_counts(self):
        with pytest.raises(ConfigurationError):
            schedule(n_particles=0)
        with pytest.raises(ConfigurationError):
            schedule(n_steps=0)
        with pytest.raises(ConfigurationError):
            schedule(n_droplets=0)


class TestDropletMode:
    def test_yields_n_steps_configurations(self):
        configs = list(schedule())
        assert len(configs) == 20
        for pos in configs:
            assert pos.shape == (800, 3)
            assert np.all(pos >= 0) and np.all(pos < 15.75)

    def test_deterministic_given_seed(self):
        a = list(schedule(seed=3))
        b = list(schedule(seed=3))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_seeds_differ(self):
        a = next(iter(schedule(seed=1)))
        b = next(iter(schedule(seed=2)))
        assert not np.array_equal(a, b)

    def test_emptiness_grows_along_schedule(self):
        configs = list(schedule(n_steps=30, n_droplets=40))
        cl = CellList(15.75, 6)
        empties = [(cl.counts(pos) == 0).sum() for pos in configs]
        assert empties[-1] > empties[0]
        assert empties[-1] > 10

    def test_quasi_static_increments(self):
        # Consecutive configurations shift only a small fraction of the mass
        # between cells (the load the balancer sees evolves smoothly).
        configs = list(schedule(n_steps=40))
        cl = CellList(15.75, 6)
        moved = []
        for a, b in zip(configs, configs[1:]):
            delta = np.abs(cl.counts(a) - cl.counts(b)).sum() / 2
            moved.append(delta / 800)
        assert np.median(moved) < 0.1

    def test_occupancy_matrix_conserves_particles(self):
        sched = schedule()
        occupancy = sched._occupancy_matrix(np.random.default_rng(0))
        total = occupancy.sum(axis=1)
        s = np.arange(20) / 19
        expected = np.round(np.minimum(s / CONDENSE_BY, 1.0) * MAX_CLUSTER_FRACTION * 800)
        assert np.allclose(total, expected)

    def test_coarsening_reduces_droplet_count(self):
        sched = schedule(n_steps=30, n_droplets=50)
        occupancy = sched._occupancy_matrix(np.random.default_rng(1))
        active_mid = (occupancy[15] > 0).sum()
        active_end = (occupancy[-1] > 0).sum()
        assert active_end < active_mid
        assert active_end >= 2


class TestFractionSchedule:
    def test_fraction_ramps_and_saturates(self):
        sched = schedule()
        assert (CONDENSE_BY, MAX_CLUSTER_FRACTION) == (0.4, 0.95)
        assert sched.fraction_at(0.0) == 0.0
        assert sched.fraction_at(0.2) == pytest.approx(0.475)
        assert sched.fraction_at(0.4) == pytest.approx(0.95)
        assert sched.fraction_at(1.0) == pytest.approx(0.95)
