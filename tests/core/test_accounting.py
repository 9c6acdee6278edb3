"""Step accounting on the virtual machine."""

import numpy as np
import pytest

from repro.config import DLBConfig, MachineConfig
from repro.core.accounting import StepAccountant
from repro.decomp.assignment import CellAssignment
from repro.decomp.halo import compute_halo
from repro.dlb.protocol import Case, Move
from repro.dlb.strategies import create_balancer
from repro.faults import FaultInjector, FaultPlan, MessageFaultRule
from repro.md.celllist import CellList
from repro.parallel.message import TrafficLog
from repro.parallel.network import NetworkModel


@pytest.fixture
def setup():
    nc, n_pes = 6, 9
    machine = MachineConfig()
    cell_list = CellList(float(nc), nc)
    assignment = CellAssignment(nc, n_pes)
    accountant = StepAccountant(machine, cell_list, n_pes)
    return machine, cell_list, assignment, accountant


class TestAccountStep:
    def test_uniform_gas_is_balanced(self, setup):
        _, _, assignment, accountant = setup
        counts = np.full((6, 6, 6), 3)
        timing, totals = accountant.account_step(1, counts, assignment, dlb_enabled=False)
        assert timing.spread == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(totals, totals[0])

    def test_hotspot_creates_spread(self, setup):
        _, _, assignment, accountant = setup
        counts = np.ones((6, 6, 6), dtype=int)
        counts[0, 0, 0] = 50
        timing, _ = accountant.account_step(1, counts, assignment, dlb_enabled=False)
        assert timing.spread > 0
        assert timing.fmax > timing.fave > timing.fmin

    def test_tt_includes_all_components(self, setup):
        _, _, assignment, accountant = setup
        counts = np.full((6, 6, 6), 2)
        timing, totals = accountant.account_step(1, counts, assignment, dlb_enabled=False)
        assert timing.tt == pytest.approx(totals.max())
        assert timing.tt > timing.fmax  # comm and integration add on top

    def test_dlb_overhead_charged_when_enabled(self, setup):
        machine, _, assignment, accountant = setup
        counts = np.full((6, 6, 6), 2)
        t_off, _ = accountant.account_step(1, counts, assignment, dlb_enabled=False)
        t_on, _ = accountant.account_step(2, counts, assignment, dlb_enabled=True)
        assert t_on.tt == pytest.approx(t_off.tt + machine.dlb_overhead)
        assert t_on.dlb_time == machine.dlb_overhead


class TestChargeMoves:
    def test_migration_lands_on_next_step(self, setup):
        _, _, assignment, accountant = setup
        counts = np.full((6, 6, 6), 3)
        base, _ = accountant.account_step(1, counts, assignment, dlb_enabled=True)
        cell = int(assignment.movable_at_home(4)[0])
        move = Move(cell=cell, src=4, dst=assignment.pe_flat(0, 1), kind=Case.SEND_OWN)
        accountant.charge_moves([move], counts, assignment)
        assignment.transfer(cell, move.dst)
        charged, _ = accountant.account_step(2, counts, assignment, dlb_enabled=True)
        assert charged.comm_max > base.comm_max
        # The pending charge is consumed: the following step matches a fresh
        # accounting of the (post-move) state.
        after, _ = accountant.account_step(3, counts, assignment, dlb_enabled=True)
        fresh = StepAccountant(accountant.machine, accountant.cell_list, 9)
        reference, _ = fresh.account_step(3, counts, assignment, dlb_enabled=True)
        assert after.comm_max == pytest.approx(reference.comm_max, rel=1e-9)
        assert after.comm_max < charged.comm_max

    def test_empty_moves_are_free(self, setup):
        _, _, assignment, accountant = setup
        counts = np.full((6, 6, 6), 3)
        accountant.charge_moves([], counts, assignment)
        assert np.all(accountant._pending_migration == 0.0)

    def test_migration_traffic_logged(self, setup):
        _, _, assignment, accountant = setup
        counts = np.full((6, 6, 6), 3)
        cell = int(assignment.movable_at_home(4)[0])
        move = Move(cell=cell, src=4, dst=assignment.pe_flat(0, 1), kind=Case.SEND_OWN)
        accountant.charge_moves([move], counts, assignment)
        assert accountant.traffic.by_tag["migration"].bytes > 0
        assert accountant.traffic.by_tag["dlb-bookkeeping"].bytes > 0


class TestMeasuredOverride:
    def test_override_replaces_force_times(self, setup):
        _, _, assignment, accountant = setup
        counts = np.full((6, 6, 6), 3)
        override = np.arange(9, dtype=float) + 1.0
        timing, _ = accountant.account_step(
            1, counts, assignment, dlb_enabled=False, force_times_override=override
        )
        assert timing.fmax == pytest.approx(9.0)
        assert timing.fmin == pytest.approx(1.0)


class TestExplicitProfiler:
    """Worker-safety: an accountant given its own profiler never touches the
    process-global one (two accountants in different processes stay isolated)."""

    def test_timings_go_to_the_given_profiler(self):
        from repro.obs.profiler import Profiler

        nc, n_pes = 6, 9
        profiler = Profiler()
        accountant = StepAccountant(
            MachineConfig(), CellList(float(nc), nc), n_pes, profiler=profiler
        )
        counts = np.full((nc, nc, nc), 3)
        accountant.account_step(1, counts, CellAssignment(nc, n_pes), dlb_enabled=False)
        assert profiler.stats["accounting.account_step"].count == 1

    def test_merge_state_folds_worker_snapshots(self):
        from repro.obs.profiler import Profiler

        worker = Profiler()
        with worker.timer("engine.worker.force_pass"):
            pass
        driver = Profiler()
        driver.merge_state(worker.state_dict(), prefix="worker0.")
        merged = driver.stats["worker0.engine.worker.force_pass"]
        assert merged.count == 1


# -- array-wise charging against the per-PE scalar formulas --------------------


class ScalarReference:
    """The parent's per-PE / per-move charging loops, byte for byte.

    Holds its own traffic log, pending-migration vector and (stateless, so
    identically drawing) fault injector; ``StepAccountant`` must agree with
    it on every float and every counter.
    """

    def __init__(self, machine, cell_list, n_pes, plan):
        self.machine, self.cell_list, self.n_pes = machine, cell_list, n_pes
        self.network = NetworkModel(machine)
        self.traffic = TrafficLog(n_pes)
        self.pending = np.zeros(n_pes, dtype=np.float64)
        self.faults = FaultInjector(plan, n_pes) if plan is not None else None

    def charge_moves(self, moves, counts_grid, step):
        cell_particles = counts_grid.reshape(-1)
        for move in moves:
            payload = int(cell_particles[move.cell]) * self.machine.bytes_per_particle
            duration = self.network.transfer_time(payload)
            wire = 1
            if self.faults is not None:
                pert = self.faults.perturb_message(step, move.src, move.dst, "migration")
                duration = pert.perturbed_time(duration)
                wire = pert.attempts
            self.pending[move.src] += duration
            self.pending[move.dst] += duration
            self.traffic.record_bulk(
                move.src, move.dst, payload * wire, count=wire, tag="migration"
            )
            broadcast = 8 * self.network.transfer_time(16)
            wire = 8
            if self.faults is not None:
                pert = self.faults.perturb_message(
                    step, move.src, move.src, "dlb-bookkeeping"
                )
                broadcast = pert.perturbed_time(broadcast)
                wire = 8 * pert.attempts
            self.pending[move.src] += broadcast
            self.traffic.record_bulk(
                move.src, move.src, 16 * wire, count=wire, tag="dlb-bookkeeping"
            )

    def comm_times(self, step, counts_grid, owner):
        halo = compute_halo(owner, self.cell_list, counts_grid.reshape(-1), self.n_pes)
        comm_times = np.array(
            [
                self.network.particles_time(halo.messages[p], halo.ghost_particles[p])
                for p in range(self.n_pes)
            ]
        )
        attempts = np.ones(self.n_pes, dtype=np.int64)
        if self.faults is not None:
            for p in np.flatnonzero(halo.messages).tolist():
                pert = self.faults.perturb_message(step, p, p, "halo")
                comm_times[p] = pert.perturbed_time(float(comm_times[p]))
                attempts[p] = pert.attempts
        for p in np.flatnonzero(halo.messages).tolist():
            wire = int(attempts[p])
            self.traffic.record_bulk(
                p, p,
                int(halo.ghost_particles[p]) * self.machine.bytes_per_particle * wire,
                count=int(halo.messages[p]) * wire,
                tag="halo",
            )
        comm_times += self.pending
        self.pending[...] = 0.0
        return comm_times


def _message_faults():
    return FaultPlan(
        seed=5,
        messages=(
            MessageFaultRule(
                tag="*", loss=0.3, delay_prob=0.3, delay=2e-4, duplicate=0.3
            ),
        ),
    )


class ReversedChargeAccountant(StepAccountant):
    """Seeded bug: the right charges, added up in the wrong order."""

    def charge_moves(self, moves, counts_grid, assignment, step=0):
        super().charge_moves(moves[::-1], counts_grid, assignment, step=step)


class TestArrayChargingEqualsScalarFormulas:
    @staticmethod
    def run_against_scalar_reference(nc, n_pes, plan, accountant_class=StepAccountant):
        machine = MachineConfig()
        cell_list = CellList(float(nc), nc)
        assignment = CellAssignment(nc, n_pes)
        faults = FaultInjector(plan, n_pes) if plan is not None else None
        accountant = accountant_class(machine, cell_list, n_pes, faults=faults)
        reference = ScalarReference(machine, cell_list, n_pes, plan)
        # Bursts of 3 put several charges on one PE in one round, so the
        # order the floats are added in is visible in the last bit.
        balancer = create_balancer(
            assignment, DLBConfig(max_sends_per_step=3), strategy="permanent"
        )
        rng = np.random.default_rng(nc)
        moved = 0
        for step in range(1, 25):
            counts = rng.poisson(4.0, (nc, nc, nc))
            moves = balancer.step(rng.uniform(0.1, 2.0, n_pes), step=step)
            accountant.charge_moves(moves, counts, assignment, step=step)
            reference.charge_moves(moves, counts, step)
            assert np.array_equal(accountant._pending_migration, reference.pending), "pending"
            moved += len(moves)

            accountant.account_step(step, counts, assignment, dlb_enabled=True)
            expected = reference.comm_times(step, counts, assignment.cell_owner_map())
            assert np.array_equal(accountant.last_components.comm_times, expected)
            assert not accountant._pending_migration.any()
            for name in ("bytes_sent", "bytes_received", "messages_sent"):
                assert np.array_equal(
                    getattr(accountant.traffic, name), getattr(reference.traffic, name)
                ), name
            assert accountant.traffic.summary() == reference.traffic.summary()
        assert moved > 50
        tags = accountant.traffic.summary()["by_tag"]
        assert set(tags) == {"halo", "migration", "dlb-bookkeeping"}
        if plan is not None:
            # Retransmitted / duplicated traffic really went on the wire.
            assert tags["dlb-bookkeeping"]["messages"] > 8 * moved
            assert tags["migration"]["messages"] > moved

    @pytest.mark.parametrize("plan", [None, _message_faults()], ids=["clean", "faulty"])
    @pytest.mark.parametrize("nc,n_pes", [(9, 9), (12, 16)])
    def test_bit_for_bit_over_a_balanced_run(self, nc, n_pes, plan):
        self.run_against_scalar_reference(nc, n_pes, plan)

    def test_trips_when_charges_are_added_out_of_move_order(self):
        with pytest.raises(AssertionError, match="pending"):
            self.run_against_scalar_reference(12, 16, None, ReversedChargeAccountant)

    def test_no_halo_tag_on_a_machine_without_neighbours(self):
        """One PE exchanges nothing; the halo tag must not appear as 0/0."""
        accountant = StepAccountant(MachineConfig(), CellList(3.0, 3), 1)
        accountant.account_step(1, np.full((3, 3, 3), 2), CellAssignment(3, 1), False)
        assert accountant.traffic.by_tag == {}
