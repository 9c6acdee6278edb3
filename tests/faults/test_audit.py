"""The invariant auditor: catches tampering, honours cadence and policy."""

import numpy as np
import pytest

from repro.decomp.assignment import CellAssignment
from repro.dlb.protocol import Case, Move
from repro.errors import ConfigurationError, InvariantViolation
from repro.faults import InvariantAuditor
from repro.obs import MetricsRegistry


@pytest.fixture
def assignment():
    return CellAssignment(cells_per_side=6, n_pes=9)


class TestConstruction:
    def test_rejects_bad_cadence(self, assignment):
        with pytest.raises(ConfigurationError):
            InvariantAuditor(assignment, every=0)

    def test_rejects_unknown_policy(self, assignment):
        with pytest.raises(ConfigurationError):
            InvariantAuditor(assignment, policy="panic")


class TestAssignmentInvariants:
    def test_clean_assignment_passes(self, assignment):
        auditor = InvariantAuditor(assignment)
        assert auditor.audit(0) == []
        assert auditor.violation_count == 0

    def test_legal_transfer_still_passes(self, assignment):
        lender = assignment.pe_flat(1, 1)
        borrower = next(iter(np.flatnonzero(assignment.lends_to[lender])))
        assignment.transfer(int(assignment.movable_at_home(lender)[0]), borrower)
        assert InvariantAuditor(assignment).audit(1) == []

    def test_migrated_permanent_cell_detected(self, assignment):
        cell = int(np.flatnonzero(assignment.permanent)[0])
        home = int(assignment.home[cell])
        other = (home + 1) % assignment.n_pes
        assignment.holder[cell] = other  # tamper behind transfer()'s back
        with pytest.raises(InvariantViolation, match="permanent"):
            InvariantAuditor(assignment).audit(0)

    def test_holder_outside_machine_detected(self, assignment):
        cell = int(np.flatnonzero(~assignment.permanent)[0])
        assignment.holder[cell] = assignment.n_pes + 3
        with pytest.raises(InvariantViolation, match="outside the machine"):
            InvariantAuditor(assignment).audit(0)

    def test_lend_to_non_lower_neighbour_detected(self, assignment):
        pe = assignment.pe_flat(1, 1)
        cell = int(assignment.movable_at_home(pe)[0])
        upper = assignment.pe_flat(2, 2)  # offset (+1, +1): never a Case 1 target
        assert upper not in np.flatnonzero(assignment.lends_to[pe])
        assignment.holder[cell] = upper
        with pytest.raises(InvariantViolation, match="non-lower"):
            InvariantAuditor(assignment).audit(0)


class TestMoveLedger:
    def test_legal_case1_and_case3_moves_pass(self, assignment):
        pe = assignment.pe_flat(1, 1)
        dst = next(iter(np.flatnonzero(assignment.lends_to[pe])))
        cell = int(assignment.movable_at_home(pe)[0])
        lend = Move(cell=cell, src=pe, dst=dst, kind=Case.SEND_OWN)
        back = Move(cell=cell, src=dst, dst=pe, kind=Case.RETURN_BORROWED)
        auditor = InvariantAuditor(assignment)
        assert auditor.audit(0, moves=[lend]) == []
        assert auditor.audit(1, moves=[back]) == []

    def test_lend_from_non_home_detected(self, assignment):
        pe = assignment.pe_flat(1, 1)
        dst = next(iter(np.flatnonzero(assignment.lends_to[pe])))
        cell = int(assignment.movable_at_home(pe)[0])
        bogus = Move(cell=cell, src=dst, dst=pe, kind=Case.SEND_OWN)
        with pytest.raises(InvariantViolation, match="only homes lend"):
            InvariantAuditor(assignment).audit(0, moves=[bogus])

    def test_return_to_non_home_detected(self, assignment):
        pe = assignment.pe_flat(1, 1)
        dst = next(iter(np.flatnonzero(assignment.lends_to[pe])))
        cell = int(assignment.movable_at_home(pe)[0])
        bogus = Move(cell=cell, src=pe, dst=dst, kind=Case.RETURN_BORROWED)
        with pytest.raises(InvariantViolation, match="Case 1 lent it"):
            InvariantAuditor(assignment).audit(0, moves=[bogus])


class TestParticleAndForceChecks:
    def test_conserved_count_passes(self, assignment):
        auditor = InvariantAuditor(assignment, n_particles=100)
        counts = np.zeros(assignment.n_cells, dtype=int)
        counts[:10] = 10
        assert auditor.audit(0, counts=counts) == []

    def test_lost_particles_detected(self, assignment):
        auditor = InvariantAuditor(assignment, n_particles=100)
        with pytest.raises(InvariantViolation, match="lost or duplicated"):
            auditor.audit(0, counts=np.zeros(assignment.n_cells, dtype=int))

    def test_negative_count_detected(self, assignment):
        counts = np.zeros(assignment.n_cells, dtype=int)
        counts[0] = -1
        with pytest.raises(InvariantViolation, match="negative"):
            InvariantAuditor(assignment).audit(0, counts=counts)

    def test_non_finite_forces_detected(self, assignment):
        forces = np.zeros((50, 3))
        forces[7, 1] = np.nan
        forces[9, 0] = np.inf
        with pytest.raises(InvariantViolation, match="non-finite forces on 2"):
            InvariantAuditor(assignment).audit(0, forces=forces)


class TestCadenceAndPolicy:
    def test_maybe_audit_honours_cadence(self, assignment):
        auditor = InvariantAuditor(assignment, every=5)
        assert auditor.maybe_audit(3) is None
        assert auditor.maybe_audit(5) == []
        assert auditor.audits == 1

    def test_log_policy_records_instead_of_raising(self, assignment):
        registry = MetricsRegistry()
        auditor = InvariantAuditor(
            assignment, n_particles=10, policy="log", metrics=registry
        )
        problems = auditor.audit(4, counts=np.zeros(assignment.n_cells, dtype=int))
        assert len(problems) == 1
        assert auditor.violation_count == 1
        assert auditor.violations[0].startswith("step 4:")
        assert registry.counter("repro_invariant_violations_total").value() == 1
        assert registry.counter("repro_invariant_audits_total").value() == 1

    def test_summary_shape(self, assignment):
        auditor = InvariantAuditor(assignment, policy="log", n_particles=5)
        auditor.audit(0)
        auditor.audit(1, counts=np.zeros(assignment.n_cells, dtype=int))
        summary = auditor.summary()
        assert summary["audits"] == 2
        assert summary["violations"] == 1
        assert len(summary["messages"]) == 1
