"""Runtime auditing of the permanent-cell protocol's structural invariants.

The paper's correctness argument rests on invariants the code can check
cheaply at runtime: permanent cells never migrate; every cell has exactly
one holder; lent cells sit only at a lower (Case 1) neighbour of their home;
Case 3 only returns what Case 1 lent; particles are conserved; forces stay
finite. The :class:`InvariantAuditor` validates these at a configurable
cadence and, per policy, either raises
:class:`~repro.errors.InvariantViolation` (fail fast -- the chaos suite's
mode) or records violations to a :class:`~repro.obs.metrics.MetricsRegistry`
counter and a logger (observe-and-continue -- production-style).
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING, Iterable

import numpy as np

from ..errors import ConfigurationError, InvariantViolation

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from ..decomp.assignment import CellAssignment
    from ..dlb.protocol import Move
    from ..obs.metrics import MetricsRegistry

logger = logging.getLogger("repro.faults")

#: Keep at most this many violation messages for post-mortem inspection.
_MAX_KEPT = 64


class InvariantAuditor:
    """Validates structural invariants of a running simulation.

    Parameters
    ----------
    assignment:
        The live :class:`~repro.decomp.assignment.CellAssignment` to audit.
    n_particles:
        Expected total particle count (None disables conservation checks).
    every:
        Audit cadence in steps (1 = every step). :meth:`maybe_audit` is a
        no-op on other steps; :meth:`audit` always runs.
    policy:
        ``"raise"`` raises :class:`InvariantViolation` on the first failing
        audit; ``"log"`` records to ``metrics``/the ``repro.faults`` logger
        and keeps going.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; violations
        increment ``repro_invariant_violations_total{invariant=...}`` and
        audits increment ``repro_invariant_audits_total``.
    events:
        Optional :class:`~repro.obs.events.EventLog`; every executed audit
        is recorded as an ``audit`` event carrying its problem count.
    strategy:
        The active balancer strategy name. The permanent-cell invariants
        (permanent pinning, Case 1 adjacency, the Case 1/3 move ledger) are
        *protocol* properties, so they are enforced only for
        ``"permanent"`` (and vacuously hold for ``"none"``); unconstrained
        rivals (``"diffusion"``, ``"sfc"``) keep the strategy-independent
        checks -- ownership totals, holder range, particle conservation,
        finite forces.
    """

    #: Strategies whose moves must obey the paper's protocol invariants.
    _PROTOCOL_STRATEGIES = ("permanent", "none")

    def __init__(
        self,
        assignment: "CellAssignment",
        n_particles: int | None = None,
        every: int = 1,
        policy: str = "raise",
        metrics: "MetricsRegistry | None" = None,
        events=None,
        strategy: str = "permanent",
    ) -> None:
        if every <= 0:
            raise ConfigurationError(f"audit cadence must be positive, got {every}")
        if policy not in ("raise", "log"):
            raise ConfigurationError(
                f"audit policy must be 'raise' or 'log', got {policy!r}"
            )
        self.assignment = assignment
        self.n_particles = None if n_particles is None else int(n_particles)
        self.every = int(every)
        self.policy = policy
        self.metrics = metrics
        self.events = events
        self.strategy = strategy
        self.audits = 0
        self.violation_count = 0
        self.violations: list[str] = []

    @property
    def _protocol_checks(self) -> bool:
        return self.strategy in self._PROTOCOL_STRATEGIES

    # -- individual checks ---------------------------------------------------

    def _check_assignment(self) -> list[str]:
        """Permanent pinning, single ownership, and Case 1 adjacency."""
        out: list[str] = []
        a = self.assignment
        if a.holder.shape != a.home.shape:
            out.append("holder/home maps have diverged in shape")
            return out
        if self._protocol_checks:
            bad = np.flatnonzero(a.permanent & (a.holder != a.home))
            if bad.size:
                out.append(
                    f"permanent cell(s) {bad[:8].tolist()} migrated away from home"
                )
        outside = np.flatnonzero((a.holder < 0) | (a.holder >= a.n_pes))
        if outside.size:
            out.append(
                f"cell(s) {outside[:8].tolist()} held by a PE outside the machine"
            )
        # The holder map structurally gives each cell exactly one holder;
        # what can break is the total: every cell must be accounted exactly
        # once across the per-PE counts.
        counts = a.cell_counts_per_pe()
        if int(counts.sum()) != a.n_cells:
            out.append(
                f"cells owned {int(counts.sum())} times in total, expected {a.n_cells}"
            )
        if self._protocol_checks:
            for cell in np.flatnonzero(~a.lent_to_lower()).tolist():
                out.append(
                    f"cell {cell} (home {int(a.home[cell])}) lent to non-lower "
                    f"PE {int(a.holder[cell])}"
                )
        return out

    def _check_moves(self, moves: Iterable["Move"]) -> list[str]:
        """The ledger round-trips: Case 3 only returns what Case 1 lent.

        A protocol property: only enforced for the ``permanent`` strategy
        (rival strategies reuse the Move kinds as plain lend/return labels).
        """
        if not self._protocol_checks:
            return []
        out: list[str] = []
        a = self.assignment
        for move in moves:
            home = int(a.home[move.cell])
            kind = getattr(move.kind, "value", move.kind)
            if kind == "send_own":
                if move.src != home:
                    out.append(
                        f"Case 1 move of cell {move.cell} from PE {move.src}, "
                        f"but its home is PE {home} (only homes lend)"
                    )
                if not (0 <= move.dst < a.n_pes and a.lends_to[home, move.dst]):
                    out.append(
                        f"Case 1 move of cell {move.cell} to PE {move.dst}, "
                        f"not a lower neighbour of home PE {home}"
                    )
            elif kind == "return_borrowed":
                if move.dst != home:
                    out.append(
                        f"Case 3 return of cell {move.cell} to PE {move.dst}, "
                        f"but Case 1 lent it from home PE {home}"
                    )
                if not (0 <= move.src < a.n_pes and a.lends_to[home, move.src]):
                    out.append(
                        f"Case 3 return of cell {move.cell} from PE {move.src}, "
                        f"which home PE {home} never lent to"
                    )
            else:
                out.append(f"move of cell {move.cell} has unknown kind {kind!r}")
        return out

    def _check_particles(self, counts: np.ndarray) -> list[str]:
        """Particle-count conservation across the cell grid."""
        out: list[str] = []
        if np.any(np.asarray(counts) < 0):
            out.append("negative particle count in a cell")
        if self.n_particles is not None:
            total = int(np.asarray(counts).sum())
            if total != self.n_particles:
                out.append(
                    f"particle count {total} != initial {self.n_particles} "
                    "(particles lost or duplicated)"
                )
        return out

    @staticmethod
    def _check_forces(forces: np.ndarray) -> list[str]:
        """Forces must stay finite."""
        if not np.all(np.isfinite(forces)):
            bad = int(np.count_nonzero(~np.isfinite(forces).all(axis=-1)))
            return [f"non-finite forces on {bad} particle(s)"]
        return []

    # -- driving -------------------------------------------------------------

    def audit(
        self,
        step: int,
        counts: np.ndarray | None = None,
        forces: np.ndarray | None = None,
        moves: Iterable["Move"] | None = None,
    ) -> list[str]:
        """Run every applicable check; returns (and handles) the violations."""
        problems = self._check_assignment()
        if moves:
            problems.extend(self._check_moves(moves))
        if counts is not None:
            problems.extend(self._check_particles(counts))
        if forces is not None:
            problems.extend(self._check_forces(forces))
        self.audits += 1
        if self.metrics is not None:
            self.metrics.counter(
                "repro_invariant_audits_total", "Invariant audits executed"
            ).inc()
        if self.events is not None:
            self.events.emit(
                step, "audit",
                ok=not problems,
                problems=len(problems),
                messages=problems[:8],
            )
        if problems:
            self._handle(step, problems)
        return problems

    def maybe_audit(
        self,
        step: int,
        counts: np.ndarray | None = None,
        forces: np.ndarray | None = None,
        moves: Iterable["Move"] | None = None,
    ) -> list[str] | None:
        """Audit when the cadence says so; None when this step is skipped."""
        if step % self.every != 0:
            return None
        return self.audit(step, counts=counts, forces=forces, moves=moves)

    def _handle(self, step: int, problems: list[str]) -> None:
        self.violation_count += len(problems)
        for message in problems:
            if len(self.violations) < _MAX_KEPT:
                self.violations.append(f"step {step}: {message}")
        if self.metrics is not None:
            counter = self.metrics.counter(
                "repro_invariant_violations_total", "Structural invariant violations"
            )
            for _ in problems:
                counter.inc()
        if self.policy == "raise":
            raise InvariantViolation(
                f"step {step}: {len(problems)} invariant violation(s): "
                + "; ".join(problems)
            )
        for message in problems:
            logger.warning("invariant violation at step %d: %s", step, message)

    def summary(self) -> dict:
        """Small JSON-friendly report for CLI output and result files."""
        return {
            "audits": self.audits,
            "violations": self.violation_count,
            "messages": list(self.violations),
        }
