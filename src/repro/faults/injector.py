"""Deterministic, stateless interpretation of a fault plan.

The injector carries **no mutable random state**: every draw comes from a
fresh :class:`numpy.random.Generator` seeded by
``(plan.seed, KIND, step, endpoints...)``. Consequences:

* two runs with the same plan observe byte-identical perturbations;
* a run killed at step ``k`` and resumed from a checkpoint replays the
  exact faults an uninterrupted run would have seen (no RNG cursor to
  restore);
* anything consulting the injector with the same ``(step, src, dst)`` --
  the balancer's timing view, a test's reference fold -- observes the
  *same* dropped reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from zlib import crc32

import numpy as np

from ..errors import FaultInjectionError
from .plan import FaultPlan

#: Stream discriminators: independent sub-streams of the plan's seed.
_KIND_COMPUTE = 1
_KIND_MESSAGE = 2
_KIND_TIMING = 3

#: Cap on consecutive retransmissions of one lost message (keeps a
#: pathological loss=1.0 plan terminating instead of looping forever).
MAX_RETRANSMITS = 5


def _rng(*key: int) -> np.random.Generator:
    """A fresh generator for one (seed, kind, ...) event key."""
    return np.random.default_rng(key)


@dataclass(frozen=True)
class MessagePerturbation:
    """What the injector did to one message (or aggregated exchange).

    Attributes
    ----------
    copies:
        Deliveries that occur (1 normal, 2 duplicated).
    retransmits:
        Lost attempts that preceded the successful delivery.
    delay:
        Extra queueing delay in seconds.
    loss_timeout:
        Seconds charged per lost attempt for loss detection.
    """

    copies: int = 1
    retransmits: int = 0
    delay: float = 0.0
    loss_timeout: float = 0.0

    @property
    def attempts(self) -> int:
        """Wire transmissions: copies delivered plus lost attempts."""
        return self.copies + self.retransmits

    def perturbed_time(self, base: float) -> float:
        """Charged duration for a message whose fault-free cost is ``base``."""
        return self.attempts * base + self.retransmits * self.loss_timeout + self.delay


#: The identity perturbation (shared: the no-fault fast path allocates nothing).
NO_PERTURBATION = MessagePerturbation()


class FaultInjector:
    """Applies a :class:`~repro.faults.plan.FaultPlan` to a virtual machine.

    Parameters
    ----------
    plan:
        The scenario to interpret.
    n_pes:
        Number of PEs of the machine the plan is applied to; rules naming a
        PE outside the machine are rejected here.
    """

    def __init__(self, plan: FaultPlan, n_pes: int) -> None:
        if n_pes <= 0:
            raise FaultInjectionError(f"n_pes must be positive, got {n_pes}")
        if plan.max_pe() >= n_pes:
            raise FaultInjectionError(
                f"fault plan names PE {plan.max_pe()} but the machine has "
                f"{n_pes} PEs"
            )
        self.plan = plan
        self.n_pes = int(n_pes)
        self._seed = int(plan.seed)
        #: Nullable :class:`~repro.obs.events.EventLog`; when set, every
        #: perturbation that actually happened is recorded as a
        #: ``fault.message`` / ``fault.compute`` event. The injector itself
        #: stays stateless — emission is a side record, never an input.
        self.events = None
        # Per-step memo of the timing-report delivery matrix (pure function
        # of the step; cached so P^2 draws happen once per step, not per PE).
        self._report_step: int | None = None
        self._report_matrix: np.ndarray | None = None

    # -- compute faults ----------------------------------------------------

    def compute_factors(self, step: int) -> np.ndarray:
        """Per-PE multiplicative slowdown of compute time at ``step``."""
        factors = np.ones(self.n_pes, dtype=np.float64)
        for rule in self.plan.slowdowns:
            if rule.active(step):
                factors[rule.pe] *= rule.factor
        if self.plan.jitter > 0.0:
            noise = _rng(self._seed, _KIND_COMPUTE, step).normal(
                0.0, self.plan.jitter, self.n_pes
            )
            factors *= np.exp(noise)
        return factors

    def compute_extra(self, step: int) -> np.ndarray | None:
        """Per-PE additive stall seconds at ``step`` (None when no stall)."""
        extra = None
        for rule in self.plan.stalls:
            if rule.active(step):
                if extra is None:
                    extra = np.zeros(self.n_pes, dtype=np.float64)
                extra[rule.pe] += rule.extra
        return extra

    def perturb_compute(
        self, step: int, *component_arrays: np.ndarray
    ) -> tuple[np.ndarray, ...]:
        """Scale compute-time arrays by the step's factors, adding stalls.

        Every array is scaled by the same per-PE factor; the stall seconds
        are added to the *first* array only (a stall delays the PE once, not
        once per accounting bucket). Inputs are not mutated.
        """
        factors = self.compute_factors(step)
        out = tuple(np.asarray(a, dtype=np.float64) * factors for a in component_arrays)
        extra = self.compute_extra(step)
        if extra is not None and out:
            out[0][...] += extra
            if self.events is not None:
                stalled = np.flatnonzero(extra > 0.0)
                self.events.emit(
                    step, "fault.compute",
                    pes=stalled.tolist(),
                    extra_seconds=extra[stalled].tolist(),
                )
        return out

    # -- message faults ----------------------------------------------------

    def perturb_message(
        self, step: int, src: int, dst: int, tag: str
    ) -> MessagePerturbation:
        """Loss/delay/duplication outcome for one message (or aggregated
        exchange) between ``src`` and ``dst`` carrying ``tag`` at ``step``."""
        rule = self.plan.message_rule(tag)
        if rule is None:
            return NO_PERTURBATION
        rng = _rng(self._seed, _KIND_MESSAGE, step, src, dst, crc32(tag.encode()))
        # Fixed draw order: loss chain, delay gate, delay size, duplicate.
        retransmits = 0
        while retransmits < MAX_RETRANSMITS and rng.random() < rule.loss:
            retransmits += 1
        delay = 0.0
        if rng.random() < rule.delay_prob:
            delay = float(rng.exponential(rule.delay)) if rule.delay > 0 else 0.0
        copies = 2 if rng.random() < rule.duplicate else 1
        if retransmits == 0 and delay == 0.0 and copies == 1:
            return NO_PERTURBATION
        if self.events is not None:
            self.events.emit(
                step, "fault.message",
                src=int(src), dst=int(dst), tag=tag,
                retransmits=retransmits, delay=delay, copies=copies,
            )
        return MessagePerturbation(
            copies=copies,
            retransmits=retransmits,
            delay=delay,
            loss_timeout=rule.loss_timeout,
        )

    # -- timing-report faults ----------------------------------------------

    @property
    def max_staleness(self) -> int:
        """Steps a last-known timing report stays usable (plan's setting)."""
        timing = self.plan.timing
        return timing.max_staleness if timing is not None else 0

    def _delivery_matrix(self, step: int) -> np.ndarray:
        if self._report_step != step:
            timing = self.plan.timing
            if timing is None or timing.drop == 0.0:
                matrix = np.ones((self.n_pes, self.n_pes), dtype=bool)
            else:
                draws = _rng(self._seed, _KIND_TIMING, step).random(
                    (self.n_pes, self.n_pes)
                )
                matrix = draws >= timing.drop
            self._report_step = step
            self._report_matrix = matrix
        assert self._report_matrix is not None
        return self._report_matrix

    def report_delivered(self, step: int, src: int, dst: int) -> bool:
        """Whether ``src``'s timing report reaches ``dst`` at ``step``.

        Self-reports always arrive (a PE knows its own time). The balancer's
        :class:`~repro.dlb.views.TimingView` folds these verdicts into each
        PE's last-known times.
        """
        if src == dst:
            return True
        return bool(self._delivery_matrix(step)[src, dst])
