"""Declarative, seeded fault plans.

A :class:`FaultPlan` is pure data: what goes wrong, where, how often. The
:class:`~repro.faults.injector.FaultInjector` interprets it deterministically
from the plan's seed, so a plan + seed fully determines every perturbation of
a run (and of its resumed-from-checkpoint continuation).

Plans round-trip through JSON (``dataclasses.asdict`` out,
``FaultPlan.from_dict`` in); ``api.load_faults`` reads the CLI's ``--faults
PLAN.json``. Validation is strict: unknown keys, mistyped
and out-of-range values raise :class:`~repro.errors.FaultInjectionError` at
load time, never deep inside a simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import check_types, from_dict
from ..errors import FaultInjectionError


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise FaultInjectionError(f"{name} must be a probability in [0, 1], got {value}")


def _check_non_negative(name: str, value: float) -> None:
    if value < 0:
        raise FaultInjectionError(f"{name} must be non-negative, got {value}")


class _FaultConfig:
    """Base of the plan dataclasses: their type checks and the reader raise
    :class:`~repro.errors.FaultInjectionError`."""

    error_type = FaultInjectionError


@dataclass(frozen=True)
class SlowdownRule(_FaultConfig):
    """A sustained per-PE compute slowdown (OS jitter victim, slow node).

    ``pe`` is the flat PE id; every compute second on it costs ``factor``
    seconds while ``start <= step < stop`` (``stop=None`` means forever).
    """

    pe: int
    factor: float
    start: int = 0
    stop: int | None = None

    def __post_init__(self) -> None:
        check_types(self)
        if self.pe < 0:
            raise FaultInjectionError(f"slowdown pe must be non-negative, got {self.pe}")
        if self.factor <= 0:
            raise FaultInjectionError(f"slowdown factor must be positive, got {self.factor}")
        if self.start < 0:
            raise FaultInjectionError(f"slowdown start must be non-negative, got {self.start}")
        if self.stop is not None and self.stop <= self.start:
            raise FaultInjectionError(
                f"slowdown stop {self.stop} must exceed start {self.start}"
            )

    def active(self, step: int) -> bool:
        """Whether this rule perturbs ``step``."""
        return self.start <= step and (self.stop is None or step < self.stop)


@dataclass(frozen=True)
class StallRule(_FaultConfig):
    """A transient stall: one PE loses ``extra`` seconds per step for a
    window of ``duration`` steps starting at ``step`` (preemption, page
    fault storm, checkpointing daemon)."""

    pe: int
    step: int
    duration: int = 1
    extra: float = 0.0

    def __post_init__(self) -> None:
        check_types(self)
        if self.pe < 0:
            raise FaultInjectionError(f"stall pe must be non-negative, got {self.pe}")
        if self.step < 0:
            raise FaultInjectionError(f"stall step must be non-negative, got {self.step}")
        if self.duration <= 0:
            raise FaultInjectionError(f"stall duration must be positive, got {self.duration}")
        _check_non_negative("stall extra", self.extra)

    def active(self, step: int) -> bool:
        """Whether this rule perturbs ``step``."""
        return self.step <= step < self.step + self.duration


@dataclass(frozen=True)
class MessageFaultRule(_FaultConfig):
    """Per-tag message faults (halo exchange, cell migration, bookkeeping).

    Attributes
    ----------
    tag:
        Traffic tag the rule applies to (``"halo"``, ``"migration"``,
        ``"dlb-bookkeeping"``); ``"*"`` matches every tag.
    loss:
        Probability a message is lost and must be retransmitted. The cost
        model charges each lost attempt plus ``loss_timeout`` seconds of
        detection time, then the successful resend (reliable delivery: the
        protocol never observes a hole, only the delay).
    loss_timeout:
        Seconds to detect one lost message before retransmitting.
    delay_prob / delay:
        Probability of, and magnitude (seconds, exponential mean) of, an
        extra queueing delay on top of the postal-model time.
    duplicate:
        Probability a message is delivered twice (and charged twice).
    """

    tag: str = "*"
    loss: float = 0.0
    loss_timeout: float = 1e-4
    delay_prob: float = 0.0
    delay: float = 0.0
    duplicate: float = 0.0

    def __post_init__(self) -> None:
        check_types(self)
        if not self.tag:
            raise FaultInjectionError("message fault tag must be non-empty ('*' for all)")
        _check_probability("message loss", self.loss)
        _check_probability("message delay_prob", self.delay_prob)
        _check_probability("message duplicate", self.duplicate)
        _check_non_negative("message loss_timeout", self.loss_timeout)
        _check_non_negative("message delay", self.delay)


@dataclass(frozen=True)
class TimingFaultRule(_FaultConfig):
    """Faults on the DLB protocol's step-1 timing reports.

    ``drop`` is the per-report probability that a PE's last-step time never
    reaches one of its 8 neighbours that step. The receiver then falls back
    to the last value it saw, up to ``max_staleness`` steps old; beyond that
    the neighbour is treated as unknown and excluded from the fastest-PE
    selection (the safe no-move degradation).
    """

    drop: float = 0.0
    max_staleness: int = 3

    def __post_init__(self) -> None:
        check_types(self)
        _check_probability("timing drop", self.drop)
        if self.max_staleness < 0:
            raise FaultInjectionError(
                f"timing max_staleness must be non-negative, got {self.max_staleness}"
            )


@dataclass(frozen=True)
class FaultPlan(_FaultConfig):
    """One deterministic chaos scenario.

    Attributes
    ----------
    seed:
        Root seed of every random draw the injector makes. Same plan + seed
        => byte-identical perturbations, including across checkpoint/resume.
    slowdowns:
        Sustained per-PE compute slowdown rules.
    jitter:
        Relative log-normal compute jitter applied to every PE every step
        (sigma of the underlying normal; 0 disables).
    stalls:
        Transient stall rules.
    messages:
        Per-tag message fault rules (first matching rule wins; an exact tag
        match beats the ``"*"`` wildcard).
    timing:
        Faults on the DLB timing reports (None = reports always delivered).
    """

    seed: int = 0
    slowdowns: tuple[SlowdownRule, ...] = ()
    jitter: float = 0.0
    stalls: tuple[StallRule, ...] = ()
    messages: tuple[MessageFaultRule, ...] = ()
    timing: TimingFaultRule | None = None

    def __post_init__(self) -> None:
        check_types(self)
        # numpy's SeedSequence rejects negative entries, so catch a bad seed
        # at plan load instead of deep inside the first random draw.
        _check_non_negative("seed", self.seed)
        _check_non_negative("jitter", self.jitter)

    @property
    def is_null(self) -> bool:
        """True when the plan perturbs nothing at all."""
        return (
            not self.slowdowns
            and self.jitter == 0.0
            and not self.stalls
            and not self.messages
            and (self.timing is None or self.timing.drop == 0.0)
        )

    def max_pe(self) -> int:
        """Largest PE id named by any rule (-1 when none name a PE)."""
        pes = [r.pe for r in self.slowdowns] + [r.pe for r in self.stalls]
        return max(pes) if pes else -1

    def message_rule(self, tag: str) -> MessageFaultRule | None:
        """The rule governing ``tag`` (exact match first, then ``"*"``)."""
        wildcard = None
        for rule in self.messages:
            if rule.tag == tag:
                return rule
            if rule.tag == "*":
                wildcard = wildcard or rule
        return wildcard

    # -- (de)serialisation -------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Build a plan from JSON-decoded data (:func:`repro.config.from_dict`)."""
        return from_dict(cls, data)
