"""Deterministic fault injection and invariant auditing.

The paper's central claim is structural: permanent cells make the DLB
protocol safe under *any* redistribution sequence. This package exercises
that claim under adversity instead of assuming perfect hardware:

``repro.faults.plan``
    Declarative, seeded :class:`FaultPlan`: per-PE slowdowns and jitter,
    transient stalls, per-tag message delay/loss/duplication, and dropped or
    stale neighbour timing reports.
``repro.faults.injector``
    :class:`FaultInjector`: a *stateless* (counter-free) deterministic
    interpreter of a plan. Every perturbation is derived by hashing
    ``(seed, kind, step, endpoints)``, so two runs with the same plan -- or
    a run killed and resumed from a checkpoint -- observe byte-identical
    faults.
``repro.faults.audit``
    :class:`InvariantAuditor`: validates the paper's structural invariants
    at a configurable cadence and either raises
    :class:`~repro.errors.InvariantViolation` or logs to metrics.

Checkpoint/restart lives in :mod:`repro.core.checkpoint`; the CLI surface is
``repro run --faults PLAN --audit-invariants --checkpoint-every N``.
"""

from .audit import InvariantAuditor
from .injector import FaultInjector, MessagePerturbation
from .plan import (
    FaultPlan,
    MessageFaultRule,
    SlowdownRule,
    StallRule,
    TimingFaultRule,
)

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "InvariantAuditor",
    "MessageFaultRule",
    "MessagePerturbation",
    "SlowdownRule",
    "StallRule",
    "TimingFaultRule",
]
