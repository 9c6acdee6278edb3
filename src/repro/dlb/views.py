"""Per-PE views of neighbour timing reports, with staleness tracking.

Step 1 of the redistribution protocol has every PE broadcast its last-step
execution time to its 8 neighbours. On a healthy machine every report
arrives and each PE's view of its neighbourhood is exact. Under faults a
report may be dropped; the receiver then falls back to the **last value it
saw**, up to a bounded staleness, and beyond that treats the neighbour as
*unknown* -- excluding it from the fastest-PE selection entirely.

That bounded-staleness fallback is the protocol's graceful degradation: a
PE with no usable neighbour information makes the safe no-move decision
instead of acting on garbage, and a PE acting on a slightly stale time can
only propose moves the structural invariants already allow (the assignment
layer rejects anything else). Related balancing work shows convergence
guarantees hinge exactly on this withheld/stale-information behaviour
(arXiv:1308.0148).

The balancer refreshes one :class:`TimingView` per round from the fault
injector's ``report_delivered(step, src, dst)`` verdicts, and the flight
recorder snapshots it so ``repro explain`` replays a round from the same
knowledge.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..parallel.topology import Torus2D

#: Age marking a report that was never received (effectively infinite but
#: safely incrementable).
NEVER = np.iinfo(np.int64).max // 2


class TimingView:
    """Each PE's last-known execution times of its neighbours.

    Parameters
    ----------
    n_pes:
        Number of PEs.
    max_staleness:
        How many steps old a last-known report may be and still be used.
        0 means only fresh (this-step) reports count.
    """

    def __init__(self, n_pes: int, max_staleness: int = 0) -> None:
        if n_pes <= 0:
            raise ConfigurationError(f"n_pes must be positive, got {n_pes}")
        if max_staleness < 0:
            raise ConfigurationError(
                f"max_staleness must be non-negative, got {max_staleness}"
            )
        self.n_pes = int(n_pes)
        self.max_staleness = int(max_staleness)
        #: ``times[observer, src]``: last value ``observer`` received from ``src``.
        self.times = np.zeros((n_pes, n_pes), dtype=np.float64)
        #: ``age[observer, src]``: steps since that value arrived (NEVER = never).
        self.age = np.full((n_pes, n_pes), NEVER, dtype=np.int64)

    def observe(self, observer: int, src: int, value: float) -> None:
        """Record a delivered report: ``observer`` learns ``src``'s time."""
        self.times[observer, src] = value
        self.age[observer, src] = 0

    def miss(self, observer: int, src: int) -> None:
        """Record a dropped report: the last-known value ages by one step."""
        if self.age[observer, src] < NEVER:
            self.age[observer, src] += 1

    def effective(self, observer: int, src: int) -> float | None:
        """The time ``observer`` may use for ``src``, or None when unusable."""
        if self.age[observer, src] > self.max_staleness:
            return None
        return float(self.times[observer, src])

    def refresh(self, step: int, times: np.ndarray, topology: Torus2D, injector) -> None:
        """One broadcast round: deliver or age every neighbour report.

        ``injector`` follows the :class:`~repro.faults.injector.FaultInjector`
        protocol (``report_delivered(step, src, dst)``); ``None`` delivers
        everything.
        """
        for dst in range(self.n_pes):
            self.observe(dst, dst, float(times[dst]))
            for src in topology.neighbors(dst):
                if injector is None or injector.report_delivered(step, src, dst):
                    self.observe(dst, src, float(times[src]))
                else:
                    self.miss(dst, src)

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot of the view (both arrays, copied)."""
        return {
            "max_staleness": self.max_staleness,
            "times": self.times.copy(),
            "age": self.age.copy(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict`."""
        self.max_staleness = int(state["max_staleness"])
        self.times[...] = state["times"]
        self.age[...] = state["age"]
