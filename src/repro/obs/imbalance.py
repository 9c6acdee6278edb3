"""Per-run load-imbalance analytics, folded from the ``step`` records.

:func:`imbalance_summary` reports the max/mean PE-time ratio, the paper's
parallel-efficiency estimate (mean/max: what fraction of the barrier time
the average PE was busy), straggler attribution (how often each PE set the
barrier) and the cumulative DLB benefit Σ(counterfactual Tt − actual Tt):
the simulated seconds the balancer saved versus leaving every cell at home.
:class:`ImbalanceFold` also keeps what the run metrics read off the same
records: the Tt sum and maximum and each step's force-time spread.
All of it derives from the simulated clock, so it is deterministic across
execution backends and survives kill/resume with the records.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ImbalanceFold", "imbalance_summary"]


def _running_total(values: np.ndarray, start: float = 0.0) -> float:
    """``start`` plus a left-to-right float sum of ``values``: the order a
    per-step accumulator adds in, so folding in chunks gives the same bits."""
    for value in values.tolist():
        start += value
    return start


class ImbalanceFold:
    """The summary of a run's ``step`` records, folded chunk by chunk: after
    any sequence of :meth:`add` calls, :meth:`summary` equals one pass over
    the same records bit for bit. A step's per-PE totals are summed as the
    accountant sums them (force + comm + other + DLB charge), so their max
    is the step's Tt (``actual`` sums it, ``tt_max`` is its largest value)
    and ``spreads`` holds each step's ``Fmax - Fmin``. Without a
    ``counterfactual`` field (plain DDM) the benefit fields are None.
    """

    def __init__(self, n_pes: int) -> None:
        self.steps = self.balanced = 0
        self.ratio = self.efficiency = self.actual = self.tt_max = 0.0
        self.spreads: list[float] = []
        self.counterfactual = self.benefit = 0.0
        self.worst_ratio, self.worst_step = 0.0, -1
        self.n_pes = n_pes
        self.stragglers = np.zeros(n_pes, dtype=np.int64)

    def add(self, records: list[dict]) -> None:
        """Fold ``records`` (any kinds; only ``step`` records are read)."""
        steps = [record for record in records if record["kind"] == "step"]
        if not steps:
            return
        force = np.array([r["force"] for r in steps])
        totals = (
            force + np.array([r["comm"] for r in steps])
            + np.array([r["other"] for r in steps])
            + np.array([r["dlb"] for r in steps])[:, None]
        )
        mean, peak = totals.mean(axis=1), totals.max(axis=1)
        self.tt_max = max(self.tt_max, float(peak.max()))
        self.spreads.extend((force.max(axis=1) - force.min(axis=1)).tolist())
        ratio = np.divide(peak, mean, out=np.ones_like(peak), where=mean > 0)
        efficiency = np.divide(mean, peak, out=np.ones_like(peak), where=peak > 0)
        worst = int(np.argmax(ratio))
        if not self.steps or ratio[worst] > self.worst_ratio:
            self.worst_ratio = float(ratio[worst])
            self.worst_step = int(steps[worst]["step"])
        self.steps += len(steps)
        self.ratio = _running_total(ratio, self.ratio)
        self.efficiency = _running_total(efficiency, self.efficiency)
        self.actual = _running_total(peak, self.actual)
        self.stragglers += np.bincount(np.argmax(totals, axis=1), minlength=self.n_pes)
        balanced = [i for i, r in enumerate(steps) if "counterfactual" in r]
        if balanced:
            counterfactual = np.array([steps[i]["counterfactual"] for i in balanced])
            self.balanced += len(balanced)
            self.counterfactual = _running_total(counterfactual, self.counterfactual)
            self.benefit = _running_total(counterfactual - peak[balanced], self.benefit)

    def summary(self) -> dict:
        """JSON-friendly summary of everything folded so far."""
        steps, balanced = self.steps, self.balanced
        return {
            "steps": steps, "mean_ratio": self.ratio / steps if steps else 1.0,
            "mean_efficiency": self.efficiency / steps if steps else 1.0,
            "worst_ratio": self.worst_ratio, "worst_step": self.worst_step,
            "actual_seconds": self.actual,
            "counterfactual_seconds": self.counterfactual if balanced else None,
            "dlb_benefit_seconds": self.benefit if balanced else None,
            "top_straggler": int(np.argmax(self.stragglers)) if steps else None,
            "straggler_counts": self.stragglers.tolist(),
        }


def imbalance_summary(records: list[dict], n_pes: int) -> dict:
    """The :class:`ImbalanceFold` summary of ``records`` in one pass."""
    fold = ImbalanceFold(n_pes)
    fold.add(records)
    return fold.summary()
