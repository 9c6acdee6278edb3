"""Per-run load-imbalance analytics, folded from the ``step`` records.

:func:`imbalance_summary` reports the max/mean PE-time ratio, the paper's
parallel-efficiency estimate (mean/max: what fraction of the barrier time
the average PE was busy), straggler attribution (how often each PE set the
barrier) and the cumulative DLB benefit Σ(counterfactual Tt − actual Tt):
the simulated seconds the balancer saved versus leaving every cell at home.
All of it derives from the simulated clock, so it is deterministic across
execution backends and survives kill/resume with the records.
"""

from __future__ import annotations

import numpy as np

__all__ = ["imbalance_summary"]


def _running_total(values: np.ndarray) -> float:
    """Left-to-right float sum, the order a per-step accumulator adds in."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


def imbalance_summary(records: list[dict], n_pes: int) -> dict:
    """JSON-friendly imbalance summary of a run's ``step`` records.

    ``records`` may hold any kinds; only ``step`` records are read, in
    order. Without a ``counterfactual`` field (plain DDM, where actual and
    counterfactual coincide by construction) the benefit fields are None.
    A step's per-PE totals are summed as the accountant sums them (force +
    comm + other + DLB charge), so their max is the step's Tt; the running
    sums add step by step.
    """
    steps = [record for record in records if record["kind"] == "step"]
    summary = {
        "steps": len(steps), "mean_ratio": 1.0, "mean_efficiency": 1.0,
        "worst_ratio": 0.0, "worst_step": -1, "actual_seconds": 0.0,
        "counterfactual_seconds": None, "dlb_benefit_seconds": None,
        "top_straggler": None, "straggler_counts": [0] * n_pes,
    }
    if not steps:
        return summary
    totals = (
        np.array([r["force"] for r in steps]) + np.array([r["comm"] for r in steps])
        + np.array([r["other"] for r in steps])
        + np.array([r["dlb"] for r in steps])[:, None]
    )
    mean, peak = totals.mean(axis=1), totals.max(axis=1)
    ratio = np.divide(peak, mean, out=np.ones_like(peak), where=mean > 0)
    efficiency = np.divide(mean, peak, out=np.ones_like(peak), where=peak > 0)
    worst = int(np.argmax(ratio))
    stragglers = np.bincount(np.argmax(totals, axis=1), minlength=n_pes)
    summary.update(
        mean_ratio=_running_total(ratio) / len(steps),
        mean_efficiency=_running_total(efficiency) / len(steps),
        worst_ratio=float(ratio[worst]),
        worst_step=int(steps[worst]["step"]),
        actual_seconds=_running_total(peak),
        top_straggler=int(np.argmax(stragglers)),
        straggler_counts=stragglers.tolist(),
    )
    balanced = [i for i, r in enumerate(steps) if "counterfactual" in r]
    if balanced:
        counterfactual = np.array([steps[i]["counterfactual"] for i in balanced])
        summary["counterfactual_seconds"] = _running_total(counterfactual)
        summary["dlb_benefit_seconds"] = _running_total(counterfactual - peak[balanced])
    return summary
