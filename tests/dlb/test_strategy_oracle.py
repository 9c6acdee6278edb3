"""Every balancer strategy keeps the run guarantees, as one oracle.

A run's strategy is part of its spec, so each guarantee is checked once per
strategy on the fig5 workload instead of re-running the whole suite under
each one:

(a) the ``sequential`` and the 2-worker ``multiprocess`` engine give one
    run digest;
(b) a run killed at step ``KILL_AT`` and resumed from its checkpoint ends on
    the uninterrupted run's digest, with a byte-identical sim event log;
(c) an audited run (``policy="raise"``) under the README's fault plan sees
    no invariant violation;
(d) ``repro explain`` replays every logged decision of that run with no
    divergence.

``none`` is plain DDM, the one baseline every strategy is compared with: it
runs no DLB protocol at all (see :func:`test_none_is_plain_ddm`).
"""

import pytest

from repro import api
from repro.config import BALANCER_NAMES, RunConfig
from repro.decomp.assignment import CellAssignment
from repro.dlb.balancer import DynamicLoadBalancer
from repro.dlb.explain import explain_events
from repro.obs import EventLog, Observability
from tests.helpers import fig5_config, readme_plan

STEPS = 10
KILL_AT = 4


def faulted_run(strategy: str, **kwargs):
    """The README fault plan on fig5, audited and recorded; returns the
    result and the sim event log's lines."""
    observability = Observability(events=EventLog())
    result = api.simulate(
        fig5_config(),
        run=RunConfig(steps=STEPS, seed=3, record_interval=1, balancer=strategy),
        faults=readme_plan(),
        audit=api.AuditPolicy(every=1, policy="raise"),
        observability=observability,
        **kwargs,
    )
    return result, observability.events


@pytest.fixture(scope="module", params=BALANCER_NAMES)
def reference(request):
    strategy = request.param
    result, events = faulted_run(strategy)
    assert result.meta["balancer"] == strategy
    return strategy, result, events


def test_sequential_and_multiprocess_give_one_digest(reference):
    strategy, _, _ = reference
    run = RunConfig(steps=STEPS, seed=3, balancer=strategy)
    sequential = api.simulate(fig5_config(), run=run, engine="sequential")
    multiprocess = api.simulate(
        fig5_config(), run=run, engine="multiprocess", engine_workers=2
    )
    assert multiprocess.digest() == sequential.digest()


def test_kill_and_resume_matches_the_uninterrupted_run(reference, tmp_path):
    strategy, full, full_events = reference
    faulted_run(
        strategy,
        checkpoints=api.CheckpointPolicy(directory=tmp_path, every=KILL_AT),
        stop_after=KILL_AT,
    )
    resumed, resumed_events = faulted_run(
        strategy, checkpoints=api.CheckpointPolicy(directory=tmp_path, resume=True)
    )
    assert resumed.meta["resumed_at"] == KILL_AT
    assert resumed.digest() == full.digest()
    assert resumed_events.lines() == full_events.lines()


def test_audited_faulted_run_has_no_violations(reference):
    _, result, _ = reference
    audit = result.meta["audit"]
    assert audit["audits"] == STEPS
    assert audit["violations"] == 0


def test_explain_replays_every_decision(reference):
    strategy, _, events = reference
    decisions = explain_events(events.records)
    if strategy == "none":  # plain DDM decides nothing, so logs nothing
        assert decisions == []
        return
    assert len(decisions) == STEPS - 1  # no round before the first step
    assert [d.step for d in decisions if not d.matches] == []
    assert sum(len(d.logged_moves) for d in decisions) > 0


def test_none_is_plain_ddm(monkeypatch):
    """``balancer="none"`` runs no DLB protocol: no balancer round, no cell
    move, nothing charged for the timing exchange, no decision event, and
    the digest of a DDM run (``b"ddm"`` prefix)."""

    def refuse(*args, **kwargs):
        raise AssertionError("plain DDM must not run the DLB protocol")

    monkeypatch.setattr(DynamicLoadBalancer, "step", refuse)
    monkeypatch.setattr(CellAssignment, "transfer", refuse)
    monkeypatch.setattr(CellAssignment, "transfer_any", refuse)
    observability = Observability(events=EventLog())
    result = api.simulate(
        "quickstart",
        run=RunConfig(steps=60, seed=3, balancer="none"),
        observability=observability,
    )
    assert len(result.records) == 60
    assert result.total_moves == 0
    assert [r.timing.dlb_time for r in result.records] == [0.0] * 60
    assert result.meta["mode"] == "ddm" and result.meta["balancer"] == "none"
    assert not result.dlb_enabled
    kinds = {r["kind"] for r in observability.events.records}
    assert "dlb.decision" not in kinds and "cell.migrate" not in kinds
    start = observability.events.records[0]
    assert (start["mode"], start["dlb"]["enabled"], start["dlb"]["balancer"]) == (
        "ddm", False, "none"
    )
    # No counterfactual: with nothing balanced, there is no benefit to price.
    assert result.meta["imbalance"]["dlb_benefit_seconds"] is None
