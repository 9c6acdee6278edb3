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
"""

import pytest

from repro import api
from repro.config import BALANCER_NAMES, RunConfig
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
    assert len(decisions) == STEPS - 1  # no round before the first step
    assert [d.step for d in decisions if not d.matches] == []
    moved = sum(len(d.logged_moves) for d in decisions)
    assert moved == 0 if strategy == "none" else moved > 0
