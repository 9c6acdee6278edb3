"""Flight-recorder integration: determinism, replay, analytics plumbing.

The tentpole contracts, exercised end-to-end through ``repro.api``:

* the sim channel is byte-identical between the classic in-process path and
  the multiprocess engine, including under fault injection;
* recording events leaves the run's bit-exact digest unchanged;
* a killed-and-resumed run's event log is byte-identical to an
  uninterrupted run's;
* every logged balancer decision replays bit-exactly from its recorded
  inputs (``repro explain``).
"""

import numpy as np
import pytest

from repro import api
from repro.config import RunConfig
from repro.dlb.explain import explain_events, find_run_start, render_explanation
from repro.errors import AnalysisError
from repro.faults import (
    FaultPlan,
    MessageFaultRule,
    SlowdownRule,
    TimingFaultRule,
)
from repro.obs import EventLog, Observability, validate_events

PRESET = "bench-m2"
STEPS = 12


def fault_plan() -> FaultPlan:
    return FaultPlan(
        seed=11,
        slowdowns=(SlowdownRule(pe=4, factor=2.0),),
        jitter=0.05,
        messages=(MessageFaultRule(tag="*", loss=0.2, delay_prob=0.2,
                                   delay=0.005),),
        timing=TimingFaultRule(drop=0.3, max_staleness=2),
    )


def run_with_events(steps=STEPS, faults=None, engine=None, engine_workers=None,
                    checkpoints=None, stop_after=None, balancer=None):
    observability = Observability(events=EventLog())
    result = api.simulate(
        PRESET,
        run=RunConfig(steps=steps, seed=7, record_interval=1, balancer=balancer),
        engine=engine,
        engine_workers=engine_workers,
        observability=observability,
        faults=faults,
        checkpoints=checkpoints,
        stop_after=stop_after,
    )
    return result, observability.events


class TestDeterminism:
    def test_sim_channel_byte_identical_across_engines_under_faults(self):
        _, classic = run_with_events(faults=fault_plan())
        _, multiproc = run_with_events(
            faults=fault_plan(), engine="multiprocess", engine_workers=2
        )
        assert classic.lines() == multiproc.lines()
        validate_events(classic.records)
        # The host channel is the backend-dependent part: only the
        # multiprocess run has engine worker lifecycle entries.
        kinds = {r["kind"] for r in multiproc.host_records}
        assert "engine.start" in kinds and "engine.stop" in kinds
        for kind in ("engine.start", "engine.stop"):
            workers = [r["src"] for r in multiproc.host_records if r["kind"] == kind]
            assert workers == [0, 1], kind

    def test_recording_events_never_changes_the_digest(self):
        with_events, _ = run_with_events(faults=fault_plan())
        without = api.simulate(
            PRESET,
            run=RunConfig(steps=STEPS, seed=7, record_interval=1),
            faults=fault_plan(),
        )
        assert with_events.digest() == without.digest()

    def test_kill_resume_event_log_byte_identical(self, tmp_path):
        _, full = run_with_events(faults=fault_plan(),
                                  checkpoints=None)
        checkpoints = api.CheckpointPolicy(directory=tmp_path, every=4)
        _, killed = run_with_events(
            faults=fault_plan(), checkpoints=checkpoints, stop_after=7
        )
        resumed_policy = api.CheckpointPolicy(directory=tmp_path, resume=True)
        result, resumed = run_with_events(
            faults=fault_plan(), checkpoints=resumed_policy
        )
        assert result.meta["resumed_at"] == 4
        assert resumed.lines() == full.lines()
        # The partial log is self-consistent: same run.start, and its
        # run.end honestly reports the truncated step count. The resumed
        # run restores the checkpointed buffer (saved before that run.end)
        # and rewrites the file complete.
        assert killed.records[0] == full.records[0]
        assert killed.records[-1]["kind"] == "run.end"
        assert killed.records[-1]["steps"] == 7
        # checkpoint.save / checkpoint.resume land on the host channel.
        assert any(r["kind"] == "checkpoint.save" for r in killed.host_records)
        assert any(r["kind"] == "checkpoint.resume" for r in resumed.host_records)


class TestEventContent:
    def test_run_start_and_end_bracket_the_log(self):
        result, events = run_with_events()
        records = events.records
        validate_events(records)
        start, end = records[0], records[-1]
        assert start["kind"] == "run.start"
        assert start["mode"] == "dlb" and start["n_pes"] == 9
        assert start["dlb"]["enabled"] is True
        assert end["kind"] == "run.end"
        assert end["steps"] == STEPS
        assert end["imbalance"]["steps"] == STEPS
        assert end["imbalance"]["dlb_benefit_seconds"] is not None
        assert result.meta["events"] == len(records)
        assert result.meta["imbalance"] == end["imbalance"]

    def test_every_decision_carries_times_and_spawns_migrations(self):
        _, events = run_with_events()
        decisions = [r for r in events.records if r["kind"] == "dlb.decision"]
        assert decisions, "a 12-step DLB run must balance at least once"
        moves = sum(len(d["moves"]) for d in decisions)
        migrations = [r for r in events.records if r["kind"] == "cell.migrate"]
        assert len(migrations) == moves
        for decision in decisions:
            assert len(decision["times"]) == 9
            assert isinstance(decision["lent"], list)

    def test_faulted_run_records_fault_and_view_state(self):
        _, events = run_with_events(faults=fault_plan())
        kinds = {r["kind"] for r in events.records}
        assert "fault.message" in kinds
        decisions = [r for r in events.records if r["kind"] == "dlb.decision"]
        assert decisions and all(d["view"] is not None for d in decisions)
        assert np.asarray(decisions[0]["view"]["times"]).shape == (9, 9)

    def test_ddm_run_has_no_balancer_events(self):
        result, events = run_with_events(balancer="none")
        kinds = {r["kind"] for r in events.records}
        assert "dlb.decision" not in kinds and "cell.migrate" not in kinds
        # Plain DDM has no counterfactual (actual == counterfactual).
        assert result.meta["imbalance"]["dlb_benefit_seconds"] is None

    def test_audit_outcomes_are_recorded(self):
        observability = Observability(events=EventLog())
        api.simulate(
            PRESET,
            run=RunConfig(steps=6, seed=7, record_interval=1),
            observability=observability,
            audit=api.AuditPolicy(every=2),
        )
        audits = [r for r in observability.events.records if r["kind"] == "audit"]
        assert audits and all(r["ok"] for r in audits)


class TestExplain:
    def test_replay_reproduces_every_logged_decision(self):
        _, events = run_with_events(faults=fault_plan())
        decisions = explain_events(events.records)
        assert decisions
        assert all(d.matches for d in decisions)
        rendered = render_explanation(decisions[0])
        assert "replay matches the log" in rendered

    def test_replay_without_faults_uses_true_times(self):
        _, events = run_with_events()
        decisions = explain_events(events.records)
        assert decisions and all(d.matches for d in decisions)

    def test_unrecorded_step_is_an_analysis_error(self):
        _, events = run_with_events()
        with pytest.raises(AnalysisError, match="no balancer decision"):
            explain_events(events.records, step=10_000)

    def test_missing_run_start_is_an_analysis_error(self):
        with pytest.raises(AnalysisError, match="run.start"):
            find_run_start([{"kind": "audit"}])

    def test_tampered_log_is_detected(self):
        """Corrupting a logged move makes the replay diverge visibly."""
        _, events = run_with_events()
        records = events.records
        decision = next(r for r in records if r["kind"] == "dlb.decision"
                        and r["moves"])
        decision["moves"][0]["cell"] += 1
        (tampered,) = [d for d in explain_events(records)
                       if d.step == decision["step"]]
        assert not tampered.matches
        assert "DIVERGES" in render_explanation(tampered)


class TestExplainStrategyDispatch:
    """Replay dispatches on the balancer the run.start record names."""

    @pytest.mark.parametrize("balancer", ["diffusion", "sfc", "none"])
    def test_rival_decisions_replay_bit_exactly(self, balancer):
        _, events = run_with_events(balancer=balancer)
        assert events.records[0]["dlb"]["balancer"] == balancer
        decisions = explain_events(events.records)
        # Plain DDM (balancer "none") logs no decisions at all.
        assert bool(decisions) == (balancer != "none")
        assert all(d.matches for d in decisions)

    def test_decision_logged_under_none_is_a_clear_error(self):
        # Older "none" runs kept the DLB protocol and logged empty rounds;
        # "none" has no strategy now, so there is no rule to replay.
        _, events = run_with_events(balancer="permanent")
        events.records[0]["dlb"]["balancer"] = "none"
        with pytest.raises(AnalysisError, match="not registered"):
            explain_events(events.records)

    def test_sfc_decision_events_carry_counts(self):
        """Count-weighted strategies log their weights; permanent does not,
        keeping its decision events byte-identical to pre-seam logs."""
        _, sfc_events = run_with_events(balancer="sfc")
        sfc_decisions = [r for r in sfc_events.records
                         if r["kind"] == "dlb.decision"]
        assert sfc_decisions and all("counts" in d for d in sfc_decisions)
        _, perm_events = run_with_events(balancer="permanent")
        perm_decisions = [r for r in perm_events.records
                          if r["kind"] == "dlb.decision"]
        assert perm_decisions and all("counts" not in d
                                      for d in perm_decisions)

    def test_pre_seam_log_without_balancer_field_replays_as_permanent(self):
        # A genuine pre-seam log was necessarily a permanent-strategy run,
        # so record one explicitly (the env matrix must not rebind it).
        _, events = run_with_events(balancer="permanent")
        records = events.records
        del records[0]["dlb"]["balancer"]  # what a pre-seam log looks like
        decisions = explain_events(records)
        assert decisions and all(d.matches for d in decisions)

    def test_unknown_strategy_log_is_a_clear_error_not_divergence(self):
        _, events = run_with_events()
        events.records[0]["dlb"]["balancer"] = "work-stealing"
        with pytest.raises(AnalysisError, match="not registered"):
            explain_events(events.records)
