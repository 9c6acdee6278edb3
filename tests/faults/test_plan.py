"""FaultPlan construction, validation and JSON round-trip."""

import json
from dataclasses import asdict

import pytest

from repro import api
from repro.errors import FaultInjectionError
from repro.faults import (
    FaultPlan,
    MessageFaultRule,
    SlowdownRule,
    StallRule,
    TimingFaultRule,
)


class TestRuleValidation:
    def test_slowdown_rejects_nonpositive_factor(self):
        with pytest.raises(FaultInjectionError):
            SlowdownRule(pe=0, factor=0.0)

    def test_slowdown_rejects_stop_before_start(self):
        with pytest.raises(FaultInjectionError):
            SlowdownRule(pe=0, factor=2.0, start=10, stop=5)

    def test_slowdown_window(self):
        rule = SlowdownRule(pe=1, factor=2.0, start=5, stop=10)
        assert not rule.active(4)
        assert rule.active(5)
        assert rule.active(9)
        assert not rule.active(10)

    def test_open_ended_slowdown(self):
        rule = SlowdownRule(pe=1, factor=2.0, start=3)
        assert rule.active(10_000)

    def test_stall_window(self):
        rule = StallRule(pe=0, step=7, duration=2, extra=1.0)
        assert [rule.active(s) for s in (6, 7, 8, 9)] == [False, True, True, False]

    def test_stall_rejects_zero_duration(self):
        with pytest.raises(FaultInjectionError):
            StallRule(pe=0, step=0, duration=0)

    def test_message_rejects_probability_out_of_range(self):
        with pytest.raises(FaultInjectionError):
            MessageFaultRule(loss=1.5)
        with pytest.raises(FaultInjectionError):
            MessageFaultRule(duplicate=-0.1)

    def test_message_rejects_empty_tag(self):
        with pytest.raises(FaultInjectionError):
            MessageFaultRule(tag="")

    def test_timing_rejects_negative_staleness(self):
        with pytest.raises(FaultInjectionError):
            TimingFaultRule(drop=0.1, max_staleness=-1)

    def test_jitter_must_be_non_negative(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan(jitter=-0.5)

    def test_seed_must_be_non_negative(self):
        # numpy's SeedSequence rejects negative seeds; the plan must catch
        # this at load time, not at the first random draw.
        with pytest.raises(FaultInjectionError):
            FaultPlan(seed=-1)


class TestMessageRuleLookup:
    def test_exact_tag_beats_wildcard(self):
        halo = MessageFaultRule(tag="halo", loss=0.5)
        wild = MessageFaultRule(tag="*", delay_prob=1.0, delay=0.1)
        plan = FaultPlan(messages=(wild, halo))
        assert plan.message_rule("halo") is halo
        assert plan.message_rule("migration") is wild

    def test_no_rule_returns_none(self):
        assert FaultPlan().message_rule("halo") is None


class TestNullness:
    def test_default_plan_is_null(self):
        assert FaultPlan().is_null

    def test_zero_drop_timing_is_null(self):
        assert FaultPlan(timing=TimingFaultRule(drop=0.0)).is_null

    def test_any_rule_makes_it_non_null(self):
        assert not FaultPlan(jitter=0.1).is_null
        assert not FaultPlan(slowdowns=(SlowdownRule(pe=0, factor=2.0),)).is_null
        assert not FaultPlan(timing=TimingFaultRule(drop=0.2)).is_null


class TestSerialisation:
    def full_plan(self) -> FaultPlan:
        return FaultPlan(
            seed=42,
            slowdowns=(SlowdownRule(pe=3, factor=1.5, start=2, stop=20),),
            jitter=0.05,
            stalls=(StallRule(pe=1, step=5, duration=3, extra=0.01),),
            messages=(MessageFaultRule(tag="halo", loss=0.1, duplicate=0.05),),
            timing=TimingFaultRule(drop=0.2, max_staleness=2),
        )

    def test_round_trip(self):
        plan = self.full_plan()
        assert FaultPlan.from_dict(asdict(plan)) == plan

    def test_round_trip_through_json_text(self):
        plan = self.full_plan()
        assert FaultPlan.from_dict(json.loads(json.dumps(asdict(plan)))) == plan

    def test_rejects_unknown_top_level_key(self):
        with pytest.raises(FaultInjectionError, match="unknown field.*'slowness'"):
            FaultPlan.from_dict({"seed": 1, "slowness": []})

    def test_rejects_unknown_rule_key(self):
        with pytest.raises(
            FaultInjectionError, match=r"unknown field.*'speed' at slowdowns\[0\]"
        ):
            FaultPlan.from_dict({"slowdowns": [{"pe": 0, "speed": 2.0}]})

    def test_rejects_non_object(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan.from_dict([1, 2, 3])

    def test_from_json_file(self, tmp_path):
        plan = self.full_plan()
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(asdict(plan)))
        assert api.load_faults(path) == plan

    def test_from_json_file_missing(self, tmp_path):
        with pytest.raises(FaultInjectionError, match="cannot read"):
            api.load_faults(tmp_path / "absent.json")

    def test_from_json_file_invalid(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(FaultInjectionError, match="not valid JSON"):
            api.load_faults(path)

    def test_lists_are_read_from_json_and_refused_in_code(self):
        plan = FaultPlan.from_dict({"slowdowns": [{"pe": 0, "factor": 2.0}]})
        assert plan.slowdowns == (SlowdownRule(pe=0, factor=2.0),)
        with pytest.raises(FaultInjectionError, match="slowdowns must be a tuple"):
            FaultPlan(slowdowns=[SlowdownRule(pe=0, factor=2.0)])
