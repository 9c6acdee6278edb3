"""The flight recorder's event log: buffering, channels, schema, summaries."""

import pytest

from repro.errors import ConfigurationError, SchemaError
from repro.obs.events import (
    EVENT_SCHEMA_VERSION,
    EventLog,
    read_events,
    summarize_events,
    validate_events,
)


class TestEventLog:
    def test_emit_stamps_version_step_seq_kind(self):
        log = EventLog()
        log.emit(0, "run.start", mode="dlb")
        log.emit(3, "audit", ok=True)
        first, second = log.records
        assert first == {"v": EVENT_SCHEMA_VERSION, "step": 0, "seq": 0,
                         "kind": "run.start", "mode": "dlb"}
        assert second["seq"] == 1 and second["step"] == 3

    def test_channels_sequence_independently(self):
        log = EventLog()
        log.emit(0, "run.start")
        log.emit_host(0, "engine.start", src=0)
        log.emit_host(5, "checkpoint.save")
        assert [r["seq"] for r in log.records] == [0]
        assert [r["seq"] for r in log.host_records] == [0, 1]
        assert len(log) == 1  # len counts the canonical channel only

    def test_lines_are_canonical_sorted_compact_json(self):
        log = EventLog()
        log.emit(0, "audit", zebra=1, alpha=2)
        (line,) = log.lines()
        assert line.index('"alpha"') < line.index('"zebra"')
        assert ": " not in line and ", " not in line

    def test_numpy_values_serialise(self):
        import numpy as np

        log = EventLog()
        log.emit(0, "audit", scalar=np.float64(1.5), array=np.arange(3))
        (line,) = log.lines()
        assert '"scalar":1.5' in line and '"array":[0,1,2]' in line

    def test_unknown_channel_rejected(self):
        with pytest.raises(ConfigurationError):
            EventLog().lines("bogus")

    def test_state_dict_round_trip_restores_buffer_and_seq(self):
        log = EventLog()
        log.emit(0, "run.start")
        log.emit(2, "audit", ok=True)
        log.emit_host(1, "checkpoint.save")
        state = log.state_dict()

        fresh = EventLog()
        fresh.emit(0, "run.start")  # construction-time record to supersede
        fresh.load_state_dict(state)
        assert fresh.records == log.records
        fresh.emit(3, "audit", ok=True)
        assert fresh.records[-1]["seq"] == 2  # counter resumed, no gap
        assert fresh.host_records == []  # host channel never checkpointed

    def test_write_read_round_trip(self, tmp_path):
        log = EventLog()
        log.emit(0, "run.start", n_pes=9)
        log.emit(1, "cell.migrate", cell=4, src=0, dst=1, case="send_own")
        path = log.write(tmp_path / "ev.jsonl")
        records = read_events(path)
        assert records == log.records
        validate_events(records)


class TestValidateEvents:
    def good(self):
        log = EventLog()
        log.emit(0, "run.start")
        log.emit(1, "audit", ok=True)
        log.emit(1, "run.end")
        return log.records

    def test_accepts_a_well_formed_log(self):
        validate_events(self.good())

    def test_rejects_missing_field(self):
        records = self.good()
        del records[1]["kind"]
        with pytest.raises(SchemaError, match="missing required field"):
            validate_events(records)

    def test_rejects_wrong_schema_version(self):
        records = self.good()
        records[0]["v"] = 999
        with pytest.raises(SchemaError, match="schema version"):
            validate_events(records)

    def test_rejects_unknown_kind(self):
        records = self.good()
        records[1]["kind"] = "mystery"
        with pytest.raises(SchemaError, match="unknown event kind"):
            validate_events(records)

    def test_accepts_host_channel_kinds(self):
        log = EventLog()
        log.emit_host(0, "engine.start", src=0)
        log.emit_host(4, "checkpoint.save")
        validate_events(log.host_records)

    def test_rejects_sequence_gap(self):
        records = self.good()
        records[2]["seq"] = 7
        with pytest.raises(SchemaError, match="does not follow"):
            validate_events(records)

    def test_rejects_backwards_step(self):
        records = self.good()
        records[2]["step"] = 0
        with pytest.raises(SchemaError, match="goes backwards"):
            validate_events(records)

    def test_rejects_nonzero_first_seq(self):
        records = self.good()[1:]
        with pytest.raises(SchemaError, match="first record"):
            validate_events(records)


class TestSummarizeEvents:
    def test_empty(self):
        summary = summarize_events([])
        assert summary["events"] == 0
        assert summary["first_step"] is None and summary["last_step"] is None

    def test_counts_kinds_moves_faults_audits(self):
        log = EventLog()
        log.emit(0, "run.start")
        log.emit(2, "cell.migrate", cell=1, src=0, dst=1, case="send_own")
        log.emit(3, "cell.migrate", cell=1, src=1, dst=0, case="return_borrowed")
        log.emit(3, "fault.message", src=0, dst=1, tag="halo")
        log.emit(4, "fault.compute", pes=[2])
        log.emit(4, "audit", ok=False, problems=2)
        log.emit(5, "run.end", imbalance={"mean_ratio": 1.25})
        summary = summarize_events(log.records)
        assert summary["events"] == 7
        assert summary["kinds"]["cell.migrate"] == 2
        assert (summary["lends"], summary["returns"]) == (1, 1)
        assert summary["fault_messages"] == 1 and summary["fault_stalls"] == 1
        assert summary["audits"] == 1 and summary["audit_violations"] == 2
        assert summary["imbalance"] == {"mean_ratio": 1.25}
        assert (summary["first_step"], summary["last_step"]) == (0, 5)
