"""Run result containers."""

import numpy as np
import pytest

from repro.core.results import RunResult, StepRecord
from repro.errors import AnalysisError
from repro.parallel.instrumentation import StepTiming
from repro.theory.concentration import ConcentrationState


def record(step: int, tt: float, n_moves: int = 0) -> StepRecord:
    return StepRecord(
        step=step,
        timing=StepTiming(step=step, tt=tt, fmax=tt * 0.8, fave=tt * 0.5, fmin=tt * 0.3),
        concentration=ConcentrationState(
            n_cells=100, empty_cells=step, c0_ratio=step / 100, n=1.0 + step / 10,
            max_domain_cells=50,
        ),
        n_moves=n_moves,
    )


class TestRunResult:
    def test_append_builds_all_views(self):
        result = RunResult(dlb_enabled=True)
        for s in range(1, 6):
            result.append(record(s, float(s), n_moves=2))
        assert np.array_equal(result.steps, np.arange(1, 6))
        assert np.allclose(result.tt, np.arange(1.0, 6.0))
        assert len(result.trajectory) == 5
        assert result.total_moves == 10

    def test_spread_series(self):
        result = RunResult(dlb_enabled=False)
        result.append(record(1, 2.0))
        assert result.spread[0] == pytest.approx(2.0 * 0.8 - 2.0 * 0.3)

    def test_mean_tt_tail(self):
        result = RunResult(dlb_enabled=False)
        for s in range(1, 11):
            result.append(record(s, float(s)))
        assert result.mean_tt() == pytest.approx(5.5)
        assert result.mean_tt(tail_fraction=0.2) == pytest.approx(9.5)

    def test_mean_tt_rejects_bad_fraction(self):
        result = RunResult(dlb_enabled=False)
        result.append(record(1, 1.0))
        with pytest.raises(AnalysisError):
            result.mean_tt(tail_fraction=0.0)

    def test_summary_keys(self):
        result = RunResult(dlb_enabled=True)
        for s in range(1, 4):
            result.append(record(s, float(s), n_moves=1))
        summary = result.summary()
        assert summary["steps"] == 3
        assert summary["tt_first"] == 1.0
        assert summary["tt_last"] == 3.0
        assert summary["total_moves"] == 3.0

    def test_trajectory_matches_records(self):
        result = RunResult(dlb_enabled=True)
        result.append(record(4, 1.0))
        trajectory = result.trajectory
        assert trajectory.point_at_step(4) == (1.4, 0.04)

    def test_trajectory_follows_every_record(self):
        result = RunResult(dlb_enabled=True)
        result.append(record(4, 1.0))
        result.append(record(8, 1.0))
        trajectory = result.trajectory
        assert len(trajectory) == 2
        assert np.array_equal(trajectory.steps, [4, 8])
        assert np.allclose(trajectory.n, [1.4, 1.8])
        assert np.allclose(trajectory.c0_ratio, [0.04, 0.08])

    def test_trajectory_snapshot_is_stable(self):
        result = RunResult(dlb_enabled=True)
        result.append(record(1, 1.0))
        frozen = result.trajectory
        result.append(record(2, 1.0))
        assert len(frozen) == 1
        assert len(result.trajectory) == 2

    def test_columns_roundtrip(self):
        result = RunResult(dlb_enabled=False)
        for step in range(5):
            result.append(record(step, float(step) + 1.0))
        assert np.array_equal(result.steps, np.arange(5))
        assert result.steps.dtype == np.int64
        assert np.array_equal(result.tt, np.arange(1.0, 6.0))
        assert np.allclose(result.fmax, 0.8 * result.tt)
        assert np.allclose(result.fave, 0.5 * result.tt)
        assert np.allclose(result.fmin, 0.3 * result.tt)
        assert np.array_equal(result.spread, result.fmax - result.fmin)

    def test_empty_result_columns_raise(self):
        for column in ("tt", "steps", "fmax", "fave", "fmin", "comm_max",
                       "dlb_time", "spread", "trajectory"):
            with pytest.raises(AnalysisError):
                getattr(RunResult(dlb_enabled=False), column)

    def test_comm_and_dlb_columns(self):
        result = RunResult(dlb_enabled=True)
        for step in range(3):
            result.append(StepRecord(
                step=step,
                timing=StepTiming(step=step, tt=1.0, fmax=0.5, fave=0.4, fmin=0.3,
                                  comm_max=0.1 * step, dlb_time=0.01 * step),
                concentration=record(step, 1.0).concentration,
                n_moves=0,
            ))
        assert np.allclose(result.comm_max, [0.0, 0.1, 0.2])
        assert np.allclose(result.dlb_time, [0.0, 0.01, 0.02])

    def test_column_cache_invalidated_on_append(self):
        result = RunResult(dlb_enabled=False)
        result.append(record(0, 1.0))
        first = result.tt
        assert result.tt is first  # cached between reads
        result.append(record(1, 2.0))
        refreshed = result.tt
        assert refreshed is not first
        assert np.array_equal(refreshed, [1.0, 2.0])
        assert np.array_equal(result.steps, [0, 1])

    def test_unkept_steps_are_counted_but_not_recorded(self):
        result = RunResult(dlb_enabled=True)
        for s in range(1, 7):
            result.append(record(s, float(s), n_moves=2), keep=s % 3 == 0)
        assert [r.step for r in result.records] == [3, 6]
        assert np.array_equal(result.tt, [3.0, 6.0])
        summary = result.summary()
        assert summary["steps"] == 6
        assert summary["total_moves"] == 12
        assert summary["tt_first"] == 3.0


class TestResultSchema:
    """The versioned result schema: one writer/reader pair for every artifact."""

    def test_round_trip(self, tmp_path):
        from repro.core.results import (
            RESULT_SCHEMA_VERSION,
            read_result_json,
            write_result_json,
        )

        path = tmp_path / "result.json"
        write_result_json(path, {"summary": {"tt_mean": 1.5}, "digest": "ab"})
        payload = read_result_json(path)
        assert payload["schema_version"] == RESULT_SCHEMA_VERSION
        assert payload["summary"] == {"tt_mean": 1.5}
        assert payload["digest"] == "ab"

    def test_existing_version_is_preserved(self):
        from repro.core.results import attach_schema_version

        stamped = attach_schema_version({"schema_version": "1.9", "x": 1})
        assert stamped["schema_version"] == "1.9"

    def test_unknown_major_rejected(self, tmp_path):
        import json

        from repro.core.results import read_result_json
        from repro.errors import SchemaError

        path = tmp_path / "future.json"
        path.write_text(json.dumps({"schema_version": "2.0", "x": 1}))
        with pytest.raises(SchemaError):
            read_result_json(path)

    def test_newer_minor_accepted(self, tmp_path):
        import json

        from repro.core.results import read_result_json

        path = tmp_path / "minor.json"
        path.write_text(json.dumps({"schema_version": "1.99", "x": 1}))
        assert read_result_json(path)["x"] == 1

    def test_missing_declaration_rejected(self, tmp_path):
        import json

        from repro.core.results import read_result_json
        from repro.errors import SchemaError

        path = tmp_path / "bare.json"
        path.write_text(json.dumps({"x": 1}))
        with pytest.raises(SchemaError):
            read_result_json(path)

    def test_malformed_version_rejected(self):
        from repro.core.results import parse_schema_version
        from repro.errors import SchemaError

        for bad in ("1", "a.b", "1.2.3", "-1.0"):
            with pytest.raises(SchemaError):
                parse_schema_version(bad)

    def test_non_object_payload_rejected(self, tmp_path):
        from repro.core.results import read_result_json
        from repro.errors import SchemaError

        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(SchemaError):
            read_result_json(path)
