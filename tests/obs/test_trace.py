"""Chrome trace rendering of event logs."""

import json

import pytest

from repro.errors import AnalysisError
from repro.obs import EventLog
from repro.obs.trace import (
    HOST_PID,
    REQUIRED_EVENT_KEYS,
    SECONDS_TO_US,
    render_trace,
    validate_trace,
    write_trace,
)


def run_log(n_pes: int = 3, balancer: str = "permanent") -> EventLog:
    log = EventLog()
    log.emit(0, "run.start", mode="dlb", n_pes=n_pes, dlb={"balancer": balancer})
    return log


def emit_step(log: EventLog, step: int, start: float, force: list[float]) -> None:
    zeros = [0.0] * len(force)
    log.emit(step, "step", start=start, dlb=0.0, force=force, comm=zeros,
             other=zeros)


def of_phase(payload: dict, ph: str) -> list[dict]:
    return [e for e in payload["traceEvents"] if e["ph"] == ph]


class TestTraceRecorder:
    def test_span_event_shape(self):
        log = run_log()
        emit_step(log, 1, start=1.0, force=[0.0, 0.0, 0.5])
        (event,) = of_phase(render_trace([log]), "X")
        assert event["name"] == "force"
        assert event["ts"] == pytest.approx(1.0 * SECONDS_TO_US)
        assert event["dur"] == pytest.approx(0.5 * SECONDS_TO_US)
        assert event["tid"] == 2
        assert event["args"] == {"step": 1}
        for key in REQUIRED_EVENT_KEYS:
            assert key in event

    def test_tracks_get_metadata_names(self):
        names = {
            (e["pid"], e["args"]["name"])
            for e in of_phase(render_trace([run_log(), run_log(4, "sfc")]), "M")
            if e["name"] in ("thread_name", "process_name")
        }
        assert (1, "PE 3") in names
        assert (0, "permanent (simulated clock)") in names
        assert (1, "sfc (simulated clock)") in names

    def test_migration_emits_two_instants(self):
        log = run_log(5)
        log.emit(1, "cell.migrate", cell=17, src=0, dst=4, case="send_own")
        emit_step(log, 2, start=2.0, force=[1.0] * 5)
        instants = of_phase(render_trace([log]), "i")
        assert len(instants) == 2
        assert {e["tid"] for e in instants} == {0, 4}
        for event in instants:
            assert event["args"] == {"cell": 17, "src": 0, "dst": 4}
            # Drawn at the start of the step the migration is charged to.
            assert event["ts"] == pytest.approx(2.0 * SECONDS_TO_US)

    def test_host_span_lands_on_host_track(self):
        log = run_log()
        log.scopes.append(("pairs.kdtree", log.epoch, 0.001))
        spans = of_phase(render_trace([log]), "X")
        assert spans[0]["pid"] == HOST_PID
        assert spans[0]["cat"] == "host"

    def test_write_and_validate_roundtrip(self, tmp_path):
        log = run_log(2)
        log.emit(0, "cell.migrate", cell=3, src=0, dst=1, case="send_own")
        emit_step(log, 1, start=0.0, force=[1.0, 1.0])
        path = tmp_path / "trace.json"
        count = write_trace(path, [log])
        payload = json.loads(path.read_text())
        validate_trace(payload)
        assert payload["displayTimeUnit"] == "ms"
        assert len(payload["traceEvents"]) == count

    def test_validate_rejects_bad_payloads(self):
        with pytest.raises(AnalysisError):
            validate_trace({})
        with pytest.raises(AnalysisError):
            validate_trace({"traceEvents": [{"name": "x", "ph": "X"}]})
        # a complete span without dur is invalid
        with pytest.raises(AnalysisError):
            validate_trace(
                {"traceEvents": [
                    {"name": "x", "ph": "X", "ts": 0, "pid": 0, "tid": 0}
                ]}
            )

    def test_len_counts_events(self):
        assert render_trace([])["traceEvents"] == []
        log = run_log()
        before = len(render_trace([log])["traceEvents"])
        emit_step(log, 1, start=0.0, force=[1.0, 1.0, 1.0])
        assert len(render_trace([log])["traceEvents"]) == before + 3


class TestPidClaims:
    """Each rendered run gets its own process id, so runs sharing one trace
    can never interleave their spans on the same tracks."""

    def test_distinct_pids_coexist(self):
        logs = [run_log(), run_log()]
        for log in logs:
            emit_step(log, 1, start=0.0, force=[1.0, 1.0, 1.0])
        spans = of_phase(render_trace(logs), "X")
        assert {e["pid"] for e in spans} == {0, 1}

    def test_two_runners_sharing_a_recorder_and_pid_collide(self):
        """Two runners of the same workload, rendered together, land on
        distinct pids with identical per-run timelines."""
        from repro.config import (
            DecompositionConfig,
            MDConfig,
            RunConfig,
            SimulationConfig,
        )
        from repro.core.runner import ParallelMDRunner
        from repro.obs import Observability

        config = SimulationConfig(
            md=MDConfig(n_particles=1000, density=0.256),
            decomposition=DecompositionConfig(cells_per_side=6, n_pes=9),
        )
        logs = []
        for _ in range(2):
            obs = Observability(events=EventLog())
            ParallelMDRunner(config, RunConfig(steps=2), observability=obs).run()
            logs.append(obs.events)
        spans = of_phase(render_trace(logs), "X")
        by_pid = [
            [(e["name"], e["tid"], e["ts"], e["dur"]) for e in spans if e["pid"] == pid]
            for pid in (0, 1)
        ]
        assert by_pid[0] and by_pid[0] == by_pid[1]
