"""Tests of the ledger itself (``python -m pytest ledger/``; not tier-1)."""

from __future__ import annotations

import copy
import json
import os
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

from ledger import compare, inputs, metrics, run
from ledger.trace import ThreadTrace, Tracer, summarize


# -- self-time arithmetic -----------------------------------------------------


def _trace(*spans) -> list[ThreadTrace]:
    return [ThreadTrace("MainThread", spans=[list(s) for s in spans])]


def test_self_time_on_a_nested_trace():
    summary = summarize(_trace(
        ("step", 0, 100, -1),
        ("force", 10, 70, 0),
        ("search", 15, 45, 1),
        ("kernel", 45, 65, 1),
        ("account", 70, 90, 0),
        ("step", 100, 130, -1),
    ))
    assert summary.self_ns == {
        "step": (100 - 60 - 20) + 30, "force": 60 - 30 - 20,
        "search": 30, "kernel": 20, "account": 20,
    }
    assert summary.calls == {"step": 2, "force": 1, "search": 1, "kernel": 1, "account": 1}
    assert summary.durations_ns["step"] == [100, 30]
    assert sum(summary.self_ns.values()) == summary.root_ns["MainThread"] == 130


@pytest.mark.parametrize("spans, message", [
    ([("a", 0, 10, -1), ("b", 5, 12, 0)], "outside its parent"),
    ([("a", 10, 5, -1)], "ends before"),
])
def test_malformed_traces_are_rejected(spans, message):
    with pytest.raises(ValueError, match=message):
        summarize(_trace(*spans))


def test_open_span_is_rejected():
    trace = ThreadTrace("MainThread", spans=[["a", 0, 0, -1]], stack=[0])
    with pytest.raises(ValueError, match="still open"):
        summarize([trace])


def test_same_name_nesting_is_recorded_once():
    class Search:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = Tracer()
    tracer.wrap(Search, "outer", "search")
    tracer.wrap(Search, "inner", "search")
    try:
        assert Search().outer() == 2
        assert Search().inner() == 1
    finally:
        tracer.uninstall()
    assert tracer.summary().calls == {"search": 2}


# -- wrappers come off again --------------------------------------------------


def test_traced_run_restores_every_original():
    import repro.core.accounting as accounting
    import repro.md.neighbors as neighbors
    from repro.core.runner import DrivenLoadRunner, ParallelMDRunner
    from repro.dlb.balancer import DynamicLoadBalancer
    from repro.service.client import ServiceClient

    watched = [
        (accounting, "compute_halo"), (neighbors, "pairs_kdtree"),
        (ParallelMDRunner, "step"), (DrivenLoadRunner, "run"),
        (DynamicLoadBalancer, "step"), (ServiceClient, "submit"),
    ]
    before = [vars(owner)[attr] for owner, attr in watched]

    report = run.measure("driven_sweep", seed=11, seconds=0.1, trace=True, quick=True)

    assert [vars(owner)[attr] for owner, attr in watched] == before
    assert report["failed"] == 0, report["info"]
    assert {name for name, _, _ in report["info"]["checks"]} >= {"layer_sum", "root_coverage"}
    assert report["per_layer"]["decomp.halo.calls"] > 0
    assert report["per_layer"]["md.pair_search.calls"] == 0
    assert set(report["per_layer"]) == {m.name for m in metrics.PER_LAYER}


# -- generated inputs ---------------------------------------------------------


SYSTEMS = [
    (8000, 8, 0.70, 126_558),
    (4096, 6, 0.60, 56_199),
]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("n, droplets, fraction, recorded_pairs", SYSTEMS)
def test_generator_invariants(seed, n, droplets, fraction, recorded_pairs):
    system = inputs.clustered_system(seed, n, 0.256, 4, droplets, fraction)
    assert system.positions.shape == system.velocities.shape == (n, 3)
    assert system.box_length == pytest.approx((n / 0.256) ** (1 / 3))
    assert (system.positions >= 0).all() and (system.positions < system.box_length).all()

    tree = cKDTree(system.positions, boxsize=system.box_length)
    assert tree.query(system.positions, k=2)[0][:, 1].min() >= inputs.MIN_DISTANCE
    assert len(tree.query_pairs(2.5)) == pytest.approx(recorded_pairs, rel=0.05)

    assert np.abs(system.velocities.sum(axis=0)).max() < 1e-9
    temperature = (system.velocities**2).sum() / (3 * n)
    assert temperature == pytest.approx(inputs.TEMPERATURE, rel=0.05)

    again = inputs.clustered_system(seed, n, 0.256, 4, droplets, fraction)
    assert np.array_equal(again.positions, system.positions)
    assert np.array_equal(again.velocities, system.velocities)
    other = inputs.clustered_system(seed + 100, n, 0.256, 4, droplets, fraction)
    assert not np.array_equal(other.positions, system.positions)


@pytest.mark.parametrize("seed", range(8))
def test_service_stream_invariants(seed):
    specs = inputs.service_specs(seed, 0, 42)
    assert specs[21:] == inputs.service_specs(seed, 21, 21)
    assert len({json.dumps(s, sort_keys=True) for s in specs}) == 42
    assert [s["kind"] for s in specs[:3]] == ["preset", "preset", "probe"]
    for group in range(14):
        a, b, probe = specs[3 * group: 3 * group + 3]
        assert a["n_steps"] + b["n_steps"] == 40 and probe["kind"] == "probe"
    assert specs != inputs.service_specs(seed + 1, 0, 42)


# -- compare ------------------------------------------------------------------


#: The mechanism is tested at the issue's 8 % bound on wall-clock metrics;
#: the bounds in BENCHMARK.json are set from this host's measured spread.
BOUNDS = {m.name: (m.better, min(m.bound, 0.08)) for m in metrics.END_TO_END}


def _ledger(ops_factor: float = 1.0, **top) -> dict:
    entry = {
        "measurable": True, "attempted": [100, 100, 100], "failed": [0, 0, 0],
        "end_to_end": {
            "setup_s": {"unit": "s", "values": [0.30, 0.31, 0.29]},
            "ops_per_s": {"unit": "1/s", "values": [v * ops_factor for v in (21.0, 21.4, 20.8)]},
            "op_p50_ms": {"unit": "ms", "values": [v / ops_factor for v in (2360.0, 2340.0, 2380.0)]},
            "sim_tt_ms": {"unit": "ms", "values": [12.17, 12.17, 12.17]},
            "peak_rss_mb": {"unit": "MB", "values": [108.0, 108.2, 108.1]},
        },
    }
    ledger = {
        "host": {"nproc": 2, "cpu_model": "x", "python": "3.11"},
        "seconds": 10.0, "scale": 1 / 6, "comparable": True,
        "workloads": {"md_kdtree": entry, "md_engine": copy.deepcopy(entry)},
    }
    ledger.update(top)
    return ledger


def test_compare_trips_on_a_20_percent_slowdown():
    rows = compare.compare(_ledger(), _ledger(ops_factor=1 / 1.2), BOUNDS)
    regressed = {(r.workload, r.metric) for r in rows if r.verdict == "REGRESSION"}
    assert regressed == {
        (w, m) for w in ("md_kdtree", "md_engine") for m in ("ops_per_s", "op_p50_ms")
    }
    assert compare.exit_code(rows) == compare.EXIT_REGRESSION


def test_compare_is_quiet_on_a_3_percent_slowdown():
    rows = compare.compare(_ledger(), _ledger(ops_factor=1 / 1.03), BOUNDS)
    assert all(r.verdict == "ok" for r in rows)
    assert compare.exit_code(rows) == compare.EXIT_OK
    assert len(rows) == 2 * (len(metrics.END_TO_END) + 1)


def test_compare_counts_any_failure_as_a_regression():
    new = _ledger()
    new["workloads"]["md_kdtree"]["failed"] = [0, 1, 0]
    rows = compare.compare(_ledger(), new, BOUNDS)
    assert [(r.workload, r.metric) for r in rows if r.verdict == "REGRESSION"] == [
        ("md_kdtree", "failed_frac")
    ]


def test_compare_refuses_other_hosts_and_quick_runs():
    other_host = _ledger(host={"nproc": 8, "cpu_model": "y", "python": "3.11"})
    with pytest.raises(compare.Refused, match="host fingerprints differ"):
        compare.compare(_ledger(), other_host, BOUNDS)
    with pytest.raises(compare.Refused, match="non-comparable"):
        compare.compare(_ledger(), _ledger(comparable=False), BOUNDS)


def test_compare_reports_unmeasured_and_does_not_pass_it():
    base, new = _ledger(), _ledger()
    base["workloads"]["md_engine"]["measurable"] = False
    rows = compare.compare(base, new, BOUNDS)
    unmeasured = [r for r in rows if r.verdict == "UNMEASURED"]
    assert {r.workload for r in unmeasured} == {"md_engine"}
    assert len(unmeasured) == len(metrics.END_TO_END)
    assert "unmeasured (not counted as passing)" in compare.render(rows)


# -- the manifest -------------------------------------------------------------


def test_benchmark_json_is_the_manifest():
    on_disk = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert on_disk == metrics.manifest()
    names = [m["name"] for m in on_disk["end_to_end"] + on_disk["per_layer"]]
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" and m["bound"] == 0.25 for m in on_disk["end_to_end"])


def test_compare_cli_exit_codes(tmp_path, capsys):
    files = {}
    for name, ledger in {
        "base": _ledger(),
        "same": _ledger(ops_factor=1 / 1.03),
        "slow": _ledger(ops_factor=1 / 1.5),
        "elsewhere": _ledger(host={"nproc": 64}),
    }.items():
        files[name] = str(tmp_path / f"{name}.json")
        Path(files[name]).write_text(json.dumps(ledger))
    assert run.main(["--compare", files["base"], files["same"]]) == compare.EXIT_OK
    assert run.main(["--compare", files["base"], files["slow"]]) == compare.EXIT_REGRESSION
    assert run.main(["--compare", files["base"], files["elsewhere"]]) == compare.EXIT_REFUSED
    assert "REGRESSION" in capsys.readouterr().out


# -- nothing outlives a run ---------------------------------------------------


def test_stop_children_ends_the_resource_tracker():
    from multiprocessing import resource_tracker, shared_memory

    segment = shared_memory.SharedMemory(create=True, size=64)  # starts the tracker
    segment.close()
    segment.unlink()
    tracker = resource_tracker._resource_tracker._pid
    assert tracker is not None
    run.stop_children()
    with pytest.raises(ProcessLookupError):  # ended and reaped
        os.kill(tracker, 0)
