"""Opt-in perf regression gate (``pytest -m perf``).

Tier-1 never runs this: the module is guarded by the ``perf`` marker (which
``pyproject.toml`` deselects by default), so the expensive kernel benchmark
pass stays out of the fast suite. CI opts in with::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py -q
    PYTHONPATH=src python -m pytest -m perf tests/test_perf_regression.py

which compares the freshly written ``BENCH_kernels.json`` against the
committed baseline and fails on a >1.3x slowdown in any kernel.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS = REPO_ROOT / "BENCH_kernels.json"
CAMPAIGN_RESULTS = REPO_ROOT / "BENCH_campaign.json"

pytestmark = pytest.mark.perf


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_regression", REPO_ROOT / "benchmarks" / "check_regression.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCompareKernels:
    """Unit coverage of the comparison logic (cheap, still opt-in)."""

    def test_detects_regression(self):
        checker = _load_checker()
        base = {"kernels": {"k": {"mean_s": 1.0}}}
        fresh = {"kernels": {"k": {"mean_s": 1.5}}}
        regressions, _ = checker.compare_kernels(base, fresh, threshold=1.3)
        assert len(regressions) == 1

    def test_within_threshold_passes(self):
        checker = _load_checker()
        base = {"kernels": {"k": {"mean_s": 1.0}}}
        fresh = {"kernels": {"k": {"mean_s": 1.2}}}
        regressions, notes = checker.compare_kernels(base, fresh, threshold=1.3)
        assert not regressions
        assert any("OK" in n for n in notes)

    def test_new_and_missing_kernels_do_not_fail(self):
        checker = _load_checker()
        base = {"kernels": {"gone": {"mean_s": 1.0}}}
        fresh = {"kernels": {"added": {"mean_s": 1.0}}}
        regressions, notes = checker.compare_kernels(base, fresh)
        assert not regressions
        assert len(notes) == 2


class TestCommittedBaseline:
    def test_baseline_exists_and_is_wellformed(self):
        assert RESULTS.exists(), "run the kernel benchmarks to create BENCH_kernels.json"
        payload = json.loads(RESULTS.read_text())
        assert payload["schema"] == 1
        assert "pairs_celllist_clustered" in payload["kernels"]

    def test_fresh_run_against_committed_baseline(self):
        """The actual gate: current timings vs the committed file.

        When BENCH_kernels.json has just been regenerated this compares the
        working tree's timings against whatever git has (CI diffs the two
        checkouts); locally it degenerates to self-comparison and passes.
        """
        checker = _load_checker()
        payload = json.loads(RESULTS.read_text())
        regressions, _ = checker.compare_kernels(payload, payload)
        assert not regressions


class TestCheckCampaign:
    """Unit coverage of the campaign-engine gate (cheap, still opt-in)."""

    def test_speedup_gate_skipped_below_four_cores(self):
        checker = _load_checker()
        fresh = {"cpu_count": 1, "derived": {"speedup_4workers": 0.9},
                 "campaign": {}}
        failures, notes = checker.check_campaign(None, fresh)
        assert not failures
        assert any("SPEEDUP SKIP" in n for n in notes)

    def test_speedup_gate_enforced_with_enough_cores(self):
        checker = _load_checker()
        fresh = {"cpu_count": 8, "derived": {"speedup_4workers": 1.4},
                 "campaign": {}}
        failures, _ = checker.check_campaign(None, fresh)
        assert len(failures) == 1
        fresh["derived"]["speedup_4workers"] = 2.5
        failures, _ = checker.check_campaign(None, fresh)
        assert not failures

    def test_serial_drain_regression_against_baseline(self):
        checker = _load_checker()
        base = {"campaign": {"serial": {"wall_s": 1.0}}}
        fresh = {"campaign": {"serial": {"wall_s": 2.0}}}
        failures, _ = checker.check_campaign(base, fresh, threshold=1.5)
        assert len(failures) == 1
        fresh["campaign"]["serial"]["wall_s"] = 1.2
        failures, _ = checker.check_campaign(base, fresh, threshold=1.5)
        assert not failures

    def test_committed_campaign_baseline_is_wellformed(self):
        assert CAMPAIGN_RESULTS.exists(), (
            "run benchmarks/bench_campaign.py to create BENCH_campaign.json"
        )
        payload = json.loads(CAMPAIGN_RESULTS.read_text())
        assert payload["schema"] == 1
        checker = _load_checker()
        failures, _ = checker.check_campaign(payload, payload)
        assert not failures


ENGINE_RESULTS = REPO_ROOT / "BENCH_engine.json"


class TestCheckEngine:
    """Unit coverage of the execution-engine gate (cheap, still opt-in)."""

    def test_digest_mismatch_always_fails(self):
        checker = _load_checker()
        fresh = {"cpu_count": 1,
                 "engine": {"pe36": {"digest_match": False}}}
        failures, _ = checker.check_engine(None, fresh)
        assert len(failures) == 1
        fresh["engine"]["pe36"]["digest_match"] = True
        failures, notes = checker.check_engine(None, fresh)
        assert not failures
        assert any("DIGEST OK" in n for n in notes)

    def test_speedup_gate_skipped_below_four_cores(self):
        checker = _load_checker()
        fresh = {"cpu_count": 1,
                 "derived": {"speedup_pe36_workers4": 0.9},
                 "engine": {"pe36": {"digest_match": True}}}
        failures, notes = checker.check_engine(None, fresh)
        assert not failures
        assert any("SPEEDUP SKIP" in n for n in notes)

    def test_speedup_gate_enforced_with_enough_cores(self):
        checker = _load_checker()
        fresh = {"cpu_count": 8,
                 "derived": {"speedup_pe36_workers4": 1.4},
                 "engine": {"pe36": {"digest_match": True}}}
        failures, _ = checker.check_engine(None, fresh)
        assert len(failures) == 1
        fresh["derived"]["speedup_pe36_workers4"] = 2.5
        failures, _ = checker.check_engine(None, fresh)
        assert not failures

    def test_sequential_wall_regression_against_baseline(self):
        checker = _load_checker()
        base = {"engine": {"pe36": {"digest_match": True,
                                    "sequential_wall_s": 1.0}}}
        fresh = {"cpu_count": 1,
                 "engine": {"pe36": {"digest_match": True,
                                     "sequential_wall_s": 2.0}}}
        failures, _ = checker.check_engine(base, fresh, threshold=1.5)
        assert len(failures) == 1
        fresh["engine"]["pe36"]["sequential_wall_s"] = 1.2
        failures, _ = checker.check_engine(base, fresh, threshold=1.5)
        assert not failures

    def test_committed_engine_baseline_is_wellformed(self):
        assert ENGINE_RESULTS.exists(), (
            "run benchmarks/bench_engine.py to create BENCH_engine.json"
        )
        payload = json.loads(ENGINE_RESULTS.read_text())
        assert payload["schema"] == 1
        for name in ("pe16", "pe36"):
            assert payload["engine"][name]["digest_match"] is True
        checker = _load_checker()
        failures, _ = checker.check_engine(payload, payload)
        assert not failures


SERVICE_RESULTS = REPO_ROOT / "BENCH_service.json"


class TestCheckService:
    """Unit coverage of the simulation-service gate (cheap, still opt-in)."""

    def test_digest_mismatch_always_fails(self):
        checker = _load_checker()
        fresh = {"service": {"fig5b": {"digest_match": False}}}
        failures, _ = checker.check_service(None, fresh)
        assert len(failures) == 1
        fresh["service"]["fig5b"]["digest_match"] = True
        failures, notes = checker.check_service(None, fresh)
        assert not failures
        assert any("DIGEST OK" in n for n in notes)

    def test_overhead_gate_enforced(self):
        checker = _load_checker()
        fresh = {"service": {"fig5b": {"digest_match": True}},
                 "derived": {"service_over_direct_fig5b": 1.4}}
        failures, _ = checker.check_service(None, fresh)
        assert len(failures) == 1
        fresh["derived"]["service_over_direct_fig5b"] = 1.05
        failures, notes = checker.check_service(None, fresh)
        assert not failures
        assert any("SERVICE OK" in n for n in notes)

    def test_direct_wall_regression_against_baseline(self):
        checker = _load_checker()
        base = {"service": {"fig5b": {"digest_match": True,
                                      "direct_wall_s": 1.0}}}
        fresh = {"service": {"fig5b": {"digest_match": True,
                                       "direct_wall_s": 2.0}}}
        failures, _ = checker.check_service(base, fresh, threshold=1.5)
        assert len(failures) == 1
        fresh["service"]["fig5b"]["direct_wall_s"] = 1.2
        failures, _ = checker.check_service(base, fresh, threshold=1.5)
        assert not failures

    def test_committed_service_baseline_is_wellformed(self):
        assert SERVICE_RESULTS.exists(), (
            "run benchmarks/bench_service.py to create BENCH_service.json"
        )
        payload = json.loads(SERVICE_RESULTS.read_text())
        assert payload["schema"] == 1
        assert payload["service"]["fig5b"]["digest_match"] is True
        assert payload["derived"]["service_over_direct_fig5b"] <= 1.15
        checker = _load_checker()
        failures, _ = checker.check_service(payload, payload)
        assert not failures
