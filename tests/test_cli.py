"""The command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_parse(self):
        parser = build_parser()
        for argv in (
            ["presets"],
            ["run", "bench-m2", "--mode", "ddm", "--steps", "3"],
            ["sweep", "--m", "2", "--pes", "9"],
            ["bounds", "--n-min", "1", "--n-max", "2"],
            ["calibrate", "--particles", "256"],
            ["campaign", "list"],
            ["campaign", "run", "smoke", "--workers", "2", "--max-runs", "1"],
            ["campaign", "resume", "smoke", "--dir", "d"],
            ["campaign", "status"],
            ["campaign", "report", "smoke", "--json"],
            ["campaign", "search", "--m", "2", "--stride", "5"],
            ["run", "bench-m2", "--mode", "dlb", "--events", "ev.jsonl",
             "--metrics", "m.prom", "--metrics-every", "5"],
            ["events", "tail", "ev.jsonl", "-n", "3"],
            ["events", "summary", "ev.jsonl", "--json"],
            ["explain", "ev.jsonl", "--step", "4"],
            ["campaign", "run", "smoke", "--events-dir", "d"],
            ["campaign", "resume", "smoke", "--dir", "d", "--events-dir", "e"],
            ["campaign", "gc", "--older-than", "7d", "--dir", "d"],
            ["campaign", "gc", "svc", "--older-than", "90s", "--status",
             "done,failed", "--json"],
            ["runs", "quarantine", "--dir", "d", "--json"],
            ["runs", "requeue", "cafebabe", "--dir", "d"],
            ["serve", "--lease-ttl", "5", "--reap-interval", "1",
             "--max-attempts", "2", "--checkpoint-every", "50",
             "--result-ttl", "2h", "--gc-interval", "30"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_campaign_requires_a_verb(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign"])


class TestCommands:
    def test_presets_lists_registry(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "fig5a-paper" in out
        assert "fig5b-scaled" in out

    def test_bounds_prints_table(self, capsys):
        assert main(["bounds", "--n-min", "1", "--n-max", "2", "--points", "3"]) == 0
        out = capsys.readouterr().out
        assert "f(2,n)" in out and "f(4,n)" in out
        # f(m, 1) = 1 for every m.
        assert "1.0000" in out

    def test_run_single_mode(self, capsys):
        code = main(["run", "bench-m2", "--mode", "dlb", "--steps", "5",
                     "--record-interval", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Tt" in out

    def test_run_both_modes(self, capsys):
        code = main(["run", "bench-m2", "--steps", "5", "--record-interval", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "DDM" in out and "DLB-DDM" in out

    def test_run_unknown_preset_raises(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["run", "nope", "--steps", "1"])

    def test_sweep_tiny(self, capsys):
        code = main(["sweep", "--m", "2", "--pes", "9", "--reps", "1",
                     "--steps", "40"])
        assert code == 0
        out = capsys.readouterr().out
        assert ("E/T" in out) or ("no divergence" in out)

    def test_sweep_reports_every_repetition(self, capsys):
        code = main(["sweep", "--m", "2", "--pes", "9", "--reps", "2",
                     "--steps", "50"])
        assert code == 0
        out = capsys.readouterr().out
        assert "per-repetition boundary points" in out
        assert "seed" in out
        assert "±" in out  # the spread, not just the mean

    def test_sweep_json(self, capsys):
        code = main(["sweep", "--m", "2", "--pes", "9", "--reps", "2",
                     "--steps", "50", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["m"] == 2
        assert len(payload["repetitions"]) == 2
        seeds = {rep["seed"] for rep in payload["repetitions"]}
        assert len(seeds) == 2  # independent per-repetition seeds
        assert payload["summary"]["completed"] == 2

    def test_sweep_replay_seed_reproduces_repetition(self, capsys):
        # Run two repetitions, take the second one's reported seed ...
        assert main(["sweep", "--m", "2", "--pes", "9", "--reps", "2",
                     "--steps", "50", "--json"]) == 0
        reference = json.loads(capsys.readouterr().out)["repetitions"][1]
        # ... and replay exactly that run from the seed alone.
        assert main(["sweep", "--m", "2", "--pes", "9", "--steps", "50",
                     "--replay-seed", str(reference["seed"]), "--json"]) == 0
        replayed = json.loads(capsys.readouterr().out)
        assert len(replayed["repetitions"]) == 1
        assert replayed["repetitions"][0] == reference

    def test_bounds_json(self, capsys):
        code = main(["bounds", "--n-min", "1", "--n-max", "2", "--points", "3",
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == [1.0, 1.5, 2.0]
        assert payload["f2"][0] == 1.0
        assert set(payload) == {"n", "f2", "f3", "f4"}

    def test_calibrate(self, capsys):
        assert main(["calibrate", "--particles", "256", "--repeats", "1"]) == 0
        assert "tau_pair" in capsys.readouterr().out


class TestCampaignCommand:
    def test_list_names_builtins(self, capsys):
        assert main(["campaign", "list"]) == 0
        out = capsys.readouterr().out
        assert "smoke" in out and "fig10-quick" in out

    def test_run_status_resume_report_cycle(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        # Interrupt after 2 completions ...
        assert main(["campaign", "run", "smoke", "--dir", store_dir,
                     "--max-runs", "2", "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["completed"] == 2 and first["interrupted"]
        # ... status shows the partial store ...
        assert main(["campaign", "status", "--dir", store_dir, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["smoke"]["done"] == 2
        assert status["smoke"]["pending"] == 4
        # ... resume completes the remainder without recomputation ...
        assert main(["campaign", "resume", "smoke", "--dir", store_dir,
                     "--json"]) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert resumed["cached"] == 2 and resumed["completed"] == 4
        # ... and the report carries every repetition with its seed.
        assert main(["campaign", "report", "smoke", "--dir", store_dir,
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["counts"]["done"] == 6
        reps = [rep for g in report["boundary"] for rep in g["repetitions"]]
        assert len(reps) == 6
        assert all("seed" in rep for rep in reps)

    def test_report_human_readable(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        assert main(["campaign", "run", "smoke", "--dir", store_dir,
                     "--max-runs", "1"]) == 0
        capsys.readouterr()
        assert main(["campaign", "report", "smoke", "--dir", store_dir]) == 0
        assert "seed replays the run" in capsys.readouterr().out

    def test_unknown_campaign_raises(self, tmp_path):
        from repro.errors import CampaignError

        with pytest.raises(CampaignError):
            main(["campaign", "run", "nope", "--dir", str(tmp_path)])


class TestBackendFlag:
    def test_backend_and_skin_parse(self):
        parser = build_parser()
        args = parser.parse_args(
            ["run", "bench-m2", "--backend", "verlet", "--skin", "0.3"]
        )
        assert args.backend == "verlet"
        assert args.skin == 0.3

    def test_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "bench-m2", "--backend", "gpu"])

    def test_balancer_choices_are_the_four_strategies(self):
        parser = build_parser()
        assert parser.parse_args(["run", "bench-m2"]).balancer is None
        for name in ("permanent", "diffusion", "sfc", "none"):
            assert parser.parse_args(["run", "bench-m2", "--balancer", name]).balancer == name
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(["run", "bench-m2", "--balancer", "auto"])
        assert excinfo.value.code == 2

    def test_run_with_verlet_backend(self, capsys):
        code = main(["run", "bench-m2", "--mode", "dlb", "--steps", "5",
                     "--record-interval", "1", "--backend", "verlet"])
        assert code == 0
        captured = capsys.readouterr()
        assert "Tt" in captured.out
        assert "rebuilds" in captured.err

    @pytest.mark.parametrize("backend, reports", [(None, True), ("cells", False)])
    def test_rebuild_line_follows_caching_not_the_flag(self, capsys, backend, reports):
        argv = ["run", "bench-m2", "--mode", "dlb", "--steps", "5",
                "--record-interval", "1"]
        assert main(argv + (["--backend", backend] if backend else [])) == 0
        assert ("pair-search rebuilds=" in capsys.readouterr().err) is reports


class TestObservabilityFlags:
    def test_trace_metrics_profile_parse(self):
        args = build_parser().parse_args(
            ["run", "quickstart", "--trace", "t.json", "--metrics", "m.prom",
             "--profile"]
        )
        assert args.trace == "t.json"
        assert args.metrics == "m.prom"
        assert args.profile

    def test_run_writes_trace_and_metrics(self, tmp_path, capsys):
        from repro.obs import validate_trace

        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.prom"
        code = main([
            "run", "quickstart", "--steps", "6", "--record-interval", "2",
            "--trace", str(trace_path), "--metrics", str(metrics_path),
            "--profile",
        ])
        assert code == 0
        payload = json.loads(trace_path.read_text())
        validate_trace(payload)
        events = payload["traceEvents"]
        # both modes: ddm tracks under pid 0, dlb under pid 1
        assert {e["pid"] for e in events if e["ph"] == "X"} >= {0, 1}
        assert {e["name"] for e in events if e["ph"] == "X"} >= {"force", "halo-comm"}
        text = metrics_path.read_text()
        assert 'repro_steps_total{mode="ddm"} 6' in text
        assert 'repro_steps_total{mode="dlb"} 6' in text
        assert "repro_traffic_bytes_total" in text
        captured = capsys.readouterr()
        assert "per-phase step-time breakdown" in captured.out
        assert "host kernel profile" in captured.out

    def test_run_without_flags_has_no_observability_cost(self, capsys):
        # the plain path still prints the phase table from the timing log
        code = main(["run", "quickstart", "--mode", "ddm", "--steps", "3",
                     "--record-interval", "1"])
        assert code == 0
        assert "per-phase step-time breakdown" in capsys.readouterr().out


class TestChaosFlags:
    """The --faults/--audit-invariants/--checkpoint/--resume surface."""

    @staticmethod
    def write_plan(tmp_path):
        plan = {
            "seed": 11,
            "slowdowns": [{"pe": 4, "factor": 2.0}],
            "jitter": 0.05,
            "messages": [{"tag": "*", "loss": 0.2}],
            "timing": {"drop": 0.3, "max_staleness": 2},
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        return path

    def test_chaos_flags_parse(self):
        args = build_parser().parse_args(
            ["run", "bench-m2", "--mode", "dlb", "--steps", "5",
             "--faults", "plan.json", "--audit-invariants", "--audit-every", "2",
             "--audit-policy", "log", "--checkpoint-dir", "ck",
             "--checkpoint-every", "3", "--kill-after", "4",
             "--result-json", "out.json"]
        )
        assert args.faults == "plan.json"
        assert args.audit_invariants
        assert args.checkpoint_every == 3

    def test_stateful_flags_require_single_mode(self, tmp_path, capsys):
        code = main(["run", "bench-m2", "--steps", "4",
                     "--checkpoint-dir", str(tmp_path / "ck")])
        assert code == 2

    def test_faulted_audited_run_passes(self, tmp_path, capsys):
        plan = self.write_plan(tmp_path)
        code = main(["run", "bench-m2", "--mode", "dlb", "--steps", "6",
                     "--record-interval", "1",
                     "--faults", str(plan), "--audit-invariants"])
        assert code == 0
        err = capsys.readouterr().err
        assert "0 violation(s)" in err

    def test_invalid_fault_plan_is_a_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"seed": 1, "slowness": []}')
        code = main(["run", "bench-m2", "--mode", "dlb", "--steps", "3",
                     "--faults", str(bad)])
        assert code == 2

    def test_kill_resume_digest_matches_uninterrupted(self, tmp_path, capsys):
        """The CI chaos-smoke scenario, in miniature."""
        plan = self.write_plan(tmp_path)
        base = ["run", "bench-m2", "--mode", "dlb", "--steps", "10",
                "--record-interval", "1", "--faults", str(plan),
                "--audit-invariants"]

        full_json = tmp_path / "full.json"
        assert main(base + ["--result-json", str(full_json)]) == 0

        ck = tmp_path / "ck"
        killed_json = tmp_path / "killed.json"
        code = main(base + ["--checkpoint-dir", str(ck), "--checkpoint-every", "3",
                            "--kill-after", "7", "--result-json", str(killed_json)])
        assert code == 3  # simulated crash
        assert json.loads(killed_json.read_text())["killed_at"] == 7

        resumed_json = tmp_path / "resumed.json"
        assert main(base + ["--resume", str(ck),
                            "--result-json", str(resumed_json)]) == 0

        full = json.loads(full_json.read_text())
        resumed = json.loads(resumed_json.read_text())
        assert full["runs"]["dlb"]["digest"] == resumed["runs"]["dlb"]["digest"]
        assert resumed["runs"]["dlb"]["audit"]["violations"] == 0

    def test_kill_before_the_first_record_still_exits_3(self, tmp_path, capsys):
        """A kill below the default --record-interval leaves no step recorded:
        the killed payload has a null summary, and resuming still reaches the
        uninterrupted digest."""
        base = ["run", "quickstart", "--mode", "dlb", "--steps", "20"]
        full_json = tmp_path / "full.json"
        assert main(base + ["--result-json", str(full_json)]) == 0

        ck, killed_json = tmp_path / "ck", tmp_path / "killed.json"
        code = main(base + ["--checkpoint-dir", str(ck), "--checkpoint-every", "5",
                            "--kill-after", "10", "--result-json", str(killed_json)])
        assert code == 3
        killed = json.loads(killed_json.read_text())
        assert killed["killed_at"] == 10
        assert killed["runs"]["dlb"]["summary"] is None
        assert killed["runs"]["dlb"]["steps_run"] == 0

        resumed_json = tmp_path / "resumed.json"
        assert main(base + ["--resume", str(ck), "--result-json", str(resumed_json)]) == 0
        full = json.loads(full_json.read_text())["runs"]["dlb"]
        resumed = json.loads(resumed_json.read_text())["runs"]["dlb"]
        assert resumed["digest"] == full["digest"]
        assert resumed["summary"] == full["summary"]


class TestFlightRecorderFlags:
    """The --events/--metrics-every surface plus the events/explain verbs."""

    def record(self, tmp_path, steps=6):
        events = tmp_path / "ev.jsonl"
        code = main(["run", "bench-m2", "--mode", "dlb", "--steps", str(steps),
                     "--record-interval", "1", "--events", str(events)])
        assert code == 0
        return events

    def test_events_requires_single_mode(self, tmp_path, capsys):
        code = main(["run", "bench-m2", "--steps", "3",
                     "--events", str(tmp_path / "ev.jsonl")])
        assert code == 2
        assert "single mode" in capsys.readouterr().err

    def test_metrics_every_requires_metrics(self, capsys):
        code = main(["run", "bench-m2", "--mode", "dlb", "--steps", "3",
                     "--metrics-every", "2"])
        assert code == 2
        assert "--metrics" in capsys.readouterr().err

    def test_run_writes_events_and_host_sidecar(self, tmp_path, capsys):
        from repro.obs import read_events, validate_events

        events = self.record(tmp_path)
        records = read_events(events)
        validate_events(records)
        assert records[0]["kind"] == "run.start"
        assert records[-1]["kind"] == "run.end"
        host = tmp_path / "ev.host.jsonl"
        assert host.exists()
        captured = capsys.readouterr()
        assert "wrote" in captured.err and "host" in captured.err
        assert "Flight recorder" in captured.out

    def test_metrics_every_flushes_mid_run(self, tmp_path):
        metrics = tmp_path / "metrics.prom"
        code = main(["run", "bench-m2", "--mode", "dlb", "--steps", "4",
                     "--record-interval", "1", "--metrics", str(metrics),
                     "--metrics-every", "2"])
        assert code == 0
        assert 'repro_steps_total{mode="dlb"} 4' in metrics.read_text()

    def test_events_summary_and_tail(self, tmp_path, capsys):
        events = self.record(tmp_path)
        capsys.readouterr()

        assert main(["events", "summary", str(events)]) == 0
        out = capsys.readouterr().out
        assert "run.start" in out and "events over steps" in out

        assert main(["events", "summary", str(events), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["kinds"]["run.end"] == 1

        assert main(["events", "tail", str(events), "-n", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[-1])["kind"] == "run.end"

    def test_events_missing_file_is_a_usage_error(self, tmp_path, capsys):
        assert main(["events", "summary", str(tmp_path / "nope.jsonl")]) == 2

    def test_explain_replays_the_log(self, tmp_path, capsys):
        events = self.record(tmp_path, steps=8)
        capsys.readouterr()
        assert main(["explain", str(events)]) == 0
        assert "replay matches the log" in capsys.readouterr().out

    def test_explain_flags_divergence(self, tmp_path, capsys):
        events = self.record(tmp_path, steps=8)
        records = [json.loads(line) for line in events.read_text().splitlines()]
        tampered = False
        for record in records:
            if record["kind"] == "dlb.decision" and record["moves"]:
                record["moves"][0]["cell"] += 1
                tampered = True
                break
        assert tampered, "expected at least one balancer move to tamper with"
        events.write_text("".join(json.dumps(r) + "\n" for r in records))
        capsys.readouterr()
        assert main(["explain", str(events)]) == 1
        assert "DIVERGES" in capsys.readouterr().out


class TestRunsAndGcVerbs:
    """The fleet-era operator verbs: quarantine inspection, requeue, gc."""

    def _store_with_runs(self, tmp_path):
        from repro.campaign import RunSpec, RunStore

        store = RunStore(tmp_path / "store")
        done = store.register(RunSpec(seed=1), "svc")
        lease = store.acquire_lease(done)
        store.complete(done, {"v": 1}, 0.1, lease=lease)
        poisoned = store.register(RunSpec(seed=2), "svc")
        store.quarantine(poisoned, "crashed everywhere")
        store.close()
        return str(tmp_path / "store"), done, poisoned

    def test_runs_quarantine_lists_and_requeue_lifts(self, tmp_path, capsys):
        store_dir, _, poisoned = self._store_with_runs(tmp_path)
        assert main(["runs", "quarantine", "--dir", store_dir, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["run_id"] for row in rows] == [poisoned]
        assert rows[0]["quarantine"]["reason"] == "crashed everywhere"

        assert main(["runs", "requeue", poisoned, "--dir", store_dir]) == 0
        capsys.readouterr()
        assert main(["runs", "quarantine", "--dir", store_dir, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_requeue_of_non_quarantined_run_is_a_usage_error(
        self, tmp_path, capsys
    ):
        store_dir, done, _ = self._store_with_runs(tmp_path)
        assert main(["runs", "requeue", done, "--dir", store_dir]) == 2
        assert "not quarantined" in capsys.readouterr().err

    def test_campaign_gc_evicts_done_runs_and_artifacts(
        self, tmp_path, capsys
    ):
        from repro.campaign import RunStore

        store_dir, done, poisoned = self._store_with_runs(tmp_path)
        checkpoints = tmp_path / "store" / "checkpoints" / done
        checkpoints.mkdir(parents=True)
        (checkpoints / "ckpt-000000040.pkl").write_bytes(b"snapshot")
        assert main(["campaign", "gc", "--older-than", "0",
                     "--dir", store_dir, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["evicted"] == [done]
        assert report["artifacts_removed"] == 1
        assert not checkpoints.exists()
        with RunStore(store_dir) as store:
            assert store.get(done) is None
            assert store.get(poisoned).status == "quarantined"

    def test_campaign_gc_refuses_fresh_runs_and_bad_durations(
        self, tmp_path, capsys
    ):
        store_dir, done, _ = self._store_with_runs(tmp_path)
        assert main(["campaign", "gc", "--older-than", "7d",
                     "--dir", store_dir, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["evicted"] == []
        assert main(["campaign", "gc", "--older-than", "soon",
                     "--dir", store_dir]) == 2
        assert "unreadable duration" in capsys.readouterr().err

    def test_parse_duration_units(self):
        from repro.cli import _parse_duration

        assert _parse_duration("90") == 90.0
        assert _parse_duration("90s") == 90.0
        assert _parse_duration("15m") == 900.0
        assert _parse_duration("2h") == 7200.0
        assert _parse_duration("7d") == 604800.0
