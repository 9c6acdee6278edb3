"""The balancer strategy seam (PR 10).

Four contract groups:

* **Seam equivalence** -- the ``permanent`` strategy through the registry is
  move-for-move identical to the pre-seam inline decision loop (re-created
  here verbatim), with and without the bounded-staleness timing view, and
  run-digest-identical end to end (sequential, multiprocess, kill→resume,
  under fault injection).
* **Rivals** -- ``diffusion`` and ``sfc`` conserve ownership (every cell has
  exactly one holder), pass the strategy-relaxed
  :class:`~repro.faults.audit.InvariantAuditor`, and actually move cells;
  ``none`` never does.
* **Selection plumbing** -- a run's strategy comes from its config alone
  (``None`` is ``permanent``); the process environment never picks one, and
  unknown names fail with the known choices listed.
* **State** -- strategy identity rides checkpoints; resuming under a
  different strategy refuses with an actionable error.
"""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro import api
from repro.config import DLBConfig, RunConfig
from repro.decomp.assignment import CellAssignment
from repro.dlb.protocol import decide_move
from repro.dlb.strategies import (
    DecisionView,
    create_balancer,
    create_strategy,
    resolve_balancer_name,
)
from repro.errors import ConfigurationError
from repro.faults.audit import InvariantAuditor
from repro.parallel.topology import Torus2D
from tests.helpers import fig5_config


def _legacy_decide(assignment, topology, times, config, view=None):
    """The pre-seam ``DynamicLoadBalancer.decide`` loop, byte-for-byte.

    This is the reference the seam is measured against: any drift in the
    extracted ``PermanentCellsBalancer`` shows up as a move mismatch here.
    """

    def wants_rebalance(my_time, fast_time):
        if config.policy == "fastest":
            return True
        if fast_time <= 0:
            return my_time > 0
        return (my_time - fast_time) / fast_time > config.threshold

    moves = []
    committed = {}
    for pe in range(assignment.n_pes):
        if view is not None:
            fastest = view.fastest_known(pe, times, topology)
            fast_time = view.effective(pe, fastest)
        else:
            neighborhood = topology.neighborhood(pe)
            fastest = neighborhood[int(np.argmin(times[neighborhood]))]
            fast_time = float(times[fastest])
        if fastest == pe:
            continue
        if not wants_rebalance(float(times[pe]), fast_time):
            continue
        exclude = committed.setdefault(pe, set())
        for _ in range(config.max_sends_per_step):
            move = decide_move(assignment, topology, pe, fastest, exclude)
            if move is None:
                break
            exclude.add(move.cell)
            moves.append(move)
    return moves


def _evolving_snapshots(nc=9, n_pes=9, rounds=25, seed=3, **config_kwargs):
    """Yield (assignment_pair, topology, times, config) over an evolving run.

    Two assignments are kept in lock-step -- one driven by the seam, one by
    the legacy loop -- so equivalence is checked against *evolved* holder
    maps, not just the initial one.
    """
    rng = np.random.default_rng(seed)
    config = DLBConfig(**config_kwargs)
    seam = CellAssignment(nc, n_pes)
    legacy = CellAssignment(nc, n_pes)
    topology = Torus2D(seam.pe_side)
    for _ in range(rounds):
        times = rng.uniform(0.1, 2.0, n_pes)
        yield seam, legacy, topology, times, config


class TestSeamEquivalence:
    @pytest.mark.parametrize(
        "config_kwargs",
        [
            {},
            {"max_sends_per_step": 3},
            {"policy": "threshold", "threshold": 0.25},
        ],
        ids=["default", "burst", "threshold"],
    )
    def test_permanent_matches_legacy_move_for_move(self, config_kwargs):
        for seam_a, legacy_a, topology, times, config in _evolving_snapshots(
            **config_kwargs
        ):
            balancer = create_balancer(seam_a, config, strategy="permanent")
            seam_moves = balancer.decide(times)
            legacy_moves = _legacy_decide(legacy_a, topology, times, config)
            assert seam_moves == legacy_moves
            balancer.apply(seam_moves)
            for move in legacy_moves:
                legacy_a.transfer(move.cell, move.dst)
            assert np.array_equal(seam_a.holder, legacy_a.holder)

    def test_permanent_matches_legacy_under_timing_view(self):
        """Equivalence holds on the fault path (bounded-staleness beliefs)."""
        from repro.dlb.views import TimingView

        rng = np.random.default_rng(11)
        assignment = CellAssignment(9, 9)
        topology = Torus2D(assignment.pe_side)
        config = DLBConfig()
        view = TimingView(9, max_staleness=2)

        class DropSome:
            def report_delivered(self, step, src, dst):
                return rng.random() > 0.3

        injector = DropSome()
        strategy = create_strategy("permanent")
        for step in range(20):
            times = rng.uniform(0.1, 2.0, 9)
            view.refresh(step, times, topology, injector)
            decision_view = DecisionView(
                times=times,
                assignment=assignment,
                topology=topology,
                config=config,
                timing=view,
            )
            seam_moves = strategy.decide(decision_view, step)
            legacy_moves = _legacy_decide(
                assignment, topology, times, config, view=view
            )
            assert seam_moves == legacy_moves
            for move in seam_moves:
                assignment.transfer(move.cell, move.dst)

    def test_default_run_digest_unchanged_by_explicit_permanent(self):
        """``balancer=None`` and ``balancer='permanent'`` are the same run."""
        base = api.simulate(fig5_config(), run=RunConfig(steps=5, seed=5))
        explicit = api.simulate(
            fig5_config(), run=RunConfig(steps=5, seed=5, balancer="permanent")
        )
        assert explicit.digest() == base.digest()
        assert base.meta["balancer"] == "permanent"
        assert explicit.meta["balancer"] == "permanent"

    def test_permanent_digest_matches_across_engines(self):
        """Engine backends agree with each other, and the explicit balancer
        selection does not perturb either the engine or the classic path
        (engines use a different force pipeline than the classic runner, so
        the two families digest differently by design)."""
        run = RunConfig(steps=4, seed=5, balancer="permanent")
        run_default = RunConfig(steps=4, seed=5)
        seq = api.simulate(fig5_config(), run=run, engine="sequential")
        par = api.simulate(
            fig5_config(), run=run, engine="multiprocess", engine_workers=2
        )
        seq_default = api.simulate(fig5_config(), run=run_default,
                                   engine="sequential")
        assert par.digest() == seq.digest()
        assert seq.digest() == seq_default.digest()

    def test_kill_and_resume_lands_on_uninterrupted_digest(self, tmp_path):
        run = RunConfig(steps=6, seed=9, balancer="permanent")
        full = api.simulate(fig5_config(), run=run)
        api.simulate(
            fig5_config(),
            run=run,
            checkpoints=api.CheckpointPolicy(directory=tmp_path, every=2),
            stop_after=2,
        )
        resumed = api.simulate(
            fig5_config(),
            run=run,
            checkpoints=api.CheckpointPolicy(directory=tmp_path, resume=True),
        )
        assert resumed.meta["resumed_at"] == 2
        assert resumed.digest() == full.digest()

    def test_digest_unchanged_under_faults(self):
        """Fault injection exercises the timing-view branch of the seam."""
        from repro.faults import FaultPlan, TimingFaultRule

        plan = FaultPlan(seed=11, timing=TimingFaultRule(drop=0.3, max_staleness=2))
        base = api.simulate(fig5_config(), run=RunConfig(steps=6, seed=7), faults=plan)
        explicit = api.simulate(
            fig5_config(), run=RunConfig(steps=6, seed=7, balancer="permanent"),
            faults=plan,
        )
        assert explicit.digest() == base.digest()


def _run_strategy_rounds(strategy_name, rounds=20, nc=9, n_pes=9, seed=4,
                         **config_kwargs):
    """Drive one strategy over random timing snapshots; returns the balancer."""
    rng = np.random.default_rng(seed)
    assignment = CellAssignment(nc, n_pes)
    balancer = create_balancer(
        assignment, DLBConfig(**config_kwargs), strategy=strategy_name
    )
    total_moves = 0
    counts = rng.poisson(2.0, nc * nc * nc).astype(np.int64)
    for step in range(rounds):
        times = rng.uniform(0.1, 2.0, n_pes)
        moves = balancer.step(times, step=step, counts=counts)
        total_moves += len(moves)
    return assignment, balancer, total_moves


class TestRivalStrategies:
    @pytest.mark.parametrize("strategy", ["diffusion", "sfc"])
    def test_rivals_conserve_ownership_and_move_cells(self, strategy):
        assignment, _, total_moves = _run_strategy_rounds(strategy)
        assert total_moves > 0, f"{strategy} never moved a cell"
        # Ownership conservation: every cell exactly one holder, in range.
        assert assignment.holder.shape == (assignment.n_cells,)
        assert np.all(assignment.holder >= 0)
        assert np.all(assignment.holder < assignment.n_pes)
        counts = assignment.cell_counts_per_pe()
        assert int(counts.sum()) == assignment.n_cells

    @pytest.mark.parametrize("strategy", ["diffusion", "sfc"])
    def test_rivals_pass_relaxed_auditor(self, strategy):
        assignment, _, _ = _run_strategy_rounds(strategy)
        auditor = InvariantAuditor(assignment, strategy=strategy)
        assert auditor.audit(step=0) == []

    def test_rival_assignment_would_fail_strict_auditor(self):
        """The relaxation is real: diffusion's holder map violates the
        permanent-cell invariants a strict (permanent) auditor enforces."""
        assignment, _, _ = _run_strategy_rounds("diffusion", rounds=30)
        strict = InvariantAuditor(assignment, strategy="permanent", policy="log")
        assert strict.audit(step=0) != []

    def test_permanent_keeps_strict_auditor_green(self):
        assignment, _, _ = _run_strategy_rounds("permanent", rounds=30)
        auditor = InvariantAuditor(assignment, strategy="permanent")
        assert auditor.audit(step=0) == []
        # Permanent cells literally never migrated.
        pinned = assignment.permanent
        assert np.array_equal(
            assignment.holder[pinned], assignment.home[pinned]
        )

    def test_none_never_moves(self):
        assignment, balancer, total_moves = _run_strategy_rounds("none")
        assert total_moves == 0
        assert np.array_equal(assignment.holder, assignment.home)
        assert balancer.stats.moves_total == 0

    def test_sfc_degrades_to_uniform_weights_without_counts(self):
        rng = np.random.default_rng(8)
        assignment = CellAssignment(9, 9)
        balancer = create_balancer(assignment, strategy="sfc")
        moves = balancer.decide(rng.uniform(0.1, 2.0, 9))
        assert isinstance(moves, list)  # no counts: geometry-only cut

    def test_sfc_balances_clustered_counts(self):
        """The curve cut reacts to weight: a clustered occupancy ends with
        a flatter per-PE particle distribution than the home assignment."""
        rng = np.random.default_rng(9)
        nc, n_pes = 9, 9
        assignment = CellAssignment(nc, n_pes)
        counts = np.zeros(nc * nc * nc, dtype=np.int64)
        # All particles piled into PE 0's home cells.
        counts[np.flatnonzero(assignment.home == 0)] = 50
        balancer = create_balancer(assignment, DLBConfig(max_sends_per_step=8),
                                   strategy="sfc")
        for step in range(15):
            balancer.step(rng.uniform(0.9, 1.1, n_pes), step=step, counts=counts)
        per_pe = np.zeros(n_pes)
        np.add.at(per_pe, assignment.holder, counts)
        assert per_pe.max() < counts.sum()  # the pile is no longer one PE's


class TestSelectionPlumbing:
    def test_resolution_precedence(self, monkeypatch):
        # An explicit name wins; None is permanent whatever the environment.
        monkeypatch.setenv("REPRO_BALANCER", "diffusion")
        assert resolve_balancer_name("sfc") == "sfc"
        assert resolve_balancer_name(None) == "permanent"
        with pytest.raises(ConfigurationError, match="permanent"):
            resolve_balancer_name("auto")

    def test_execute_run_payload_ignores_the_environment(self, monkeypatch):
        """A balancer-less spec hashes the same in every process, so it must
        execute the same in every process: the run store keys it once."""
        from repro.campaign.executor import execute_run
        from repro.campaign.spec import RunSpec

        monkeypatch.delenv("REPRO_BALANCER", raising=False)
        spec = RunSpec(kind="preset", preset="quickstart", n_steps=5, seed=1)
        plain = execute_run(spec)
        root = Path(__file__).resolve().parents[2]
        child = subprocess.run(
            [sys.executable, "-c", (
                "import json; from repro.campaign.executor import execute_run; "
                "from repro.campaign.spec import RunSpec; print(json.dumps("
                "execute_run(RunSpec(kind='preset', preset='quickstart', "
                "n_steps=5, seed=1))))"
            )],
            env={**os.environ, "REPRO_BALANCER": "diffusion",
                 "PYTHONPATH": str(root / "src")},
            capture_output=True, text=True, check=True,
        )
        assert plain["balancer"] == "permanent"
        assert json.loads(child.stdout) == plain

    def test_config_field_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BALANCER", "none")
        result = api.simulate(
            fig5_config(), run=RunConfig(steps=3, seed=5, balancer="permanent")
        )
        assert result.meta["balancer"] == "permanent"

    def test_factory_construction_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            balancer = create_balancer(CellAssignment(9, 9))
        assert balancer.strategy_name == "permanent"


class TestStateAndCheckpoints:
    def test_state_dict_carries_strategy_identity(self):
        balancer = create_balancer(CellAssignment(9, 9), strategy="diffusion")
        state = balancer.state_dict()
        assert state["strategy"] == {"name": "diffusion", "state": {}}

    def test_strategy_mismatch_on_restore_is_actionable(self):
        source = create_balancer(CellAssignment(9, 9), strategy="diffusion")
        target = create_balancer(CellAssignment(9, 9), strategy="permanent")
        with pytest.raises(ConfigurationError, match="--balancer diffusion"):
            target.load_state_dict(source.state_dict())

    def test_pre_seam_checkpoint_without_strategy_key_restores(self):
        source = create_balancer(CellAssignment(9, 9), strategy="permanent")
        state = source.state_dict()
        del state["strategy"]  # what a pre-seam snapshot looks like
        target = create_balancer(CellAssignment(9, 9), strategy="permanent")
        target.load_state_dict(state)
        assert target.stats.steps == 0

    def test_resume_under_different_balancer_refuses(self, tmp_path):
        """The balancer is part of the config token: a snapshot taken under
        one strategy refuses to resume under another (the refusal is the
        token mismatch -- it fires before any state is touched)."""
        from repro.errors import CheckpointError

        api.simulate(
            fig5_config(),
            run=RunConfig(steps=6, seed=9, balancer="diffusion"),
            checkpoints=api.CheckpointPolicy(directory=tmp_path, every=2),
            stop_after=2,
        )
        with pytest.raises(CheckpointError, match="different configuration"):
            api.simulate(
                fig5_config(),
                run=RunConfig(steps=6, seed=9, balancer="sfc"),
                checkpoints=api.CheckpointPolicy(directory=tmp_path, resume=True),
            )

    @pytest.mark.parametrize("strategy", ["diffusion", "sfc", "none"])
    def test_rival_kill_and_resume_matches_uninterrupted(self, strategy, tmp_path):
        run = RunConfig(steps=6, seed=9, balancer=strategy)
        full = api.simulate(fig5_config(), run=run)
        api.simulate(
            fig5_config(),
            run=run,
            checkpoints=api.CheckpointPolicy(directory=tmp_path, every=2),
            stop_after=2,
        )
        resumed = api.simulate(
            fig5_config(),
            run=run,
            checkpoints=api.CheckpointPolicy(directory=tmp_path, resume=True),
        )
        assert resumed.meta["balancer"] == strategy
        assert resumed.digest() == full.digest()


class TestRunMetadata:
    @pytest.mark.parametrize("strategy", ["permanent", "diffusion", "sfc", "none"])
    def test_meta_stamps_resolved_strategy(self, strategy):
        result = api.simulate(
            fig5_config(), run=RunConfig(steps=3, seed=5, balancer=strategy)
        )
        assert result.meta["balancer"] == strategy

    def test_run_start_event_records_balancer(self):
        from repro.obs import EventLog, Observability

        observability = Observability(events=EventLog())
        api.simulate(
            fig5_config(),
            run=RunConfig(steps=3, seed=5, record_interval=1, balancer="diffusion"),
            observability=observability,
        )
        start = observability.events.records[0]
        assert start["kind"] == "run.start"
        assert start["dlb"]["balancer"] == "diffusion"
