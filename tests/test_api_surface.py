"""Snapshot of the public API surface.

``repro.api`` is the stable contract: its ``__all__`` and the signatures of
its callables are pinned here so an accidental rename, a dropped keyword, or
a default change fails tier-1 instead of silently breaking downstream
callers. Additive changes (a new keyword-only argument with a default, a new
``__all__`` entry) require updating the snapshot in the same PR — which is
exactly the review trigger this test exists to create.
"""

import inspect

import pytest

from repro import api

EXPECTED_ALL = [
    "AuditPolicy",
    "CanonicalSubmission",
    "CheckpointPolicy",
    "RunConfig",
    "RunResult",
    "SimulationConfig",
    "canonicalize_submission",
    "load_config",
    "load_faults",
    "load_result",
    "result_payload",
    "save_config",
    "simulate",
    "simulate_driven",
]

EXPECTED_SIGNATURES = {
    "simulate": (
        "(config: 'SimulationConfig | str', *, run: 'RunConfig', "
        "dlb: 'bool | None' = None, "
        "engine: 'Engine | str | None' = None, "
        "engine_workers: 'int | None' = None, "
        "observability: 'Observability | None' = None, "
        "faults: 'FaultPlan | FaultInjector | None' = None, "
        "audit: 'AuditPolicy | None' = None, "
        "checkpoints: 'CheckpointPolicy | None' = None, "
        "system: 'ParticleSystem | None' = None, "
        "trace_pid: 'int' = 0, "
        "stop_after: 'int | None' = None) -> 'RunResult'"
    ),
    "simulate_driven": (
        "(config: 'SimulationConfig | str', "
        "configurations: 'Iterable[np.ndarray]', *, "
        "rounds_per_config: 'int' = 1, "
        "dlb: 'bool | None' = None, "
        "balancer: 'str | None' = None, "
        "observability: 'Observability | None' = None, "
        "faults: 'FaultPlan | FaultInjector | None' = None, "
        "audit: 'AuditPolicy | None' = None, "
        "checkpoints: 'CheckpointPolicy | None' = None, "
        "trace_pid: 'int' = 0) -> 'RunResult'"
    ),
    "result_payload": "(result: 'RunResult') -> 'dict[str, Any]'",
    "save_config": (
        "(path: 'str | Path', config: 'SimulationConfig', "
        "run: 'RunConfig | None' = None) -> 'None'"
    ),
    "load_config": "(path: 'str | Path') -> 'LoadedConfig'",
    "load_result": "(path: 'str | Path') -> 'dict[str, Any]'",
    "load_faults": "(path: 'str | Path') -> 'FaultPlan'",
    "canonicalize_submission": (
        "(submission: 'dict[str, Any]') -> 'CanonicalSubmission'"
    ),
}


class TestPublicSurface:
    def test_all_is_pinned(self):
        assert list(api.__all__) == EXPECTED_ALL

    def test_all_is_sorted(self):
        # Classes first (CamelCase sorts before snake_case), then functions.
        assert list(api.__all__) == sorted(api.__all__)

    def test_every_name_exists(self):
        for name in api.__all__:
            assert hasattr(api, name), f"api.__all__ lists missing name {name!r}"

    def test_signatures_are_pinned(self):
        for name, expected in EXPECTED_SIGNATURES.items():
            actual = str(inspect.signature(getattr(api, name)))
            assert actual == expected, (
                f"api.{name} signature changed:\n  was {expected}\n  now {actual}\n"
                "If this is intentional and additive, update the snapshot."
            )

    def test_simulate_arguments_are_keyword_only(self):
        for name in ("simulate", "simulate_driven"):
            signature = inspect.signature(getattr(api, name))
            positional = [
                p
                for p in signature.parameters.values()
                if p.kind
                in (inspect.Parameter.POSITIONAL_ONLY,
                    inspect.Parameter.POSITIONAL_OR_KEYWORD)
            ]
            # Only the workload inputs lead; every option is keyword-only.
            allowed = {"config", "configurations"}
            assert {p.name for p in positional} <= allowed

    def test_policy_dataclasses_are_frozen(self):
        import dataclasses

        for cls in (api.AuditPolicy, api.CheckpointPolicy):
            assert dataclasses.is_dataclass(cls)
            params = getattr(cls, "__dataclass_params__")
            assert params.frozen, f"{cls.__name__} must stay immutable"


class TestBalancerSurface:
    """The strategy seam's public surface (PR 10)."""

    def test_simulate_has_no_balancer_keyword(self):
        assert "balancer" not in inspect.signature(api.simulate).parameters
        with pytest.raises(TypeError):
            api.simulate("quickstart", run=api.RunConfig(steps=1), balancer="none")
        # The driven runner has no RunConfig: its keyword stays.
        parameter = inspect.signature(api.simulate_driven).parameters["balancer"]
        assert parameter.kind is inspect.Parameter.KEYWORD_ONLY

    def test_strategies_module_surface(self):
        from repro.dlb import strategies

        for name in ("Balancer", "available", "create_balancer",
                     "create_strategy", "resolve_balancer_name"):
            assert hasattr(strategies, name)
        # The strategy set is fixed: there is no registration hook.
        assert not hasattr(strategies, "register_strategy")

    def test_available_lists_all_four_strategies(self):
        from repro.dlb.strategies import available

        assert available() == ("diffusion", "none", "permanent", "sfc")

    def test_balancer_protocol_shape(self):
        """Every registered strategy satisfies the Balancer protocol."""
        from repro.dlb.strategies import Balancer, available, create_strategy

        for name in available():
            strategy = create_strategy(name)
            assert isinstance(strategy, Balancer)
            assert strategy.name == name
            assert callable(strategy.decide)
            assert isinstance(strategy.state_dict(), dict)
            assert isinstance(strategy.constrained, bool)
            assert isinstance(strategy.needs_counts, bool)

    def test_unknown_strategy_error_lists_choices(self):
        from repro.dlb.strategies import available, create_strategy
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError) as excinfo:
            create_strategy("work-stealing")
        message = str(excinfo.value)
        for name in available():
            assert name in message

    def test_unknown_balancer_in_run_config_is_actionable(self):
        from repro.errors import ConfigurationError

        for name in ("work-stealing", "auto"):
            with pytest.raises(ConfigurationError, match="permanent"):
                api.RunConfig(steps=1, balancer=name)

    def test_dlb_package_reexports_the_seam(self):
        from repro import dlb

        for name in ("Balancer", "DecisionView", "available",
                     "create_balancer", "create_strategy",
                     "resolve_balancer_name"):
            assert name in dlb.__all__
            assert hasattr(dlb, name)
        assert "register_strategy" not in dlb.__all__
