"""Report aggregation over stored campaign payloads."""

from repro.campaign import (
    RunSpec,
    RunStore,
    campaign_report,
    group_experiment,
    render_report,
)


def boundary_payload(seed: int, diverged: bool = True, n: float = 1.5,
                     c0: float = 0.2, density: float = 0.256) -> dict:
    payload = {
        "kind": "boundary", "m": 2, "n_pes": 9, "density": density,
        "seed": seed, "diverged": diverged, "step": 40 if diverged else None,
        "n": n if diverged else None, "c0_ratio": c0 if diverged else None,
        "theory": 0.5 if diverged else None,
        "et_ratio": c0 / 0.5 if diverged else None,
    }
    return payload


def seeded_store(payloads: list[dict]) -> RunStore:
    store = RunStore()
    for index, payload in enumerate(payloads):
        spec = RunSpec(m=2, n_pes=9, density=payload["density"],
                       n_steps=50, seed=payload["seed"])
        h = store.register(spec, "c")
        store.acquire_lease(h)
        store.complete(h, payload, 0.1)
    return store


class TestCampaignReport:
    def test_groups_by_geometry_and_keeps_every_repetition(self):
        store = seeded_store([
            boundary_payload(1), boundary_payload(2, diverged=False),
            boundary_payload(3, density=0.384),
        ])
        report = campaign_report(store, "c")
        assert len(report.boundary_groups) == 2
        first = report.boundary_groups[0]
        assert first.density == 0.256
        assert len(first.repetitions) == 2
        assert first.n_failed == 1
        assert first.seeds == (1, 2)
        store.close()

    def test_mean_std_over_diverged_only(self):
        store = seeded_store([
            boundary_payload(1, n=1.0), boundary_payload(2, n=3.0),
            boundary_payload(3, diverged=False),
        ])
        report = campaign_report(store, "c")
        (group,) = report.boundary_groups
        mean, std = group.mean_std("n")
        assert mean == 2.0
        assert std == 1.0
        store.close()

    def test_complete_flag(self):
        store = seeded_store([boundary_payload(1)])
        store.register(RunSpec(m=2, seed=99), "c")  # still pending
        report = campaign_report(store, "c")
        assert not report.complete
        store.close()

    def test_failures_surface(self):
        store = seeded_store([boundary_payload(1)])
        h = store.register(RunSpec(m=2, seed=50), "c")
        store.acquire_lease(h)
        store.fail(h, "Traceback ...\nRuntimeError: exploded")
        report = campaign_report(store, "c")
        assert len(report.failures) == 1
        assert "exploded" in render_report(report)
        store.close()


class TestRenderReport:
    def test_prints_per_repetition_seeds(self):
        store = seeded_store([boundary_payload(11), boundary_payload(22)])
        text = render_report(campaign_report(store, "c"))
        assert "11" in text and "22" in text
        assert "seed replays the run" in text
        assert "mean ± std" in text
        store.close()

    def test_empty_campaign(self):
        with RunStore() as store:
            text = render_report(campaign_report(store, "missing"))
            assert "no runs registered" in text


class TestGroupExperiment:
    def test_rebuilds_boundary_experiment(self):
        store = seeded_store([
            boundary_payload(1, n=1.0), boundary_payload(2, n=2.0),
            boundary_payload(3, diverged=False),
        ])
        (group,) = campaign_report(store, "c").boundary_groups
        experiment = group_experiment(group)
        assert len(experiment.points) == 2
        assert experiment.n_failed == 1
        assert experiment.mean_point.n == 1.5
        assert [rep.seed for rep in experiment.repetitions] == [1, 2, 3]
        store.close()
