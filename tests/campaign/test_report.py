"""Report aggregation over stored campaign payloads."""

from repro.campaign import (
    RunSpec,
    RunStore,
    campaign_report,
    render_report,
)
from repro.theory.fitting import fit_boundary_scale


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
        lease = store.acquire_lease(h, ttl=60.0)
        store.complete(h, payload, 0.1, lease=lease)
    return store


class TestCampaignReport:
    def test_covers_runs_shared_with_an_earlier_campaign(self):
        """Campaign ``a = {x}`` then ``b = {x, y}`` in one store: ``b``'s
        status and report count both runs, not only the one it registered
        first."""
        store = RunStore()
        x, y = boundary_payload(1), boundary_payload(2)
        for campaign, payloads in (("a", [x]), ("b", [x, y])):
            for payload in payloads:
                h = store.register(RunSpec(m=2, n_pes=9, n_steps=50,
                                           seed=payload["seed"]), campaign)
                lease = store.acquire_lease(h, ttl=60.0)
                if lease is not None:
                    store.complete(h, payload, 0.1, lease=lease)
        report = campaign_report(store, "b")
        assert report.counts["done"] == 2
        (group,) = report.boundary_groups
        assert group.seeds == (1, 2)
        assert campaign_report(store, "a").counts["done"] == 1
        store.close()

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
        lease = store.acquire_lease(h, ttl=60.0)
        store.fail(h, "Traceback ...\nRuntimeError: exploded", lease=lease)
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

    def test_fitted_et_is_labelled_apart_from_the_per_point_mean(self):
        # The paper's E/T is the fitted k per (m, P); the per-point column is
        # the mean of each repetition's own C0/C / f(m, n).
        store = seeded_store([
            boundary_payload(1, n=1.2, c0=0.3),
            boundary_payload(2, n=1.6, c0=0.2, density=0.384),
        ])
        report = campaign_report(store, "c")
        text = render_report(report)
        assert "mean rep C0/C÷f" in text
        assert "E/T = fitted k" in text
        (fit,) = report.to_dict()["fitted_et"]
        k = fit_boundary_scale([g.mean_point for g in report.boundary_groups], 2).ratio
        assert (fit["m"], fit["n_pes"], fit["k"], fit["n_points"]) == (2, 9, k, 2)
        assert f"m=2 | {k:.4f}" in text
        point = report.to_dict()["boundary"][0]
        assert point["mean_rep_et_ratio"] == 0.3 / 0.5
        assert point["mean_point"] == {"step": 40, "n": 1.2, "c0_ratio": 0.3}
        store.close()

    def test_preset_rows_read_payloads_with_and_without_backend(self):
        # Payloads stored before the pair-search axis was removed carry a
        # "backend" key; current ones do not. Both render, without the key.
        store = RunStore()
        for seed, extra in ((1, {"backend": "kdtree"}), (2, {})):
            spec = RunSpec(kind="preset", preset="quickstart", n_steps=5, seed=seed)
            h = store.register(spec, "c")
            lease = store.acquire_lease(h, ttl=60.0)
            payload = {"kind": "preset", "preset": "quickstart", "mode": "dlb",
                       "balancer": "permanent", "seed": seed, "tt_mean": 0.5}
            store.complete(h, payload | extra, 0.1, lease=lease)
        text = render_report(campaign_report(store, "c"))
        assert text.count("quickstart") == 2
        assert "backend" not in text and "kdtree" not in text
        store.close()

    def test_preset_rows_derive_mode_from_the_balancer(self):
        # Older DDM payloads named the unused default strategy beside
        # "mode": "ddm"; they render as the plain-DDM balancer they ran.
        store = RunStore()
        for seed, labels in (
            (1, {"mode": "ddm", "balancer": "permanent"}),
            (2, {"mode": "ddm", "balancer": "none"}),
            (3, {"mode": "dlb", "balancer": "sfc"}),
        ):
            spec = RunSpec(kind="preset", preset="quickstart", n_steps=5, seed=seed)
            h = store.register(spec, "c")
            lease = store.acquire_lease(h, ttl=60.0)
            payload = {"kind": "preset", "preset": "quickstart", "seed": seed,
                       "tt_mean": 0.5} | labels
            store.complete(h, payload, 0.1, lease=lease)
        text = render_report(campaign_report(store, "c"))
        rows = [
            [cell.strip() for cell in line.split("|")]
            for line in text.splitlines() if "quickstart" in line
        ]
        assert [row[1:4] for row in rows] == [
            ["ddm", "none", "1"], ["ddm", "none", "2"], ["dlb", "sfc", "3"],
        ]
        store.close()

    def test_empty_campaign(self):
        with RunStore() as store:
            text = render_report(campaign_report(store, "missing"))
            assert "no runs registered" in text


class TestBoundaryGroup:
    def test_points_mean_point_and_failures(self):
        store = seeded_store([
            boundary_payload(1, n=1.0), boundary_payload(2, n=2.0),
            boundary_payload(3, diverged=False),
        ])
        (group,) = campaign_report(store, "c").boundary_groups
        assert [point.n for point in group.points] == [1.0, 2.0]
        assert group.n_failed == 1
        assert group.mean_point.n == 1.5
        assert group.error_range() == (0.5, 0.0)
        assert group.seeds == (1, 2, 3)
        store.close()
