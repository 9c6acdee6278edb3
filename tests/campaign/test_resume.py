"""End-to-end interrupt/resume: the CI smoke scenario as a test.

Runs the built-in 6-point ``smoke`` campaign, interrupts after the first
batch, resumes, and checks the two invariants the engine promises:

* zero recomputation -- after the interrupted prefix, resuming completes
  only the remainder, and a third invocation is 100% cache hits;
* result integrity -- the report after interrupt+resume is byte-identical
  to the report of an uninterrupted run of the same campaign.
"""

import json

from repro.campaign import (
    RunStore,
    campaign_report,
    get_campaign,
    run_campaign,
)

from ..helpers import leave_unmonitored_claim


def report_payloads(store: RunStore, campaign: str) -> str:
    """Canonical JSON of every stored payload (hash-keyed, order-free)."""
    rows = store.runs(campaign)
    return json.dumps(
        {row.hash: row.payload for row in rows}, sort_keys=True,
        separators=(",", ":"),
    )


def test_interrupted_campaign_resumes_with_zero_recomputation(tmp_path):
    campaign = get_campaign("smoke")

    # Uninterrupted reference run (separate store).
    with RunStore(tmp_path / "reference") as reference_store:
        reference = run_campaign(campaign, reference_store, workers=2)
        assert reference.completed == len(campaign)
        reference_json = report_payloads(reference_store, campaign.name)
        reference_report = campaign_report(reference_store, campaign.name)

    # Interrupt after the first batch of completions.
    store = RunStore(tmp_path / "interrupted")
    partial = run_campaign(campaign, store, workers=2, stop_after=2)
    assert partial.interrupted
    assert 0 < partial.completed < len(campaign)
    done_before_resume = partial.completed
    store.close()

    # Resume in a fresh store handle (fresh process in CI): the completed
    # prefix is served from the store, only the remainder executes.
    store = RunStore(tmp_path / "interrupted")
    resumed = run_campaign(campaign, store, workers=2)
    assert resumed.cached == done_before_resume
    assert resumed.completed == len(campaign) - done_before_resume
    assert resumed.failed == 0

    # A third invocation recomputes nothing at all: 100% cache hits.
    replay = run_campaign(campaign, store, workers=2)
    assert replay.cached == len(campaign)
    assert replay.completed == 0

    # The interrupted-then-resumed store matches the uninterrupted run
    # byte for byte, and aggregates to the same report.
    assert report_payloads(store, campaign.name) == reference_json
    resumed_report = campaign_report(store, campaign.name)
    assert resumed_report.boundary_groups == reference_report.boundary_groups
    store.close()


def test_unmonitored_claim_from_an_older_store_is_recovered(tmp_path):
    """A row an older version left ``running`` with no lease deadline (its
    drainer crashed) is reclaimed and completed by the next invocation."""
    campaign = get_campaign("smoke")
    with RunStore(tmp_path) as store:
        stranded = store.register(campaign.runs[0], campaign.name)
    leave_unmonitored_claim(tmp_path, stranded)
    with RunStore(tmp_path) as store:
        summary = run_campaign(campaign, store, workers=1)
        assert summary.completed == len(campaign)
        row = store.get(stranded)
        assert row.status == "done"
        assert row.failed_owners == ("old-1-x",)
