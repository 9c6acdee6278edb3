"""The campaign engine: parallel scaling.

The same campaign drained serially and through a 4-worker process pool must
produce byte-identical per-run payloads (same spec hash => same payload),
and on a machine with >= 4 cores the pool must be at least 2x faster.  On
smaller hosts the speedup is recorded but not asserted (``cpu_count`` lands
in ``BENCH_campaign.json`` so ``check_regression.py`` can apply the same
gate).
"""

import os

from repro.campaign import CampaignSpec, RunSpec, RunStore, run_campaign


def scaling_campaign() -> CampaignSpec:
    """Twelve independent boundary runs -- enough to keep 4 workers busy."""
    runs = tuple(
        RunSpec(m=2, n_pes=9, density=0.256, n_steps=60, seed=500 + i)
        for i in range(12)
    )
    return CampaignSpec(name="bench-scaling", runs=runs)


def test_campaign_parallel_scaling(campaign_log):
    campaign = scaling_campaign()

    with RunStore() as serial_store:
        serial = run_campaign(campaign, serial_store, workers=1)
        serial_payloads = {
            h: serial_store.get(h).payload_json for h in campaign.hashes()
        }
    with RunStore() as pool_store:
        pooled = run_campaign(campaign, pool_store, workers=4)
        pooled_payloads = {
            h: pool_store.get(h).payload_json for h in campaign.hashes()
        }

    assert serial.completed == pooled.completed == len(campaign)
    assert serial.failed == pooled.failed == 0
    # Same spec hash => same payload, byte for byte, regardless of the
    # execution path.
    assert serial_payloads == pooled_payloads

    cpu_count = os.cpu_count() or 1
    speedup = serial.wall_s / pooled.wall_s if pooled.wall_s > 0 else 0.0
    print(f"\ncampaign scaling: serial {serial.wall_s:.2f}s, "
          f"4 workers {pooled.wall_s:.2f}s ({speedup:.2f}x, "
          f"{cpu_count} cores)")
    campaign_log["serial"] = {"wall_s": serial.wall_s, "runs": len(campaign)}
    campaign_log["workers4"] = {"wall_s": pooled.wall_s, "runs": len(campaign)}
    if cpu_count >= 4:
        assert speedup >= 2.0, (
            f"4-worker campaign only {speedup:.2f}x faster than serial "
            f"on {cpu_count} cores"
        )
    else:
        print(f"  (speedup assertion skipped: only {cpu_count} cores)")
