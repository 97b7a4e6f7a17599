"""Fleet evacuation — campaign time and downtime by in-flight cap.

Not a paper figure: rolling waves over the paper's per-pod checkpoint
and migrate ops.  A fixed fleet (24 blades, 96 idle pods, 18 blades
evacuated) drains under increasing concurrency caps.  The claims:

* the campaign's simulated makespan shrinks roughly linearly with the
  in-flight cap (waves are the only serialization),
* per-pod downtime stays flat — bounding concurrency trades campaign
  duration, never outage length,
* every pod lands off the evacuated set regardless of cap.
"""

import pytest

from repro.fleet import FleetPolicy, run_evacuation_demo

from .conftest import SCALE  # noqa: F401  (cells run at fixed fleet scale)

CAPS = (1, 4, 16)


def _run_cell(cap):
    return run_evacuation_demo(n_nodes=24, n_pods=96, n_evacuate=18,
                               seed=0, policy=FleetPolicy(max_inflight=cap))


@pytest.mark.parametrize("cap", CAPS, ids=[f"inflight-{c}" for c in CAPS])
def test_evacuation_vs_inflight(benchmark, report, bench_json, cap):
    out = benchmark.pedantic(_run_cell, args=(cap,), rounds=1, iterations=1)
    res = out["result"]
    counts = res.counts()
    benchmark.extra_info.update(
        campaign_s=res.duration, waves=len(res.waves),
        p99_downtime_s=res.downtime_percentile(99),
        peak_inflight=res.peak_inflight)
    bench_json(f"fleet/inflight-{cap}",
               campaign_ms=res.duration * 1000,
               waves=len(res.waves),
               p50_downtime_ms=res.downtime_percentile(50) * 1000,
               p99_downtime_ms=res.downtime_percentile(99) * 1000,
               pods_ok=counts["ok"])
    report("fleet", (cap, len(res.waves),
                     f"{res.duration:.3f}",
                     f"{res.downtime_percentile(50) * 1000:.1f}",
                     f"{res.downtime_percentile(99) * 1000:.1f}",
                     f"{counts['ok']}/{len(res.pods)}"))
    assert res.status == "ok"
    assert counts == {"ok": 96, "failed": 0, "skipped": 0}
    assert res.peak_inflight <= cap
    cluster = out["cluster"]
    for name in out["evacuated"]:
        assert not cluster.node_by_name(name).kernel.pods
    # downtime is a property of one pod's move, not of the cap
    base = _run_cell(1)["result"]
    assert res.downtime_percentile(99) == \
        pytest.approx(base.downtime_percentile(99), rel=0.05)
    if cap > 1:
        # makespan scales down with concurrency (waves only serialize)
        assert res.duration * (cap / 2) <= base.duration
