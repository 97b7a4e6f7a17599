"""Incremental generations — dirty-delta image shrink and the
zero-stall suspend window.

Not a paper figure: the PR's dirty-delta / async-pipeline study.  One
writing workload (2 pods × 64 MB ballast, 8 MB/s writes) is snapshotted
four epochs under each pipeline mode.  The claims:

* with measured dirty tracking, every epoch ≥ 1 image is ≥ 5× smaller
  than a full image,
* the zero-stall path cuts the pod suspend window ≥ 3× against serial
  incremental checkpoints — while the committed chain still reassembles
  byte-identical to the full base (``chain_ok``),
* a rolling fleet wave can run the same configuration end to end.
"""

import pytest

from repro.fleet import FLEET_TIMEOUTS, FleetPolicy, build_fleet_world
from repro.fleet.drain import checkpoint_fleet_task
from repro.harness import INC_MODES, run_inc_cell

from .conftest import SCALE  # noqa: F401  (cells run at fixed workload scale)

_cells = {}


@pytest.mark.parametrize("mode", list(INC_MODES), ids=list(INC_MODES))
def test_generations_by_mode(benchmark, report, bench_json, mode):
    cell = benchmark.pedantic(run_inc_cell, args=(mode,), rounds=1,
                              iterations=1)
    _cells[mode] = cell
    benchmark.extra_info.update(
        epoch0_mb=cell.epoch0_image_size / 1e6,
        steady_mb=cell.steady_state_image_size / 1e6,
        suspend_ms=cell.mean_suspend * 1000)
    metrics = {f"gen{i}_mb": size / 1e6
               for i, size in enumerate(cell.image_sizes)}
    bench_json(f"inc/{mode}",
               suspend_ms=cell.mean_suspend * 1000,
               ckpt_ms=cell.mean_checkpoint * 1000,
               **metrics)
    report("inc", (mode,
                   f"{cell.epoch0_image_size / 1e6:.1f}",
                   f"{cell.steady_state_image_size / 1e6:.2f}",
                   f"{cell.mean_suspend * 1000:.1f}",
                   f"{cell.mean_checkpoint * 1000:.1f}",
                   "ok" if cell.chain_ok else "BROKEN"))
    assert cell.chain_ok
    assert len(cell.image_sizes) == 4
    full = _cells.get("full")
    if mode in ("delta", "delta-async") and full is not None:
        # acceptance: epoch ≥ 1 dirty-delta images ≥ 5× smaller than full
        for size in cell.image_sizes[1:]:
            assert size * 5 <= full.steady_state_image_size
    if mode == "delta-async" and "delta" in _cells:
        # acceptance: async cuts the suspend window ≥ 3× vs serial
        assert cell.mean_suspend * 3 <= _cells["delta"].mean_suspend


def _run_inc_wave():
    cluster, manager, pods = build_fleet_world(12, 48, seed=0)
    policy = FleetPolicy(max_inflight=8, filters=[{"name": "delta"}],
                         async_ckpt=True)
    state = {}

    def driver():
        state["result"] = yield from checkpoint_fleet_task(
            manager, policy=policy, timeouts=FLEET_TIMEOUTS)

    cluster.engine.spawn(driver(), name="inc-wave")
    cluster.engine.run(until=3600.0)
    return state["result"]


def test_fleet_incremental_wave(benchmark, report, bench_json):
    """A rolling zero-stall incremental checkpoint wave over 48 pods."""
    res = benchmark.pedantic(_run_inc_wave, rounds=1, iterations=1)
    counts = res.counts()
    benchmark.extra_info.update(campaign_s=res.duration,
                                p99_downtime_s=res.downtime_percentile(99))
    bench_json("fleet/inc-wave",
               campaign_ms=res.duration * 1000,
               waves=len(res.waves),
               p50_downtime_ms=res.downtime_percentile(50) * 1000,
               p99_downtime_ms=res.downtime_percentile(99) * 1000,
               pods_ok=counts["ok"])
    report("fleet", ("inc-wave", len(res.waves),
                     f"{res.duration:.3f}",
                     f"{res.downtime_percentile(50) * 1000:.1f}",
                     f"{res.downtime_percentile(99) * 1000:.1f}",
                     f"{counts['ok']}/{len(res.pods)}"))
    assert res.status == "ok"
    assert counts == {"ok": 48, "failed": 0, "skipped": 0}
