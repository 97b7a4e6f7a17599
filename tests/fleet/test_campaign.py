"""Campaign engine behavior: waves, threshold, retries, budgets, ledger.

All scenarios run the shared idle-pod world (``build_fleet_world``) so
campaigns are deterministic and cheap; see
tests/fleet/test_drain_evacuate.py for the drain/evacuation surface and
tests/chaos/test_fleet_chaos.py for the fault-injected battery.
"""

import pytest

from repro.cluster.faults import FaultInjector, FaultPlan, FaultSpec, crash_node
from repro.fleet import (
    FLEET_TIMEOUTS,
    Campaign,
    FleetPolicy,
    build_fleet_world,
    checkpoint_fleet_task,
)
from repro.storage.ledger import CAMPAIGNS, OpLedger


def _run(cluster, gen, until=600.0):
    state = {}

    def driver():
        state["res"] = yield from gen
    cluster.engine.spawn(driver(), name="drv")
    cluster.engine.run(until=until)
    return state.get("res")


def test_checkpoint_fleet_commits_and_resumes_pods():
    cluster, manager, pods = build_fleet_world(4, 9, seed=1, first_node=1,
                                               last_node=3)
    policy = FleetPolicy(max_inflight=3)
    res = _run(cluster, checkpoint_fleet_task(manager, policy=policy,
                                              timeouts=FLEET_TIMEOUTS))
    assert res.status == "ok"
    assert res.counts() == {"ok": 9, "failed": 0, "skipped": 0}
    assert res.peak_inflight <= 3
    # snapshot semantics: every pod still runs in place, unsuspended
    for node_name, pod_id in pods:
        node = cluster.node_by_name(node_name)
        assert pod_id in node.kernel.pods
        assert not node.kernel.pods[pod_id].suspended
    # each image landed on the SAN and loads completely
    from repro.core.pipeline import FileSink
    home = cluster.node(0)
    for _node, pod_id in pods:
        sink = FileSink(cluster.san, home.kernel.vfs,
                        f"/san/fleet-c{res.cid}-{pod_id}.img")
        assert sink.exists()
        assert sink.load(pod_id) is not None
    # the ledger folded the campaign to a terminal commit
    lc = OpLedger(cluster.san).replay(CAMPAIGNS)[res.cid]
    assert lc.terminal and lc.phase == "commit"
    assert len(lc.done_pods) == 9
    assert lc.waves_done == list(range(len(lc.waves)))


def test_delta_policy_campaigns_stay_restorable():
    """Every campaign writes fresh ``-c<cid>-`` paths; with a delta
    policy the second campaign must still publish containers a restart
    can use (it published eight lone deltas before)."""
    from repro.core.pipeline import ImagePipeline
    from repro.core.sinks import resolve_sink

    cluster, manager, pods = build_fleet_world(4, 8, seed=1, first_node=1,
                                               last_node=3)
    policy = FleetPolicy(max_inflight=4, filters=[{"name": "delta"}])
    home = cluster.node(0)
    for _campaign in range(2):
        res = _run(cluster, checkpoint_fleet_task(manager, policy=policy,
                                                  timeouts=FLEET_TIMEOUTS),
                   until=cluster.engine.now + 600.0)
        assert res.counts() == {"ok": 8, "failed": 0, "skipped": 0}
        for _node, pod_id in pods:
            sink = resolve_sink(f"file:/san/fleet-c{res.cid}-{pod_id}.img",
                                cluster, home.kernel.vfs)
            ImagePipeline.reassemble(sink.load(pod_id))


def test_wave_barrier_serializes_waves():
    cluster, manager, _pods = build_fleet_world(4, 8, seed=2, first_node=1,
                                                last_node=3)
    policy = FleetPolicy(max_inflight=2, wave_size=2, wave_barrier=True)
    res = _run(cluster, checkpoint_fleet_task(manager, policy=policy,
                                              timeouts=FLEET_TIMEOUTS))
    assert res.status == "ok" and len(res.waves) == 4
    for earlier, later in zip(res.waves, res.waves[1:]):
        assert earlier.t_end <= later.t_start  # strict wave serialization


def test_no_barrier_overlaps_waves():
    cluster, manager, _pods = build_fleet_world(4, 8, seed=2, first_node=1,
                                                last_node=3)
    policy = FleetPolicy(max_inflight=4, wave_size=2, wave_barrier=False)
    res = _run(cluster, checkpoint_fleet_task(manager, policy=policy,
                                              timeouts=FLEET_TIMEOUTS))
    assert res.status == "ok"
    assert res.peak_inflight > 2    # units from different waves in flight
    windows = [(w.t_start, w.t_end) for w in res.waves]
    assert any(a_end > b_start for (_a, a_end), (b_start, _b)
               in zip(windows, windows[1:]))


def test_threshold_halts_campaign_and_skips_tail():
    cluster, manager, pods = build_fleet_world(5, 12, seed=3, first_node=1,
                                               last_node=4)
    # plan over the full fleet, then kill one populated blade: its units
    # fail instantly ("source node crashed") as the waves reach them
    units = [(node, pod, "") for node, pod in pods]
    crash_node(cluster, cluster.node_by_name("blade2"))
    policy = FleetPolicy(max_inflight=1, wave_size=1, failure_threshold=0.1,
                         retries=0)
    camp = Campaign(manager, "checkpoint", units, policy=policy,
                    timeouts=FLEET_TIMEOUTS)
    res = _run(cluster, camp.run_task())
    assert res.status == "halted"
    assert res.threshold_tripped
    counts = res.counts()
    assert counts["failed"] >= 2          # 12 units, >10% must have failed
    assert counts["skipped"] >= 1         # the tail never launched
    failed_frac = counts["failed"] / len(res.pods)
    assert failed_frac > policy.failure_threshold
    # no retry ran after the halt
    for pod_id, out in res.pods.items():
        if out.status == "skipped":
            assert out.attempts == 0
    lc = OpLedger(cluster.san).replay(CAMPAIGNS)[res.cid]
    assert lc.phase == "halted" and lc.terminal


def test_failed_unit_is_retried():
    cluster, manager, pods = build_fleet_world(4, 4, seed=4, first_node=1,
                                               last_node=2)
    from repro.obs.metrics import MetricsRegistry
    metrics = MetricsRegistry().install(cluster)
    # first checkpoint attempt of fp0000 times out: its blade is cut off
    # for longer than every phase deadline, then heals
    plan = FaultPlan(seed=0, faults=[
        FaultSpec(kind="link_drop", phase="fleet.pod_start", node="blade1",
                  pod="fp0000", seconds=9.0)])
    FaultInjector(cluster, plan).install()
    policy = FleetPolicy(max_inflight=1, retries=2, retry_backoff=1.0,
                         failure_threshold=1.0)
    res = _run(cluster, checkpoint_fleet_task(manager, policy=policy,
                                              timeouts=FLEET_TIMEOUTS))
    out = res.pods["fp0000"]
    assert out.status == "ok"
    assert out.attempts >= 2              # first attempt failed, retry won
    assert res.status == "ok"
    attempts = [e for e in res.events if e[0] == "fp0000"]
    assert [s for (_p, _w, _a, _t0, _t1, s) in attempts][:1] == ["failed"]
    assert metrics.counter("fleet.retries").value >= 1


def test_downtime_budget_trips_are_reported():
    cluster, manager, _pods = build_fleet_world(4, 6, seed=5, first_node=1,
                                                last_node=3)
    policy = FleetPolicy(max_inflight=2, downtime_budget=1e-9)
    res = _run(cluster, checkpoint_fleet_task(manager, policy=policy,
                                              timeouts=FLEET_TIMEOUTS))
    # a nanosecond budget trips on every pod, but trips are advisory
    assert res.status == "ok"
    assert sorted(res.budget_trips) == sorted(res.pods)
    assert sum(w.budget_trips for w in res.waves) == len(res.pods)


def test_budget_as_failure_feeds_threshold():
    cluster, manager, _pods = build_fleet_world(4, 6, seed=5, first_node=1,
                                                last_node=3)
    policy = FleetPolicy(max_inflight=2, downtime_budget=1e-9,
                         budget_as_failure=True, failure_threshold=0.0)
    res = _run(cluster, checkpoint_fleet_task(manager, policy=policy,
                                              timeouts=FLEET_TIMEOUTS))
    assert res.threshold_tripped
    assert res.status == "halted"


def test_campaign_refused_when_nodes_claimed():
    cluster, manager, _pods = build_fleet_world(4, 4, seed=6, first_node=1,
                                                last_node=2)
    assert manager.claim_nodes(["blade1"], "recover:op99")
    from repro.fleet import drain_campaign
    camp = drain_campaign(manager, "blade1", policy=FleetPolicy(),
                          timeouts=FLEET_TIMEOUTS)
    res = _run(cluster, camp.run_task())
    assert res.status == "excluded"
    assert "node claim refused" in res.errors[0]
    # nothing was journaled for the refused campaign
    assert res.cid not in OpLedger(cluster.san).replay(CAMPAIGNS)


def test_downtime_distribution_is_nontrivial():
    cluster, manager, _pods = build_fleet_world(4, 14, seed=7, first_node=1,
                                                last_node=3)
    policy = FleetPolicy(max_inflight=4)
    res = _run(cluster, checkpoint_fleet_task(manager, policy=policy,
                                              timeouts=FLEET_TIMEOUTS))
    times = res.downtimes()
    assert len(times) == 14
    # ballast spread (i % 7 steps) must show up as distinct downtimes
    assert len(set(times)) >= 5
    assert res.downtime_percentile(99) >= res.downtime_percentile(50) > 0.0


def test_campaigns_built_before_either_runs_get_distinct_ids():
    """A campaign id is reserved when the campaign is built, not when
    its begin record lands: two drains planned up front must not share
    an id (and so fold into one campaign with both drains' pods)."""
    cluster, manager, _pods = build_fleet_world(8, 16)
    from repro.fleet import drain_campaign
    first, second = (drain_campaign(manager, blade, policy=FleetPolicy(),
                                    timeouts=FLEET_TIMEOUTS)
                     for blade in ("blade1", "blade2"))
    assert first.cid != second.cid

    def both():
        results = []
        for camp in (first, second):
            results.append((yield from camp.run_task()))
        return results

    results = _run(cluster, both(), until=1200.0)
    camps = OpLedger(cluster.san).replay(CAMPAIGNS)
    for camp, res in zip((first, second), results):
        assert res.status == "ok"
        lc = camps[camp.cid]
        assert len(lc.units) == 3
        assert sorted(lc.pods) == sorted(unit[1] for unit in camp.units)
