"""Drain, evacuation, and the 100-node / 1000-pod campaign.

The tentpole acceptance scenario lives here: a 100-blade cluster with
1000 idle pods is fully evacuated under soft fault injection, with
bounded per-pod downtime and a byte-identical trace per seed.
"""

from repro.cluster.faults import FLEET_PHASES
from repro.fleet import (
    FLEET_TIMEOUTS,
    FleetPolicy,
    build_fleet_world,
    drain_task,
    evacuate_task,
    run_evacuation_demo,
)
from repro.storage.ledger import CAMPAIGNS, OpLedger


def _run(cluster, gen, until=3600.0):
    state = {}

    def driver():
        state["res"] = yield from gen
    cluster.engine.spawn(driver(), name="drv")
    cluster.engine.run(until=until)
    return state.get("res")


def test_drain_empties_node_and_releases_claim():
    cluster, manager, pods = build_fleet_world(6, 12, seed=1, first_node=1,
                                               last_node=3)
    res = _run(cluster, drain_task(manager, "blade2",
                                   policy=FleetPolicy(max_inflight=2),
                                   timeouts=FLEET_TIMEOUTS))
    assert res.status == "ok" and res.kind == "drain"
    drained = cluster.node_by_name("blade2")
    assert not drained.kernel.pods
    # every drained pod runs elsewhere, never on the drained node
    for out in res.pods.values():
        assert out.dest is not None and out.dest != "blade2"
        host = cluster.node_by_name(out.dest)
        assert out.pod in host.kernel.pods
        assert not host.kernel.pods[out.pod].suspended
    # the node claim was released at campaign end
    assert manager.node_claim_holder("blade2") is None
    lc = OpLedger(cluster.san).replay(CAMPAIGNS)[res.cid]
    assert lc.terminal and lc.kind == "drain"


def test_drain_lands_least_loaded_first():
    cluster, manager, _pods = build_fleet_world(8, 12, seed=2, first_node=1,
                                                last_node=2)
    # blades 3..7 and 0 are empty; 6 migrations must spread over them
    res = _run(cluster, drain_task(manager, "blade1",
                                   policy=FleetPolicy(max_inflight=6),
                                   timeouts=FLEET_TIMEOUTS))
    assert res.status == "ok"
    landed = {}
    for out in res.pods.values():
        landed[out.dest] = landed.get(out.dest, 0) + 1
    # 6 pods over 6 empty blades (0, 3..7): at most one each until the
    # loaded blade2 would be cheaper
    assert max(landed.values()) == 1
    assert "blade2" not in landed      # blade2 still holds its own 6 pods


def test_evacuate_never_lands_on_evacuating_set():
    cluster, manager, _pods = build_fleet_world(8, 20, seed=3, first_node=1,
                                                last_node=4)
    evac = ["blade1", "blade2", "blade3"]
    res = _run(cluster, evacuate_task(manager, evac,
                                      policy=FleetPolicy(max_inflight=4),
                                      timeouts=FLEET_TIMEOUTS))
    assert res.status == "ok" and res.kind == "evacuate"
    for name in evac:
        assert not cluster.node_by_name(name).kernel.pods
        assert manager.node_claim_holder(name) is None
    for out in res.pods.values():
        assert out.dest not in evac


def test_evacuation_demo_deterministic_with_faults():
    a = run_evacuation_demo(n_nodes=16, n_pods=48, n_evacuate=12, seed=9,
                            policy=FleetPolicy(max_inflight=6), n_faults=3,
                            trace_spans=True)
    b = run_evacuation_demo(n_nodes=16, n_pods=48, n_evacuate=12, seed=9,
                            policy=FleetPolicy(max_inflight=6), n_faults=3,
                            trace_spans=True)
    assert a["result"].status == b["result"].status == "ok"
    assert a["injector"].trace == b["injector"].trace
    assert a["injector"].fired == b["injector"].fired
    from repro.obs import to_jsonl
    assert to_jsonl(a["tracer"]) == to_jsonl(b["tracer"])
    assert a["result"].events == b["result"].events
    assert [w.t_end for w in a["result"].waves] == \
           [w.t_end for w in b["result"].waves]


def test_hundred_node_thousand_pod_evacuation():
    """The acceptance scenario: 100 blades, 1000 pods, 75 blades
    evacuated under seeded soft fault injection."""
    out = run_evacuation_demo(n_nodes=100, n_pods=1000, n_evacuate=75,
                              seed=13, policy=FleetPolicy(max_inflight=16),
                              n_faults=4)
    res = out["result"]
    assert res.status == "ok"
    assert res.counts() == {"ok": 1000, "failed": 0, "skipped": 0}
    assert res.peak_inflight <= 16
    # faults really fired mid-campaign (soft kinds only)
    assert out["injector"].fired
    assert all(kind in ("hang", "link_delay")
               for (_t, kind, _ph, _n, _p) in out["injector"].fired)
    # every evacuated blade is empty; every pod landed off the set
    cluster = out["cluster"]
    evac = set(out["evacuated"])
    for name in evac:
        assert not cluster.node_by_name(name).kernel.pods
    survivors = [n for n in cluster.nodes if n.name not in evac]
    assert sum(len(n.kernel.pods) for n in survivors) == 1000
    # landing is load-balanced: 1000 pods over 25 spare blades
    counts = sorted(len(n.kernel.pods) for n in survivors)
    assert counts[-1] - counts[0] <= 1
    # bounded per-pod downtime: the distribution is tight and small
    assert 0.0 < res.downtime_percentile(50) <= res.downtime_percentile(99)
    assert res.downtime_percentile(99) < 1.0
    # the whole campaign journaled to a terminal commit
    lc = OpLedger(cluster.san).replay(CAMPAIGNS)[res.cid]
    assert lc.terminal and lc.phase == "commit"
    assert len(lc.done_pods) == 1000


def test_fleet_phase_crossings_emitted():
    out = run_evacuation_demo(n_nodes=8, n_pods=12, n_evacuate=4, seed=5,
                              policy=FleetPolicy(max_inflight=4), n_faults=1)
    phases = {ev[1] for ev in out["injector"].trace}
    # the trace records every crossing (agent/manager phases included);
    # all four in-campaign fleet crossings must be among them
    assert {"fleet.wave_start", "fleet.pod_start", "fleet.pod_done",
            "fleet.wave_done"} <= phases
    # the seeded plan itself only draws fleet-phase specs
    assert all(spec.phase in FLEET_PHASES
               for spec in out["injector"].plan.faults)
