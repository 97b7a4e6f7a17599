"""Fleet campaigns across Manager failover, and the recover/drain race.

The campaign ledger family makes a half-finished wave durable: a replica
Manager claims the orphaned campaign and drives only the unfinished
tail.  The per-node op exclusion table makes ``recover()`` and
``drain()`` refuse to race each other over one node's pods.
"""

from repro.cluster.faults import FaultInjector, FaultPlan, FaultSpec, crash_node
from repro.core.manager import Manager
from repro.fleet import (
    FLEET_TIMEOUTS,
    FleetPolicy,
    build_fleet_world,
    drain_task,
    evacuate_campaign,
    resume_campaigns_task,
)
from repro.storage.ledger import CAMPAIGNS, OpLedger

LEASE_S = 3.0


def test_replica_resumes_half_done_wave_without_redriving():
    cluster, manager, pods = build_fleet_world(10, 24, seed=5, first_node=1,
                                               last_node=6)
    engine = cluster.engine
    # kill the Manager at the 10th completed unit: mid-campaign, with
    # whole waves durable behind it and a wave half-done in front
    FaultInjector(cluster, FaultPlan(seed=5, faults=[
        FaultSpec(kind="crash_manager", phase="fleet.pod_done",
                  after=9)])).install()
    policy = FleetPolicy(max_inflight=4, lease_s=LEASE_S)
    evac = [f"blade{i}" for i in range(1, 7)]
    state = {"resumed": [], "actions": None}

    def driver():
        camp = evacuate_campaign(manager, evac, policy=policy,
                                 timeouts=FLEET_TIMEOUTS)
        task = camp.run()
        yield engine.timeout(task.finished, 300.0)
        while not manager.crashed:
            yield engine.sleep(0.25)
        yield engine.sleep(LEASE_S + 1.0)
        replica = Manager.deploy_replica(cluster, manager.agents, name="mgr1")
        # op-level takeover first (resolves the unit orphaned mid-flight),
        # then the campaign-level resume drives the unfinished tail
        yield from replica.takeover_task(timeouts=FLEET_TIMEOUTS,
                                         lease_s=LEASE_S)
        state["actions"] = yield from resume_campaigns_task(
            replica, timeouts=FLEET_TIMEOUTS, lease_s=LEASE_S,
            collect=state["resumed"])

    engine.spawn(driver(), name="drv")
    engine.run(until=600.0)

    assert manager.crashed
    assert state["actions"] is not None and len(state["actions"]) == 1
    (cid, phase_at_claim, status) = state["actions"][0]
    assert status == "ok"
    res = state["resumed"][0]
    assert res.resumed_from == phase_at_claim
    assert res.counts() == {"ok": 24, "failed": 0, "skipped": 0}
    # the units that committed before the crash were not driven again
    resumed_pods = {p for p, o in res.pods.items() if o.resumed}
    adopted_pods = {p for p, o in res.pods.items() if o.adopted}
    driven_pods = {p for p, o in res.pods.items()
                   if not o.resumed and not o.adopted}
    assert len(resumed_pods) >= 10           # at least the pre-crash units
    assert driven_pods                       # and a real unfinished tail
    # this seed crashes the Manager with moves committed at the op level
    # but no durable unit record: the replica adopts them (no re-drive
    # from the stale source, no duplicate migration)
    assert adopted_pods
    for pod_id in adopted_pods:
        out = res.pods[pod_id]
        assert out.status == "ok" and out.op_id > 0
        assert out.downtime == 0.0           # nothing was moved this run
    led = OpLedger(cluster.san)
    recs = [r for r in led.records()
            if r.get("rec") == "campaign" and r.get("phase") == "pod"]
    per_pod = {}
    for r in recs:
        per_pod.setdefault(r["pod"], []).append(r)
    for pod_id in resumed_pods:
        assert len(per_pod[pod_id]) == 1     # exactly one unit record: the
        assert per_pod[pod_id][0]["owner"] == "mgr0"   # original Manager's
    for pod_id in driven_pods | adopted_pods:
        assert per_pod[pod_id][-1]["owner"] == "mgr1"
    for pod_id in adopted_pods:
        assert per_pod[pod_id][-1].get("adopted") is True
    # the resumed outcomes carry the original ops, not re-driven ones
    for pod_id in resumed_pods:
        assert res.pods[pod_id].op_id == per_pod[pod_id][0]["op"]
    # the world is fully evacuated
    for name in evac:
        assert not cluster.node_by_name(name).kernel.pods
    lc = led.replay(CAMPAIGNS)[cid]
    assert lc.terminal and lc.phase == "commit"
    assert len(lc.done_pods) == 24


def _run(cluster, gen, until=600.0):
    state = {}

    def driver():
        state["res"] = yield from gen
    cluster.engine.spawn(driver(), name="drv")
    cluster.engine.run(until=until)
    return state.get("res")


def test_recover_refused_while_campaign_holds_node():
    """Regression: recover() used to race a concurrent drain over the
    same node's pods; now the campaign's node claim makes the recover
    fail fast, destroying nothing."""
    cluster, manager, pods = build_fleet_world(5, 4, seed=6, first_node=1,
                                               last_node=2)
    targets = [(n, p, f"file:/san/reco-{p}.img") for (n, p) in pods[:2]]

    def scenario():
        res = yield from manager.checkpoint_task(targets, deadline=30.0,
                                                 timeouts=FLEET_TIMEOUTS)
        assert res.ok
        crash_node(cluster, cluster.node_by_name("blade1"))
        # a drain campaign holds blade1 (and blade2, the other involved
        # node is fine): recover must refuse, not destroy-and-restart
        assert manager.claim_nodes(["blade1"], "campaign:9")
        refused = yield from manager.recover_task(timeouts=FLEET_TIMEOUTS)
        assert refused.status == "failed"
        assert "node exclusion refused" in refused.errors[0]
        assert "campaign:9" in refused.errors[0]
        # the refusal destroyed nothing: blade2's pod kept running
        blade2 = cluster.node_by_name("blade2")
        assert pods[1][1] in blade2.kernel.pods
        assert not blade2.kernel.pods[pods[1][1]].suspended
        # once the campaign releases the node, recovery goes through
        manager.release_nodes(["blade1"], "campaign:9")
        res2 = yield from manager.recover_task(timeouts=FLEET_TIMEOUTS)
        assert res2.status == "ok"
        return res2

    res2 = _run(cluster, scenario())
    assert res2 is not None and res2.ok
    # the recovered pods run on surviving blades
    hosts = [n.name for n in cluster.nodes
             if not n.crashed and pods[0][1] in n.kernel.pods]
    assert len(hosts) == 1 and hosts[0] != "blade1"
    # and recover released its own claims on the way out
    for name in ("blade1", "blade2"):
        assert manager.node_claim_holder(name) is None


def test_drain_refused_while_recover_holds_node():
    cluster, manager, _pods = build_fleet_world(4, 4, seed=7, first_node=1,
                                                last_node=2)
    assert manager.claim_nodes(["blade2"], "recover:op42")
    res = _run(cluster, drain_task(manager, "blade2",
                                   policy=FleetPolicy(),
                                   timeouts=FLEET_TIMEOUTS))
    assert res.status == "excluded"
    assert "recover:op42" in res.errors[0]
    # the refused campaign moved nothing
    assert len(cluster.node_by_name("blade2").kernel.pods) == 2


def test_node_claims_are_atomic_and_owner_released():
    cluster, manager, _pods = build_fleet_world(4, 2, seed=8, first_node=1,
                                                last_node=2)
    assert manager.claim_nodes(["blade1"], "campaign:1")
    # all-or-nothing: a batch containing a held node claims nothing
    assert not manager.claim_nodes(["blade1", "blade2"], "campaign:2")
    assert manager.node_claim_holder("blade2") is None
    # only the holder releases
    manager.release_nodes(["blade1"], "campaign:2")
    assert manager.node_claim_holder("blade1") == "campaign:1"
    manager.release_nodes(["blade1"], "campaign:1")
    assert manager.node_claim_holder("blade1") is None
    # re-claiming under the same label is idempotent
    assert manager.claim_nodes(["blade1"], "campaign:3")
    assert manager.claim_nodes(["blade1"], "campaign:3")
    # a crash clears the table (the replica rebuilds its own claims)
    manager.crash()
    assert manager.node_claim_holder("blade1") is None


def test_campaign_avoids_foreign_claimed_destinations():
    cluster, manager, _pods = build_fleet_world(5, 4, seed=9, first_node=1,
                                                last_node=1)
    # blade2/blade3/blade4/blade0 are empty spares; a recover owns blade2
    assert manager.claim_nodes(["blade2"], "recover:op7")
    res = _run(cluster, drain_task(manager, "blade1",
                                   policy=FleetPolicy(max_inflight=2),
                                   timeouts=FLEET_TIMEOUTS))
    assert res.status == "ok"
    for out in res.pods.values():
        assert out.dest != "blade2"          # never lands on a claimed node
    assert not cluster.node_by_name("blade2").kernel.pods
