"""Robustness: checkpoint-restart under degraded conditions."""


from repro.cluster import Cluster
from repro.core import Manager, migrate
from repro.vos import DEAD

from ..core.testapps import expected_sums, final_sums, launch_pingpong

ROUNDS = 400


def test_migration_over_lossy_fabric():
    """20% packet loss during checkpoint streaming, reconnection and
    queue re-send: reliability must come from the protocols, and the
    answers must still be exact."""
    cluster = Cluster.build(4, seed=91)
    cluster.fabric.loss_rate = 0.2
    manager = Manager.deploy(cluster)
    srv, cli = launch_pingpong(cluster, rounds=ROUNDS)
    holder = {}

    def kick():
        holder["mig"] = migrate(manager, [
            ("blade0", "pp-srv", "blade2"),
            ("blade1", "pp-cli", "blade3"),
        ], deadline=600.0)

    cluster.engine.schedule(0.3, kick)
    cluster.engine.run(until=1200.0)
    mig = holder["mig"].finished.result
    assert mig.ok, (mig.checkpoint.errors, mig.restart.errors)
    assert cluster.fabric.dropped_packets > 0  # loss really happened
    assert final_sums(cluster) == expected_sums(ROUNDS)


def test_checkpoint_during_network_congestion():
    """Snapshot while a bulk transfer saturates the fabric between the
    same blades: the checkpoint's own control traffic competes but the
    operation still completes sub-second-ish and correctly."""
    cluster = Cluster.build(4, seed=92)
    manager = Manager.deploy(cluster)
    srv, cli = launch_pingpong(cluster, rounds=ROUNDS)

    # background bulk noise between blades 2 and 3
    from repro.probes import launch_queue_pair
    launch_queue_pair(cluster, chunks=200, chunk_bytes=8192,
                      rx_node=2, tx_node=3, name="noise", port=9999)

    holder = {}
    cluster.engine.schedule(0.3, lambda: holder.update(c=manager.checkpoint(
        [("blade0", "pp-srv", "mem"), ("blade1", "pp-cli", "mem")])))
    cluster.engine.run(until=600.0)
    result = holder["c"].finished.result
    assert result.ok
    assert result.duration < 2.0
    assert final_sums(cluster) == expected_sums(ROUNDS)


def test_back_to_back_migrations():
    """Migrate A→B then B→A while running; state survives both hops."""
    cluster = Cluster.build(4, seed=93)
    manager = Manager.deploy(cluster)
    srv, cli = launch_pingpong(cluster, rounds=ROUNDS)
    holder = {}

    def hop1():
        holder["m1"] = migrate(manager, [
            ("blade0", "pp-srv", "blade2"),
            ("blade1", "pp-cli", "blade3"),
        ])

    def hop2():
        if not holder["m1"].finished.done or not holder["m1"].finished.result.ok:
            return
        holder["m2"] = migrate(manager, [
            ("blade2", "pp-srv", "blade0"),
            ("blade3", "pp-cli", "blade1"),
        ])

    cluster.engine.schedule(0.2, hop1)
    cluster.engine.schedule(1.5, hop2)
    cluster.engine.run(until=600.0)
    assert holder["m1"].finished.result.ok
    assert holder["m2"].finished.result.ok
    assert "pp-srv" in cluster.node(0).kernel.pods
    assert final_sums(cluster) == expected_sums(ROUNDS)


def test_concurrent_checkpoints_of_disjoint_applications():
    """Two independent applications checkpointed at the same instant by
    the same Manager: operations must not interfere."""
    cluster = Cluster.build(4, seed=94)
    manager = Manager.deploy(cluster)
    s1, c1 = launch_pingpong(cluster, rounds=ROUNDS, port=9100,
                             server_node=0, client_node=1,
                             server_pod="app1-srv", client_pod="app1-cli")
    s2, c2 = launch_pingpong(cluster, rounds=ROUNDS, port=9101,
                             server_node=2, client_node=3,
                             server_pod="app2-srv", client_pod="app2-cli")
    holder = {}

    def kick():
        holder["a"] = manager.checkpoint(
            [("blade0", "app1-srv", "mem"), ("blade1", "app1-cli", "mem")])
        holder["b"] = manager.checkpoint(
            [("blade2", "app2-srv", "mem"), ("blade3", "app2-cli", "mem")])

    cluster.engine.schedule(0.25, kick)
    cluster.engine.run(until=600.0)
    assert holder["a"].finished.result.ok
    assert holder["b"].finished.result.ok
    for proc in (s1, c1, s2, c2):
        assert proc.state == DEAD and proc.exit_code == 0
    # both apps still correct
    sums1 = (c1.regs["sum"], s1.regs["sum"])
    sums2 = (c2.regs["sum"], s2.regs["sum"])
    assert sums1 == expected_sums(ROUNDS)
    assert sums2 == expected_sums(ROUNDS)


def test_snapshot_of_quiescent_application():
    """Checkpointing pods whose processes already exited must succeed
    (empty images) rather than wedging the Manager."""
    cluster = Cluster.build(2, seed=95)
    manager = Manager.deploy(cluster)
    srv, cli = launch_pingpong(cluster, rounds=5)
    holder = {}

    def late_kick():
        assert srv.state == DEAD and cli.state == DEAD
        holder["c"] = manager.checkpoint(
            [("blade0", "pp-srv", "mem"), ("blade1", "pp-cli", "mem")])

    cluster.engine.schedule(30.0, late_kick)
    cluster.engine.run(until=120.0)
    result = holder["c"].finished.result
    assert result.ok
    assert result.max_stat("sockets") == 0
