"""Design ablations: each measures one design choice the paper argues for.

* **sync position** — saving network state first overlaps the Manager's
  single synchronization with the standalone capture; the serialized
  variant exposes the sync latency in the checkpoint total.
* **send-queue redirect** — migrating a deep send queue inside the
  peer's checkpoint stream avoids transmitting it twice.
* **peek capture** — the Cruz-style receive-queue peek silently loses
  urgent data that the ZapC read-and-reinject capture preserves.
* **two-thread recovery** — connect/accept in one sequential thread
  deadlocks on a ring topology; ZapC's two threads restore it.
* **time virtualization** — rebasing the virtual clock keeps
  application-level timeout layers from tripping across the gap.
"""


from repro.baselines import deploy_peek_manager
from repro.cluster import Cluster
from repro.core import Manager, migrate
from repro.probes import launch_oob_probe, launch_queue_pair, launch_ring
from repro.vos import DEAD, build_program


# ---------------------------------------------------------------------------
# sync position (§4 ordering argument)
# ---------------------------------------------------------------------------


def _ckpt_duration(order: str) -> float:
    from repro.harness import APPS, build_cluster
    from repro.middleware.daemon import checkpoint_targets

    cluster = build_cluster(4, seed=2)
    manager = Manager.deploy(cluster)
    handle = APPS["PETSc"].launch_pods(cluster, 4, 1.0)
    out = {}

    def orchestrate():
        yield cluster.engine.sleep(0.4)
        result = yield from manager.checkpoint_task(
            checkpoint_targets(handle, cluster), order=order)
        out["result"] = result

    cluster.engine.spawn(orchestrate(), name="abl")
    cluster.engine.run(until=600.0)
    assert out["result"].ok, out["result"].errors
    assert handle.ok(cluster)
    return out["result"].duration


def test_ablation_sync_position(benchmark, report):
    def run():
        return _ckpt_duration("net-first"), _ckpt_duration("standalone-first")

    net_first, standalone_first = benchmark.pedantic(run, rounds=1, iterations=1)
    report("ablations", ("sync-position", "net-first", "checkpoint [ms]",
                         f"{net_first * 1000:.1f}"))
    report("ablations", ("sync-position", "standalone-first", "checkpoint [ms]",
                         f"{standalone_first * 1000:.1f}"))
    # overlapping the sync with the standalone capture must not be slower
    assert net_first <= standalone_first + 1e-9


# ---------------------------------------------------------------------------
# send-queue redirect (§5 migration optimization)
# ---------------------------------------------------------------------------


def _migrate_queues(redirect: bool):
    cluster = Cluster.build(4, seed=2)
    manager = Manager.deploy(cluster)
    launch_queue_pair(cluster, chunks=120, chunk_bytes=4096)
    holder = {}

    def kick():
        holder["mig"] = migrate(manager, [
            ("blade0", "q-rx", "blade2"),
            ("blade1", "q-tx", "blade3"),
        ], redirect=redirect)

    cluster.engine.schedule(0.05, kick)
    cluster.engine.run(until=600.0)
    mig = holder["mig"].finished.result
    assert mig.ok
    # everything delivered correctly?
    done = [p for n in cluster.nodes for p in n.kernel.procs.values()
            if p.program.name == "scenario.queue-receiver" and p.exit_code == 0]
    assert done, "receiver did not finish"
    tx_bytes = sum(n.stack.nic.tx_bytes for n in cluster.nodes)
    return mig, tx_bytes


def test_ablation_send_queue_redirect(benchmark, report):
    def run():
        return _migrate_queues(False), _migrate_queues(True)

    (plain, plain_bytes), (redir, redir_bytes) = benchmark.pedantic(
        run, rounds=1, iterations=1)
    report("ablations", ("send-queue-redirect", "re-send", "fabric bytes",
                         f"{plain_bytes}"))
    report("ablations", ("send-queue-redirect", "redirect", "fabric bytes",
                         f"{redir_bytes}"))
    # merging the send queue into the peer's stream saves a transfer
    assert redir_bytes < plain_bytes


# ---------------------------------------------------------------------------
# peek vs read-and-reinject capture (§2/§5 Cruz comparison)
# ---------------------------------------------------------------------------


def _oob_outcome(use_peek: bool) -> bool:
    cluster = Cluster.build(4, seed=11)
    manager = deploy_peek_manager(cluster) if use_peek else Manager.deploy(cluster)
    launch_oob_probe(cluster)
    holder = {}

    def kick():
        holder["mig"] = migrate(manager, [
            ("blade0", "oob-rx", "blade2"),
            ("blade1", "oob-tx", "blade3"),
        ])

    cluster.engine.schedule(1.0, kick)
    cluster.engine.run(until=300.0)
    assert holder["mig"].finished.result.ok
    for node in cluster.nodes:
        for proc in node.kernel.procs.values():
            if proc.program.name == "scenario.oob-receiver" and proc.exit_code == 0 \
                    and "urgent" in proc.regs:
                return proc.regs["urgent"] == b"!"
    raise AssertionError("no restored receiver found")


def test_ablation_peek_loses_urgent_data(benchmark, report):
    def run():
        return _oob_outcome(False), _oob_outcome(True)

    zapc_ok, peek_ok = benchmark.pedantic(run, rounds=1, iterations=1)
    report("ablations", ("capture-method", "zapc read+reinject", "urgent data intact", zapc_ok))
    report("ablations", ("capture-method", "cruz peek", "urgent data intact", peek_ok))
    assert zapc_ok and not peek_ok


# ---------------------------------------------------------------------------
# two-thread connectivity recovery (§4 deadlock argument)
# ---------------------------------------------------------------------------


def _ring_recovery(mode: str):
    K = 4
    cluster = Cluster.build(2 * K, seed=5)
    manager = Manager.deploy(cluster)
    launch_ring(cluster, K, laps=40)
    holder = {}

    def kick():
        holder["mig"] = migrate(
            manager,
            [(f"blade{i}", f"ring{i}", f"blade{K + i}") for i in range(K)],
            recovery_mode=mode, deadline=10.0)

    cluster.engine.schedule(0.05, kick)
    cluster.engine.run(until=300.0)
    return holder["mig"].finished.result


def test_ablation_two_thread_recovery(benchmark, report):
    def run():
        return _ring_recovery("two-thread"), _ring_recovery("sequential")

    two_thread, sequential = benchmark.pedantic(run, rounds=1, iterations=1)
    report("ablations", ("connectivity-recovery", "two-thread", "ring restart",
                         two_thread.restart.status))
    report("ablations", ("connectivity-recovery", "sequential", "ring restart",
                         sequential.restart.status))
    assert two_thread.ok
    assert sequential.restart.status == "timeout"  # the deadlock


# ---------------------------------------------------------------------------
# time virtualization (§5)
# ---------------------------------------------------------------------------


def _heartbeat_expired(virtualized: bool) -> bool:
    cluster = Cluster.build(2, seed=3)
    manager = Manager.deploy(cluster)
    cluster.create_pod(cluster.node(0), "hb")
    cluster.node(0).kernel.spawn(
        build_program("scenario.heartbeat", threshold=5.0), pod_id="hb")
    holder = {}
    cluster.engine.schedule(0.5, lambda: holder.update(
        c=manager.checkpoint([("blade0", "hb", "mem")])))
    cluster.engine.schedule(0.8, lambda: cluster.find_pod("hb").destroy())
    cluster.engine.schedule(10.5, lambda: holder.update(
        r=manager.restart([("blade0", "hb", "mem")],
                          time_virtualization=virtualized)))
    cluster.engine.run(until=120.0)
    assert holder["r"].finished.result.ok
    for node in cluster.nodes:
        for proc in node.kernel.procs.values():
            if proc.program.name == "scenario.heartbeat" and proc.state == DEAD \
                    and proc.exit_code == 0:
                return bool(proc.regs["expired"])
    raise AssertionError("heartbeat app never completed")


def test_ablation_time_virtualization(benchmark, report):
    def run():
        return _heartbeat_expired(True), _heartbeat_expired(False)

    with_virt, without = benchmark.pedantic(run, rounds=1, iterations=1)
    report("ablations", ("time-virtualization", "on", "timeout tripped", with_virt))
    report("ablations", ("time-virtualization", "off", "timeout tripped", without))
    assert not with_virt and without
