"""Distributed test applications for checkpoint-restart integration tests.

The ping-pong pair exchanges strictly alternating 8-byte sequenced
messages with rolling checksums on both sides, so the *combined final
state is a deterministic function of the round count* — regardless of
timing, checkpoints, restarts or migrations in between.  Any divergence
(lost, duplicated, reordered or corrupted bytes) shows up as a checksum
mismatch.
"""

from __future__ import annotations

from repro.vos import imm, program

MOD = (1 << 61) - 1


def roll(acc: int, msg: bytes) -> int:
    """Rolling checksum step (module-level so programs can reference it)."""
    return (acc * 31 + int.from_bytes(msg, "big")) % MOD


def _reply_of(msg: bytes) -> bytes:
    return (int.from_bytes(msg, "big") + 1).to_bytes(8, "big")


def _i2msg(i: int) -> bytes:
    return i.to_bytes(8, "big")


def expected_sums(rounds: int) -> tuple:
    """(client checksum, server checksum) for a correct run."""
    csum = ssum = 0
    for i in range(rounds):
        msg = _i2msg(i)
        ssum = roll(ssum, msg)
        reply = _reply_of(msg)
        csum = roll(csum, reply)
    return csum, ssum


@program("testapp.pp-server")
def _pp_server(b, *, port, rounds, compute=200_000, ballast=0, dirty_rate=0):
    if dirty_rate:
        b.set_dirty_rate(dirty_rate)
    if ballast:
        b.alloc(imm(ballast), "heap")
    b.syscall("lfd", "socket", imm("tcp"))
    b.syscall(None, "bind", "lfd", imm(("default", port)))
    b.syscall(None, "listen", "lfd", imm(8))
    b.syscall("conn", "accept", "lfd")
    b.op("cfd", lambda c: c[0], "conn")
    b.mov("sum", imm(0))
    with b.for_range("i", imm(0), imm(rounds)):
        b.syscall("m", "recv", "cfd", imm(8), imm(0))
        b.op("sum", roll, "sum", "m")
        b.compute(imm(compute))
        b.op("reply", _reply_of, "m")
        b.syscall(None, "send", "cfd", "reply", imm(0))
    b.syscall(None, "close", "cfd")
    b.halt(imm(0))


@program("testapp.pp-client")
def _pp_client(b, *, server, port, rounds, compute=200_000, ballast=0, dirty_rate=0):
    if dirty_rate:
        b.set_dirty_rate(dirty_rate)
    if ballast:
        b.alloc(imm(ballast), "heap")
    b.syscall("fd", "socket", imm("tcp"))
    b.syscall("rc", "connect", "fd", imm((server, port)))
    b.mov("sum", imm(0))
    with b.for_range("i", imm(0), imm(rounds)):
        b.op("msg", _i2msg, "i")
        b.syscall(None, "send", "fd", "msg", imm(0))
        b.syscall("r", "recv", "fd", imm(8), imm(0))
        b.op("sum", roll, "sum", "r")
        b.compute(imm(compute))
    b.syscall(None, "close", "fd")
    b.halt(imm(0))


def launch_pingpong(cluster, *, rounds=1500, port=9100, compute=200_000,
                    ballast=0, dirty_rate=0, server_node=0, client_node=1,
                    server_pod="pp-srv", client_pod="pp-cli"):
    """Start the pair in two pods; returns (server proc, client proc).

    ``dirty_rate`` (bytes rewritten per CPU-second) turns the pair into a
    writing workload for live-migration tests; it is passed through only
    when nonzero so existing checkpoint images keep their exact params.
    """
    from repro.vos import build_program

    extra = {"dirty_rate": dirty_rate} if dirty_rate else {}
    n_srv = cluster.node(server_node)
    n_cli = cluster.node(client_node)
    pod_srv = cluster.create_pod(n_srv, server_pod)
    pod_cli = cluster.create_pod(n_cli, client_pod)
    srv = n_srv.kernel.spawn(
        build_program("testapp.pp-server", port=port, rounds=rounds,
                      compute=compute, ballast=ballast, **extra),
        pod_id=server_pod)
    cli = n_cli.kernel.spawn(
        build_program("testapp.pp-client", server=pod_srv.vip, port=port,
                      rounds=rounds, compute=compute, ballast=ballast, **extra),
        pod_id=client_pod)
    return srv, cli


def final_sums(cluster, server_prog="testapp.pp-server", client_prog="testapp.pp-client"):
    """Collect (client sum, server sum) from wherever the processes ended
    up (post-migration they live on different nodes with new pids)."""
    csum = ssum = None
    for node in cluster.nodes:
        for proc in node.kernel.procs.values():
            if proc.program.name == client_prog and proc.exit_code == 0:
                csum = proc.regs["sum"]
            elif proc.program.name == server_prog and proc.exit_code == 0:
                ssum = proc.regs["sum"]
    return csum, ssum


def checkpoint_app_once(app="BT/NAS", pods=4, fraction=0.5, seed=0,
                        uri="file:/san/once-{i}.img", **checkpoint_args):
    """Launch ``app`` on ``pods`` pods, checkpoint all of them once at
    ``fraction`` of its run time (pod ``i`` to ``uri.format(i=i)``) and
    stop there.  Returns ``(cluster, tracer, result)``."""
    from repro.core import Manager
    from repro.harness import APPS, build_cluster
    from repro.middleware import checkpoint_targets
    from repro.obs import SpanTracer

    spec = APPS[app]
    cluster = build_cluster(pods, seed=seed)
    manager = Manager.deploy(cluster)
    tracer = SpanTracer(cluster.engine).install(cluster)
    handle = spec.launch_pods(cluster, pods, 1.0)
    done = {}

    def script():
        yield cluster.engine.sleep(fraction * spec.work_seconds(pods, 1.0))
        done["result"] = yield from manager.checkpoint_task(
            [(node, pod_id, uri.format(i=i)) for i, (node, pod_id, _uri)
             in enumerate(checkpoint_targets(handle, cluster))],
            **checkpoint_args)
        cluster.engine.stop()

    cluster.engine.spawn(script(), name="one-checkpoint")
    cluster.engine.run(until=60.0)
    assert done["result"].ok, done["result"].errors
    return cluster, tracer, done["result"]


def migrate_pingpong_with_redirect(rounds=800, seed=42):
    """Migrate both ends of a ping-pong pair while the client's next
    request sits unacknowledged in its send queue (the server has gone
    dark), with the §5 send-queue redirect on: every pod is packed, its
    queue stripped and shipped with the peer's stream, and packed again.
    Returns ``(cluster, tracer)`` after the pair ran to a verified end."""
    from repro.cluster import Cluster
    from repro.core import Manager, migrate
    from repro.obs import SpanTracer

    cluster = Cluster.build(4, seed=seed)
    manager = Manager.deploy(cluster)
    tracer = SpanTracer(cluster.engine).install(cluster)
    launch_pingpong(cluster, rounds=rounds)
    holder = {}

    def go_dark():
        # the server stops acking: the client's next request stays in its
        # send queue, so the migration has queue bytes to redirect
        vip = cluster.find_pod("pp-srv").vip
        cluster.node(0).kernel.netstack.netfilter.block_ip(vip)

    def kick():
        holder["mig"] = migrate(manager, [
            ("blade0", "pp-srv", "blade2"),
            ("blade1", "pp-cli", "blade3"),
        ], redirect=True)

    cluster.engine.schedule(0.15, go_dark)
    cluster.engine.schedule(0.16, kick)
    cluster.engine.run(until=300.0)
    assert holder["mig"].finished.result.ok
    assert final_sums(cluster) == expected_sums(rounds)
    return cluster, tracer
