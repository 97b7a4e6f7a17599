"""Checkpoint-restart of raw IP sockets (the third protocol of §5)."""


from repro.cluster import Cluster
from repro.core import Manager, migrate
from repro.vos import build_program, imm, program

PROTO = 89  # an OSPF-ish protocol number in the port field


@program("testapp.raw-listener")
def _raw_listener(b, *, proto, count):
    b.syscall("fd", "socket", imm("raw"))
    b.syscall(None, "bind", "fd", imm(("default", proto)))
    b.mov("got", imm([]))
    with b.for_range("i", imm(0), imm(count)):
        b.syscall("dg", "recvfrom", "fd", imm(256), imm(0))
        b.op("got", lambda g, dg: g + [bytes(dg[0])], "got", "dg")
    b.halt(imm(0))


@program("testapp.raw-beacon")
def _raw_beacon(b, *, peer, proto, count, period=0.1):
    b.syscall("fd", "socket", imm("raw"))
    b.syscall(None, "bind", "fd", imm(("default", proto)))
    with b.for_range("i", imm(0), imm(count)):
        b.op("msg", lambda i: b"beacon-%03d" % i, "i")
        b.syscall(None, "sendto", "fd", "msg", imm((peer, proto)))
        b.syscall(None, "sleep", imm(period))
    b.halt(imm(0))


def test_raw_ip_sockets_survive_migration():
    """A raw-IP beacon stream: queued raw datagrams at checkpoint are
    restored; in-flight ones are legitimately lost (unreliable)."""
    cluster = Cluster.build(4, seed=71)
    manager = Manager.deploy(cluster)
    p_rx = cluster.create_pod(cluster.node(0), "raw-rx")
    cluster.create_pod(cluster.node(1), "raw-tx")
    count = 12
    rx = cluster.node(0).kernel.spawn(
        build_program("testapp.raw-listener", proto=PROTO, count=count),
        pod_id="raw-rx")
    cluster.node(1).kernel.spawn(
        build_program("testapp.raw-beacon", peer=p_rx.vip, proto=PROTO,
                      count=count), pod_id="raw-tx")
    holder = {}

    def kick():
        holder["m"] = migrate(manager, [
            ("blade0", "raw-rx", "blade2"),
            ("blade1", "raw-tx", "blade3"),
        ])

    cluster.engine.schedule(0.55, kick)  # mid-beacon-stream
    cluster.engine.run(until=120.0)
    assert holder["m"].finished.result.ok
    done = [p for n in cluster.nodes for p in n.kernel.procs.values()
            if p.program.name == "testapp.raw-listener" and p.exit_code == 0]
    assert done, "listener did not complete after migration"
    got = done[0].regs["got"]
    # every beacon arrives in order; at most one may be lost in flight
    # during the freeze (unreliable protocol, the paper's expectation) —
    # but then the listener would still be waiting, so completion means
    # the queued ones were restored and the stream continued
    assert len(got) == count
    indices = [int(m.split(b"-")[1]) for m in got]
    assert indices == sorted(indices)


def test_raw_socket_queue_captured_in_image():
    cluster = Cluster.build(2, seed=72)
    manager = Manager.deploy(cluster)
    p_rx = cluster.create_pod(cluster.node(0), "raw-rx")
    cluster.create_pod(cluster.node(1), "raw-tx")

    @program("testapp.raw-sleepy")
    def _sleepy(b, *, proto):
        b.syscall("fd", "socket", imm("raw"))
        b.syscall(None, "bind", "fd", imm(("default", proto)))
        b.syscall(None, "sleep", imm(5.0))  # datagrams pile up
        b.syscall("dg", "recvfrom", "fd", imm(256), imm(0))
        b.halt(imm(0))

    cluster.node(0).kernel.spawn(
        build_program("testapp.raw-sleepy", proto=PROTO), pod_id="raw-rx")
    cluster.node(1).kernel.spawn(
        build_program("testapp.raw-beacon", peer=p_rx.vip, proto=PROTO,
                      count=3, period=0.05), pod_id="raw-tx")
    holder = {}
    cluster.engine.schedule(1.0, lambda: holder.update(c=manager.checkpoint(
        [("blade0", "raw-rx", "mem"), ("blade1", "raw-tx", "mem")])))
    cluster.engine.run(until=60.0)
    result = holder["c"].finished.result
    assert result.ok
    # the image holds the three queued raw datagrams
    image = manager.agents["blade0"].mem_sink.load("raw-rx")[-1]
    payload = image.unpack()
    raw_recs = [r for r in payload["sockets"] if r["proto"] == "raw"]
    assert len(raw_recs) == 1
    assert len(raw_recs[0]["datagrams"]) == 3
    assert result.pods["raw-rx"]["netstate_bytes"] > 0
