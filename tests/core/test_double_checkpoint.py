"""The second-checkpoint-before-drain case.

Section 5: "Clearly, the checkpoint procedure must save the state of the
alternate queue, if applicable (e.g. if a second checkpoint is taken
before the application reads its pending data)."  After a restart, the
restored data sits in an alternate receive queue; a second checkpoint
taken before the application consumes it must capture that queue, and a
restart from the *second* image must still deliver every byte exactly
once, in order.
"""


from repro.cluster import Cluster
from repro.core import Manager
from repro.vos import build_program, imm, program


@program("dblckpt.receiver")
def _receiver(b, *, port, expect, naps):
    """Accept, then alternate long naps with reads — checkpoints land in
    the naps, while data waits in the (alternate) receive queue."""
    b.syscall("lfd", "socket", imm("tcp"))
    b.syscall(None, "bind", "lfd", imm(("default", port)))
    b.syscall(None, "listen", "lfd", imm(4))
    b.syscall("conn", "accept", "lfd")
    b.op("cfd", lambda c: c[0], "conn")
    b.mov("got", imm(b""))
    for nap in naps:
        b.syscall(None, "sleep", imm(nap))
        b.op("more", lambda g, e=expect: len(g) < e, "got")
        with b.while_("more"):
            b.syscall("m", "recv", "cfd", imm(64), imm(0))
            b.op("got", lambda g, m: g + m, "got", "m")
            b.op("more", lambda g, m, e=expect: len(m) == 64 and len(g) < e, "got", "m")
    b.halt(imm(0))


@program("dblckpt.sender")
def _sender(b, *, peer, port, chunks):
    b.syscall("fd", "socket", imm("tcp"))
    b.syscall("rc", "connect", "fd", imm((peer, port)))
    for i, chunk in enumerate(chunks):
        b.syscall(None, "send", "fd", imm(chunk), imm(0))
        b.syscall(None, "sleep", imm(0.4))
    b.syscall(None, "sleep", imm(60.0))
    b.halt(imm(0))


def test_second_checkpoint_captures_the_alternate_queue():
    cluster = Cluster.build(4, seed=141)
    manager = Manager.deploy(cluster)
    chunks = [b"<one>", b"<two>", b"<three>", b"<four>"]
    expect = sum(len(c) for c in chunks)
    p_rx = cluster.create_pod(cluster.node(0), "dq-rx")
    cluster.create_pod(cluster.node(1), "dq-tx")
    cluster.node(0).kernel.spawn(
        build_program("dblckpt.receiver", port=9700, expect=expect,
                      naps=(2.0, 3.0)), pod_id="dq-rx")
    cluster.node(1).kernel.spawn(
        build_program("dblckpt.sender", peer=p_rx.vip, port=9700,
                      chunks=chunks), pod_id="dq-tx")
    holder = {}
    targets = [("blade0", "dq-rx", "mem"), ("blade1", "dq-tx", "mem")]

    # checkpoint #1 at t=1.0: some chunks queued, receiver napping.
    # The snapshot resume installs an alternate receive queue.
    cluster.engine.schedule(1.0, lambda: holder.update(
        c1=manager.checkpoint(targets)))
    # checkpoint #2 at t=1.6: still inside the first nap — the alternate
    # queue from #1 has not been consumed yet and must be captured.
    cluster.engine.schedule(1.6, lambda: holder.update(
        c2=manager.checkpoint(targets)))

    # destroy right after #2 and restart from the SECOND image
    def crash_and_restart():
        if not holder["c2"].finished.done or not holder["c2"].finished.result.ok:
            return
        cluster.find_pod("dq-rx").destroy()
        cluster.find_pod("dq-tx").destroy()
        holder["r"] = manager.restart(targets)

    cluster.engine.schedule(1.9, crash_and_restart)
    cluster.engine.run(until=300.0)

    assert holder["c1"].finished.result.ok
    c2 = holder["c2"].finished.result
    assert c2.ok
    # the second image really carried receive-side data
    image = manager.agents["blade0"].mem_sink.load("dq-rx")[-1]
    recs = [r for r in image.unpack()["sockets"]
            if r["proto"] == "tcp" and not r["listening"]]
    assert any(r["recv_data"] for r in recs), \
        "second checkpoint should capture the (alternate) receive queue"
    assert holder["r"].finished.result.ok

    receiver = next(p for n in cluster.nodes for p in n.kernel.procs.values()
                    if p.program.name == "dblckpt.receiver" and p.exit_code == 0)
    # every byte exactly once, in order, across two checkpoints + restart
    assert receiver.regs["got"] == b"".join(chunks)


def test_three_generations_of_checkpoints():
    """Checkpoint → restart → checkpoint → restart → verify: images of
    restored pods are themselves restorable."""
    cluster = Cluster.build(2, seed=142)
    manager = Manager.deploy(cluster)
    chunks = [b"alpha|", b"beta|", b"gamma|"]
    expect = sum(len(c) for c in chunks)
    p_rx = cluster.create_pod(cluster.node(0), "dq-rx")
    cluster.create_pod(cluster.node(1), "dq-tx")
    cluster.node(0).kernel.spawn(
        build_program("dblckpt.receiver", port=9701, expect=expect,
                      naps=(2.0, 2.0)), pod_id="dq-rx")
    cluster.node(1).kernel.spawn(
        build_program("dblckpt.sender", peer=p_rx.vip, port=9701,
                      chunks=chunks), pod_id="dq-tx")
    targets = [("blade0", "dq-rx", "mem"), ("blade1", "dq-tx", "mem")]
    holder = {}

    def cycle(tag, destroy_first):
        def run():
            if destroy_first:
                cluster.find_pod("dq-rx").destroy()
                cluster.find_pod("dq-tx").destroy()
                holder[tag] = manager.restart(targets)
            else:
                holder[tag] = manager.checkpoint(targets)
        return run

    cluster.engine.schedule(1.0, cycle("c1", False))
    cluster.engine.schedule(1.5, cycle("r1", True))
    cluster.engine.schedule(2.5, cycle("c2", False))
    cluster.engine.schedule(3.0, cycle("r2", True))
    cluster.engine.run(until=300.0)
    for tag in ("c1", "r1", "c2", "r2"):
        assert holder[tag].finished.result.ok, (tag, holder[tag].finished.result.errors)
    receiver = next(p for n in cluster.nodes for p in n.kernel.procs.values()
                    if p.program.name == "dblckpt.receiver" and p.exit_code == 0)
    assert receiver.regs["got"] == b"".join(chunks)
