"""Probe programs: small distributed workloads exercising specific
checkpoint-restart mechanisms.

These complement the full applications in :mod:`repro.apps`: each
probe puts one mechanism under stress — urgent/OOB data in flight,
application-level timeouts, ring topologies, deep socket queues — and is
used by both the test suite and the ablation benchmarks.  The programs
keep their registered ``scenario.*`` names: images carry them.
"""

from __future__ import annotations

from typing import List

from .cluster.builder import Cluster
from .net.sockets import MSG_OOB
from .vos.process import Process
from .vos.program import build_program, imm, program

# ---------------------------------------------------------------------------
# urgent-data probe: exercises OOB capture (what peek-based capture loses)
# ---------------------------------------------------------------------------


@program("scenario.oob-receiver")
def _oob_receiver(b, *, port, pause=2.0):
    """Accept, read some data, pause (checkpoint window), then read the
    urgent byte and the rest of the stream."""
    b.syscall("lfd", "socket", imm("tcp"))
    b.syscall(None, "bind", "lfd", imm(("default", port)))
    b.syscall(None, "listen", "lfd", imm(4))
    b.syscall("conn", "accept", "lfd")
    b.op("cfd", lambda c: c[0], "conn")
    b.syscall("first", "recv", "cfd", imm(16), imm(0))
    b.syscall(None, "sleep", imm(pause))
    b.syscall("urgent", "recv", "cfd", imm(16), imm(MSG_OOB))
    b.syscall("rest", "recv", "cfd", imm(16), imm(0))
    b.halt(imm(0))


@program("scenario.oob-sender")
def _oob_sender(b, *, peer, port, linger=60.0):
    """Connect, send normal + urgent + normal data, then stay alive."""
    b.syscall("fd", "socket", imm("tcp"))
    b.syscall("rc", "connect", "fd", imm((peer, port)))
    b.syscall(None, "send", "fd", imm(b"normal-one"), imm(0))
    b.syscall(None, "send", "fd", imm(b"!"), imm(MSG_OOB))
    b.syscall(None, "send", "fd", imm(b"normal-two"), imm(0))
    b.syscall(None, "sleep", imm(linger))
    b.halt(imm(0))


def launch_oob_probe(cluster: Cluster, *, rx_node: int = 0, tx_node: int = 1,
                     port: int = 9300, name: str = "oob") -> List[Process]:
    """Start the urgent-data pair in two pods; returns [receiver, sender]."""
    p_rx = cluster.create_pod(cluster.node(rx_node), f"{name}-rx")
    cluster.create_pod(cluster.node(tx_node), f"{name}-tx")
    rx = cluster.node(rx_node).kernel.spawn(
        build_program("scenario.oob-receiver", port=port), pod_id=f"{name}-rx")
    tx = cluster.node(tx_node).kernel.spawn(
        build_program("scenario.oob-sender", peer=p_rx.vip, port=port),
        pod_id=f"{name}-tx")
    return [rx, tx]


# ---------------------------------------------------------------------------
# application-level timeout layer: exercises time virtualization
# ---------------------------------------------------------------------------


@program("scenario.heartbeat")
def _heartbeat(b, *, threshold, work=3.0):
    """Stamp the clock, work, then check staleness — the timeout pattern
    that misfires across a checkpoint→restart gap without virtualization."""
    b.syscall("stamp", "gettime")
    b.syscall(None, "sleep", imm(work))
    b.syscall("now", "gettime")
    b.op("elapsed", lambda now, stamp: now - stamp, "now", "stamp")
    b.op("expired", lambda e, t=threshold: e > t, "elapsed")
    b.halt(imm(0))


@program("scenario.timer-user")
def _timer_user(b, *, delay):
    """Arm an OS timer, nap, then wait for it (timer re-arming probe)."""
    b.syscall("tid", "settimer", imm(delay))
    b.syscall(None, "sleep", imm(1.0))
    b.syscall("fired", "waittimer", "tid")
    b.syscall("t", "gettime")
    b.halt(imm(0))


# ---------------------------------------------------------------------------
# token ring: exercises the two-thread connectivity recovery
# ---------------------------------------------------------------------------


@program("scenario.ring-node")
def _ring_node(b, *, my_port, next_vip, next_port, laps, starter, compute=2_000_000):
    """Accept from the previous node, connect to the next, pass a token.

    Each node performs exactly ``laps`` receptions; every reception is
    forwarded except the starter's last, which retires the token — so
    the ring drains cleanly with no EOF cascade.
    """
    b.syscall("lfd", "socket", imm("tcp"))
    b.syscall(None, "bind", "lfd", imm(("default", my_port)))
    b.syscall(None, "listen", "lfd", imm(4))
    b.syscall("ofd", "socket", imm("tcp"))
    b.syscall("rc", "connect", "ofd", imm((next_vip, next_port)))
    b.syscall("conn", "accept", "lfd")
    b.op("ifd", lambda c: c[0], "conn")
    if starter:
        b.syscall(None, "send", "ofd", imm((0).to_bytes(8, "big")), imm(0))
    with b.for_range("t", imm(0), imm(laps)):
        b.syscall("tok", "recv", "ifd", imm(8), imm(0))
        b.compute(imm(compute))
        b.op("out", lambda tok: (int.from_bytes(tok, "big") + 1).to_bytes(8, "big"), "tok")
        if starter:
            b.op("fwd", lambda t, n=laps: t < n - 1, "t")
            with b.if_("fwd"):
                b.syscall(None, "send", "ofd", "out", imm(0))
        else:
            b.syscall(None, "send", "ofd", "out", imm(0))
    b.mov("tokens", imm(laps))
    if starter:
        b.op("final", lambda tok: int.from_bytes(tok, "big"), "tok")
    b.halt(imm(0))


def launch_ring(cluster: Cluster, k: int, *, laps: int = 40, base_port: int = 9500,
                compute: int = 2_000_000, name: str = "ring") -> List[Process]:
    """Start a K-pod token ring on nodes 0..k-1; returns the processes."""
    pods = [cluster.create_pod(cluster.node(i), f"{name}{i}") for i in range(k)]
    procs = []
    for i in range(k):
        nxt = pods[(i + 1) % k]
        prog = build_program(
            "scenario.ring-node",
            my_port=base_port + i,
            next_vip=nxt.vip,
            next_port=base_port + (i + 1) % k,
            laps=laps,
            starter=(i == 0),
            compute=compute,
        )
        procs.append(cluster.node(i).kernel.spawn(prog, pod_id=f"{name}{i}"))
    return procs


# ---------------------------------------------------------------------------
# deep queues: exercises send-queue capture and the redirect optimization
# ---------------------------------------------------------------------------


@program("scenario.queue-sender")
def _queue_sender(b, *, peer, port, chunks, chunk_bytes, compute_per_chunk=1_500_000):
    """Stream data at a slower receiver so queues stay deep.

    The sender paces itself (it has work of its own), so at any instant
    mid-run it holds a deep send queue and an open socket — the state the
    send-queue capture and the migration redirect optimization act on.
    """
    b.syscall("fd", "socket", imm("tcp"))
    b.syscall("rc", "connect", "fd", imm((peer, port)))
    with b.for_range("i", imm(0), imm(chunks)):
        b.op("msg", lambda i, n=chunk_bytes: bytes([i % 251]) * n, "i")
        b.syscall(None, "send", "fd", "msg", imm(0))
        b.compute(imm(compute_per_chunk))
    b.syscall(None, "close", "fd")
    b.halt(imm(0))


@program("scenario.queue-receiver")
def _queue_receiver(b, *, port, total_bytes, compute_per_read=3_000_000,
                    rcvbuf=32_768):
    """Read slowly through a small receive window, so the sender's send
    queue (not just the receive queue) backs up."""
    b.syscall("lfd", "socket", imm("tcp"))
    b.syscall(None, "setsockopt", "lfd", imm("SO_RCVBUF"), imm(rcvbuf))
    b.syscall(None, "bind", "lfd", imm(("default", port)))
    b.syscall(None, "listen", "lfd", imm(4))
    b.syscall("conn", "accept", "lfd")
    b.op("cfd", lambda c: c[0], "conn")
    b.mov("got", imm(0))
    b.op("more", lambda g, t=total_bytes: g < t, "got")
    with b.while_("more"):
        b.compute(imm(compute_per_read))
        b.syscall("m", "recv", "cfd", imm(4096), imm(0))
        b.op("got", lambda g, m: g + len(m), "got", "m")
        b.op("more", lambda g, m, t=total_bytes: len(m) > 0 and g < t, "got", "m")
    b.halt(imm(0))


def launch_queue_pair(cluster: Cluster, *, chunks: int = 60, chunk_bytes: int = 4096,
                      port: int = 9200, rx_node: int = 0, tx_node: int = 1,
                      name: str = "q") -> List[Process]:
    """Start the deep-queue pair; returns [receiver, sender]."""
    total = chunks * chunk_bytes
    p_rx = cluster.create_pod(cluster.node(rx_node), f"{name}-rx")
    cluster.create_pod(cluster.node(tx_node), f"{name}-tx")
    rx = cluster.node(rx_node).kernel.spawn(
        build_program("scenario.queue-receiver", port=port, total_bytes=total),
        pod_id=f"{name}-rx")
    tx = cluster.node(tx_node).kernel.spawn(
        build_program("scenario.queue-sender", peer=p_rx.vip, port=port,
                      chunks=chunks, chunk_bytes=chunk_bytes),
        pod_id=f"{name}-tx")
    return [rx, tx]
