"""Scripts of socket traffic and faults over one TCP connection, and the
runner that plays a script and reports everything observable.

A :class:`Script` is drawn by :func:`draw_script` from any
``random.Random``-shaped source (Hypothesis' ``st.randoms()`` or a seeded
``Random`` for the fixed corpus): socket options (a send buffer small
enough to park writers among them), a loss rate, and five
lanes of timed operations — a writer and a reader per side, which run
their syscalls one after the other so each direction is one ordered
stream, and a control lane that raises and drops netfilter rules (by
address or by endpoint), cuts and heals a partition, delays the link,
takes a NIC's ingress away and gives it back, loses the segments waiting
in a backlog, toggles ``SO_OOBINLINE``, polls, closes, shuts down and
connects to a port nobody listens on (closing that socket before the
refusal comes back, if asked).  A few control operations may also
run while the handshake is still in progress (``opening``), and the two
ends may talk over alias addresses, which the fabric has to scan for.

:func:`play` runs it through real syscalls on two hosts and returns a
:class:`World`; :func:`observed` is what two implementations must agree
on.  ``play`` builds whatever classes are installed when it is called, so
the caller decides the world (``reference_tcp.install`` or not).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.net import Fabric, MSG_OOB, MSG_PEEK
from repro.sim import Engine

from .conftest import Host

NODE_IPS = {"a": "10.0.0.1", "b": "10.0.0.2"}
ALIAS_IPS = {"a": "10.77.0.1", "b": "10.77.0.2"}
PEER = {"a": "b", "b": "a"}
PORT = 5000
#: the fd every lane's channel holds the connected socket under.
FD = 3
#: urgent bytes are all this value and the streams never contain it, so
#: in-band bytes can be told from inlined urgent ones.
OOB_BYTE = 0xFF
_NO_OOB_BYTE = bytes(i % OOB_BYTE for i in range(256))

Op = Tuple[Any, ...]          # (delay, name, *args)


@dataclass(frozen=True)
class Script:
    seed: int
    loss: float
    rcvbuf: Optional[int]      # None: the default
    mss: int
    #: "a.w", "a.r", "b.w", "b.r", "ctl" -> ops, each ``(delay, name, *args)``
    lanes: Dict[str, Tuple[Op, ...]]
    #: control ops that run from t = 0, during the handshake.
    opening: Tuple[Op, ...] = ()
    sndbuf: Optional[int] = None
    #: connect over NIC alias addresses instead of the primary ones.
    alias: bool = False

    def stream(self, side: str) -> bytes:
        """Every in-band byte ``side``'s writer lane will try to send."""
        total = sum(op[2] for op in self.lanes[side + ".w"] if op[1] == "send")
        return random.Random(f"{self.seed}/{side}").randbytes(total).translate(_NO_OOB_BYTE)


_DELAYS = (0.0, 1e-5, 1e-4, 1e-3, 0.02, 0.3)


def draw_script(rnd: Any, max_write: int = 70_000) -> Script:
    """One script from ``rnd`` (anything with ``random.Random``'s methods)."""
    def delay() -> float:
        return rnd.choice(_DELAYS)

    def nbytes() -> int:
        top = rnd.choice((1, 600, 5_000, max_write))
        return rnd.randint(1, top)

    lanes: Dict[str, Tuple[Op, ...]] = {}
    for side in "ab":
        lanes[side + ".w"] = tuple(
            (delay(), "oob", rnd.randint(1, 3)) if rnd.random() < 0.15
            else (delay(), "send", nbytes())
            for _ in range(rnd.randint(0, 3)))
        lanes[side + ".r"] = tuple(
            (delay(), "recv", rnd.choice((1, 100, 4096, 65536, 200_000)),
             rnd.choice((0, 0, 0, 0, MSG_PEEK, MSG_OOB)))
            for _ in range(rnd.randint(0, 6)))
    timed: List[Tuple[float, Op]] = []

    def at(t: float, *op: Any) -> None:
        timed.append((t, op))

    def when() -> float:
        return rnd.choice((0.0, 1e-4, 2e-3, 0.05, 0.4)) * rnd.random()

    for _ in range(rnd.randint(0, 4)):
        kind = rnd.choice(("nf", "nf", "partition", "delay", "nic", "lose", "oobinline",
                           "poll", "nowhere", "end"))
        side = rnd.choice("ab")
        t0 = when()
        if kind == "nf":
            how = rnd.choice(("ip", "endpoint"))
            at(t0, "nf_block", side, how)
            at(t0 + when() + 1e-4, "nf_unblock", side, how)
        elif kind == "partition":
            at(t0, "partition")
            at(t0 + when() + 1e-4, "heal")
        elif kind == "delay":
            at(t0, "delay_link", rnd.choice((1e-4, 5e-3, 0.3)))
            if rnd.random() < 0.5:
                at(t0 + when(), "clear_delay")
        elif kind == "nic":
            at(t0, "nic_down", side)
            at(t0 + when() + 1e-4, "nic_up", side)
        elif kind == "lose":
            at(t0, "lose_backlog", side)
        elif kind == "oobinline":
            at(t0, "oobinline", side, rnd.choice((0, 1)))
        elif kind == "poll":
            at(t0, "poll", side, rnd.choice((0, 0.01, None)))
        elif kind == "nowhere":
            at(t0, "connect_nowhere", side)
        else:
            at(t0 + 0.3 * rnd.random(), rnd.choice(("close", "shutdown_wr")), side)
    lanes["ctl"] = _as_delays(timed)
    timed = []
    if rnd.random() < 0.2:      # trouble while the handshake is in progress
        kind = rnd.choice(("nf", "partition", "shutdown"))
        t0 = rnd.choice((0.0, 5e-5, 1.5e-4, 2.5e-4))
        if kind == "nf":
            at(t0, "nf_block", "a", "ip")
            at(t0 + when() + 1e-4, "nf_unblock", "a", "ip")
        elif kind == "partition":
            at(t0, "partition")
            at(t0 + when() + 1e-4, "heal")
        else:
            at(t0, "shutdown_wr", "a")
    return Script(seed=rnd.randint(0, 10_000), loss=rnd.choice((0.0, 0.0, 0.1, 0.3)),
                  rcvbuf=rnd.choice((2048, 16384, None)),
                  mss=rnd.choice((536, 1460, 16384)), lanes=lanes,
                  opening=_as_delays(timed), sndbuf=rnd.choice((4096, None, None)),
                  alias=rnd.random() < 0.25)


def _as_delays(timed: List[Tuple[float, Op]]) -> Tuple[Op, ...]:
    """Ops at absolute times -> the same ops, each after a delay."""
    ops, clock = [], 0.0
    for t, op in sorted(timed, key=lambda entry: entry[0]):
        ops.append((t - clock,) + op)
        clock = t
    return tuple(ops)


class World:
    """Two hosts, one connection, and everything a script did to them."""

    def __init__(self, script: Script) -> None:
        self.script = script
        self.engine = Engine(seed=script.seed)
        self.fabric = Fabric(self.engine, loss_rate=script.loss)
        self.hosts = {side: Host(self.engine, self.fabric, "n" + side, ip)
                      for side, ip in NODE_IPS.items()}
        #: side -> the address its end of the connection binds.
        self.ips = dict(NODE_IPS)
        if script.alias:
            self.ips = dict(ALIAS_IPS)
            for side, ip in ALIAS_IPS.items():
                self.hosts[side].stack.nic.add_address(ip)
        #: side -> its end of the connection (the client is ``a``), from
        #: the moment the socket exists.
        self.socks: Dict[str, Any] = {}
        self.established = False
        #: every packet handed to the fabric.
        self.wire: List[Tuple[Any, ...]] = []
        #: (lane, op index, completion time, value) per finished syscall.
        self.results: List[Tuple[Any, ...]] = []
        #: side -> in-band bytes its reader lane has consumed.
        self.consumed = {"a": bytearray(), "b": bytearray()}
        self.arrivals = 0
        self.on_arrival: Optional[Callable[[int], None]] = None

    # -- plumbing ---------------------------------------------------------
    def channel(self, side: str, name: str) -> Any:
        """A fresh syscall channel on ``side`` holding the connection at FD."""
        chan = self.hosts[side].kernel.host_channel(name)
        if side in self.socks:
            chan.fds[FD] = self.socks[side]
        return chan

    def call(self, side: str, chan: Any, lane: str, index: int, name: str, *args: Any) -> Any:
        """Issue one syscall; its result is recorded when it completes."""
        fut = self.hosts[side].kernel.host_call(chan, name, *args)
        fut.add_done_callback(lambda f: self.results.append(
            (lane, index, self.engine.now, f.result)))
        return fut

    # -- the lanes --------------------------------------------------------
    def _writer(self, side: str):
        lane, chan, sent = side + ".w", self.channel(side, "w"), 0
        stream = self.script.stream(side)
        for i, (delay, name, n) in enumerate(self.script.lanes[lane]):
            yield self.engine.sleep(delay)
            if name == "oob":
                yield self.call(side, chan, lane, i, "send", FD, bytes([OOB_BYTE]) * n, MSG_OOB)
            else:
                yield self.call(side, chan, lane, i, "send", FD, stream[sent:sent + n], 0)
                sent += n

    def _reader(self, side: str):
        lane, chan = side + ".r", self.channel(side, "r")
        for i, (delay, _name, n, flags) in enumerate(self.script.lanes[lane]):
            yield self.engine.sleep(delay)
            fut = self.call(side, chan, lane, i, "recv", FD, n, flags)
            if flags == 0:
                fut.add_done_callback(lambda f, side=side: self._consume(side, f.result))
            yield fut

    def _consume(self, side: str, value: Any) -> None:
        if isinstance(value, bytes):
            self.consumed[side] += value.replace(bytes([OOB_BYTE]), b"")

    def _control(self, lane: str, ops: Tuple[Op, ...]):
        for i, (delay, name, *args) in enumerate(ops):
            yield self.engine.sleep(delay)
            self._control_op(lane, i, name, *args)

    def _control_op(self, lane: str, i: int, name: str, *args: Any) -> None:
        fabric, (ip_a, ip_b) = self.fabric, (self.ips["a"], self.ips["b"])
        if name in ("nf_block", "nf_unblock"):
            side, how = args
            table = self.hosts[side].stack.netfilter
            if how == "ip":
                (table.block_ip if name == "nf_block" else table.unblock_ip)(self.ips[side])
            elif side in self.socks and self.socks[side].local is not None:
                local = self.socks[side].local
                (table.block_endpoint if name == "nf_block"
                 else table.unblock_endpoint)(local.ip, local.port)
        elif name == "partition":
            fabric.partition(ip_a, ip_b)
        elif name == "heal":
            fabric.heal(ip_a, ip_b)
        elif name == "delay_link":
            fabric.delay_link(ip_a, ip_b, args[0])
        elif name == "clear_delay":
            fabric.clear_link_delay(ip_a, ip_b)
        elif name in ("nic_down", "nic_up"):    # what a node-crash fault does
            stack = self.hosts[args[0]].stack
            stack.nic.ingress = None if name == "nic_down" else stack._ingress
        elif name == "lose_backlog":
            if args[0] in self.socks:
                backlog = self.socks[args[0]].conn.backlog
                self.results.append((lane, i, self.engine.now, len(backlog)))
                backlog.clear()
        elif args[0] not in self.socks:
            pass    # an opening op on an end that has no socket yet
        else:
            # syscalls go out on a channel of their own and are not waited
            # for: a connect into a partition must not hold up the heal
            side = args[0]
            chan = self.channel(side, f"{lane}{i}")
            if name == "oobinline":
                self.call(side, chan, lane, i, "setsockopt", FD, "SO_OOBINLINE", args[1])
            elif name == "poll":
                self.call(side, chan, lane, i, "poll", [(FD, "rw")], args[1])
            elif name == "close":
                self.call(side, chan, lane, i, "close", FD)
            elif name == "shutdown_wr":
                self.call(side, chan, lane, i, "shutdown", FD, "wr")
            elif name == "connect_nowhere":
                self.engine.spawn(self._connect_nowhere(side, chan, lane, i, *args[1:]),
                                  name=f"nowhere{i}")
            else:
                raise AssertionError(name)

    def _connect_nowhere(self, side: str, chan: Any, lane: str, i: int,
                         close_after: Optional[float] = None):
        """Connect to a port nobody listens on; with ``close_after``,
        close the socket that long after the SYN left, from a channel of
        its own — the refusal then finds a closed socket."""
        fd = yield self.call(side, chan, lane, i, "socket", "tcp")
        if close_after is not None:
            closer = self.hosts[side].kernel.host_channel(f"{lane}{i}.close")
            closer.fds[fd] = chan.fds[fd]
            self.engine.schedule(close_after, self.call, side, closer, lane, i, "close", fd)
        yield self.call(side, chan, lane, i, "connect", fd, (self.ips[PEER[side]], 9))

    # -- connection set-up -------------------------------------------------
    def _options(self, side: str, chan: Any, fd: int):
        for name, value in (("SO_RCVBUF", self.script.rcvbuf), ("SO_SNDBUF", self.script.sndbuf),
                            ("TCP_MAXSEG", self.script.mss)):
            if value is not None:
                yield self.call(side, chan, "open." + side, 0, "setsockopt", fd, name, value)

    def _server(self, chan: Any):
        lfd = yield self.call("b", chan, "open.b", 2, "socket", "tcp")
        yield from self._options("b", chan, lfd)       # the child inherits them
        yield self.call("b", chan, "open.b", 3, "bind", lfd, (self.ips["b"], PORT))
        yield self.call("b", chan, "open.b", 4, "listen", lfd, 8)
        fd, _peer = yield self.call("b", chan, "open.b", 5, "accept", lfd)
        self.socks["b"] = chan.fds[fd]

    def _client(self, chan: Any):
        fd = yield self.call("a", chan, "open.a", 2, "socket", "tcp")
        self.socks["a"] = chan.fds[fd]
        yield from self._options("a", chan, fd)
        yield self.call("a", chan, "open.a", 3, "bind", fd, (self.ips["a"], 0))
        return (yield self.call("a", chan, "open.a", 4, "connect", fd, (self.ips["b"], PORT)))

    def open(self, until: float = 60.0) -> bool:
        """The handshake, under the script's loss and its ``opening``
        trouble; True when both ends hold an established socket."""
        server = self.engine.spawn(self._server(self.channel("b", "open")), name="server")
        client = self.engine.spawn(self._client(self.channel("a", "open")), name="client")
        self.engine.spawn(self._control("opening", self.script.opening), name="opening")
        self.engine.run(until=until)
        self.established = server.done and client.done and client.finished.result == 0
        return self.established

    def start_lanes(self) -> None:
        for side in "ab":
            self.engine.spawn(self._writer(side), name=side + ".w")
            self.engine.spawn(self._reader(side), name=side + ".r")
        self.engine.spawn(self._control("ctl", self.script.lanes["ctl"]), name="ctl")


def tap(monkeypatch: Any, world: World) -> None:
    """Log what passes ``Fabric.transmit`` into ``world.wire`` and count
    what passes ``Fabric._arrive`` — whichever implementation of the two
    is installed."""
    transmit, arrive = Fabric.transmit, Fabric._arrive

    def logged_transmit(self: Fabric, nic: Any, pkt: Any) -> None:
        seg = pkt.segment
        if seg is not None:
            world.wire.append(
                (self.engine.now, tuple(pkt.src), tuple(pkt.dst), seg.seq, seg.ack,
                 tuple(sorted(seg.flags)), len(seg.data), seg.wnd, pkt.size))
        transmit(self, nic, pkt)

    def counted_arrive(self: Fabric, nic: Any, pkt: Any) -> None:
        arrive(self, nic, pkt)
        world.arrivals += 1
        if world.on_arrival is not None:
            world.on_arrival(world.arrivals)

    monkeypatch.setattr(Fabric, "transmit", logged_transmit)
    monkeypatch.setattr(Fabric, "_arrive", counted_arrive)


def play(script: Script, monkeypatch: Any, settle: float = 90.0) -> World:
    """Run ``script`` start to finish on whatever classes are installed."""
    world = World(script)
    tap(monkeypatch, world)
    if world.open():
        world.start_lanes()
    world.engine.run(until=world.engine.now + settle)
    return world


def conn_state(sock: Any) -> Dict[str, Any]:
    """Everything one end of the connection holds."""
    conn, pcb, nic = sock.conn, sock.conn.pcb, sock.stack.nic
    return {
        "state": conn.state,
        "pcb": (pcb.snd_una, pcb.snd_nxt, pcb.rcv_nxt, pcb.rto, pcb.peer_wnd),
        "recv_q": bytes(conn.recv_q), "send_buf": bytes(conn.send_buf),
        "oob": bytes(conn.oob), "ooo": dict(conn.ooo),
        "backlog": [(s.seq, s.ack, tuple(sorted(s.flags)), bytes(s.data), s.wnd)
                    for s in conn.backlog],
        "fin": (conn.fin_sent, conn.fin_acked, conn.fin_seq, conn.fin_rcvd, conn._pending_fin),
        "peeked": conn.peeked, "last_adv_wnd": conn.last_adv_wnd,
        "timers": (conn.rto_handle is not None, conn._backlog_kick is not None),
        "socket": (sock.closed, sock.was_reset, len(sock.recv_waiters), len(sock.send_waiters),
                   len(sock.poll_waiters), dict(sock.options)),
        "nic": (nic.tx_packets, nic.rx_packets, nic.tx_bytes),
        "filtered": sock.stack.netfilter.dropped,
    }


def observed(world: World) -> Dict[str, Any]:
    """What two implementations playing one script must agree on."""
    out: Dict[str, Any] = {
        "wire": world.wire, "results": world.results,
        "events": world.engine.events_executed, "clock": world.engine.now,
        "dropped": world.fabric.dropped_packets,
        "consumed": {side: bytes(data) for side, data in world.consumed.items()},
    }
    for side, sock in world.socks.items():
        out[side] = conn_state(sock)
    return out

