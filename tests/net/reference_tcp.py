"""The per-segment path as it stood before the one-frame-per-hop rewrite,
frozen verbatim as a test-only oracle.

Two halves.  ``Segment`` / ``Packet`` / ``TcpPcb`` / ``TcpConn`` are
``repro.net.packet`` and ``repro.net.tcp`` exactly as the parent commit
shipped them — ``frozenset({"ACK"})`` rebuilt per segment, the ``size``
property, the process-global ``pkt_id``, ``push`` + ``mss()`` on every
pure ACK, the ``has`` chain in ``_process``.  Below them are the hops
around the protocol that the rewrite also touched, as plain functions of
their old ``self``: ``NetStack.transmit`` / ``_ingress`` /
``_ingress_tcp``, ``Fabric.transmit`` / ``_arrive`` (through ``Nic.send``
/ ``nic_for`` / ``Nic.deliver``), ``Netfilter.permits`` and the
``default_recvmsg`` / ``default_poll`` that take the socket lock on every
call — and ``default_release``, whose live close also reaps a refused
connect, which this world's ``TcpConn`` cannot.  :func:`install` swaps
the lot in through ``monkeypatch``.

``test_tcp_differential.py`` runs one script in both worlds and requires
the same wire log, event count, clock and socket state, so what the
protocol puts on the wire — and when — cannot drift with the
implementation; ``test_section5_property.py`` holds the paper's
``recv₁ ≥ acked₂`` guarantee on both.  Do not "fix" anything here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Set, TYPE_CHECKING

from repro.errors import NetError, SyscallError
from repro.net import sockets as live_sockets
from repro.net.addr import ANY_IP, Endpoint
from repro.net.fabric import Fabric, Nic
from repro.net.netfilter import Netfilter
from repro.net.sockets import MSG_OOB, MSG_PEEK, _MSG_WANT_SRC
from repro.net.udp import DatagramConn
from repro.vos.syscalls import Errno

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.sockets import NetStack, Socket

# ---------------------------------------------------------------------------
# repro/net/packet.py at the parent commit
# ---------------------------------------------------------------------------

#: Per-packet header overhead charged against link bandwidth (bytes).
HEADER_BYTES = 66  # Ethernet + IP + TCP, roughly

_packet_ids = itertools.count(1)


@dataclass
class Segment:
    """A TCP segment (also reused for the SYN/FIN/RST control packets)."""

    seq: int = 0
    ack: int = 0
    flags: FrozenSet[str] = frozenset()  # subset of {SYN, ACK, FIN, RST, URG}
    data: bytes = b""
    wnd: int = 0

    def has(self, flag: str) -> bool:
        """Whether ``flag`` is set."""
        return flag in self.flags

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        fl = ",".join(sorted(self.flags)) or "-"
        return f"Segment(seq={self.seq}, ack={self.ack}, [{fl}], len={len(self.data)})"


@dataclass
class Packet:
    """One unit in flight on the fabric."""

    proto: str  # "tcp" | "udp" | "raw"
    src: Endpoint  # virtual source
    dst: Endpoint  # virtual destination
    payload: bytes = b""  # udp/raw data
    segment: Optional[Segment] = None  # tcp
    real_src: str = ""  # routing addresses, stamped at egress
    real_dst: str = ""
    pkt_id: int = field(default_factory=lambda: next(_packet_ids))

    @property
    def size(self) -> int:
        """Bytes charged against link bandwidth."""
        body = len(self.segment.data) if self.segment is not None else len(self.payload)
        return HEADER_BYTES + body

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        core = repr(self.segment) if self.segment else f"len={len(self.payload)}"
        return f"Packet({self.proto} {self.src}->{self.dst} {core})"


# ---------------------------------------------------------------------------
# repro/net/tcp.py at the parent commit
# ---------------------------------------------------------------------------

# Connection states.
CLOSED = "closed"
LISTEN = "listen"
SYN_SENT = "syn_sent"
SYN_RCVD = "syn_rcvd"
ESTABLISHED = "established"

#: Initial sequence number (fixed for determinism; real ISNs randomize).
INITIAL_SEQ = 1000
#: Base retransmission timeout, seconds.
RTO_BASE = 0.2
#: Retransmission timeout cap, seconds.
RTO_MAX = 6.4
#: Deferred backlog-processing ("bottom half") delay, seconds.
BACKLOG_DELAY = 20e-6


class TcpPcb:
    """Protocol control block: the minimal protocol-specific state.

    The paper: "a necessary and sufficient condition to ensure correct
    restart of a connection is to capture the recv and acked values on
    both peers ... located in a protocol-control-block (PCB) data
    structure associated with every TCP socket."
    """

    __slots__ = ("snd_una", "snd_nxt", "rcv_nxt", "rto", "peer_wnd")

    def __init__(self) -> None:
        self.snd_una = INITIAL_SEQ  # oldest unacknowledged ("acked" by peer)
        self.snd_nxt = INITIAL_SEQ  # next sequence to send ("sent")
        self.rcv_nxt = INITIAL_SEQ  # next expected from peer ("recv")
        self.rto = RTO_BASE
        self.peer_wnd = 262144

    def snapshot(self) -> Dict[str, int]:
        """The checkpointed PCB fields (sent / acked-by-me / recv)."""
        return {"sent": self.snd_nxt, "acked": self.snd_una, "recv": self.rcv_nxt}


class TcpConn:
    """Per-connection protocol machinery attached to a TCP socket."""

    def __init__(self, sock: "Socket") -> None:
        self.sock = sock
        self.state = CLOSED
        self.pcb = TcpPcb()
        # --- send side ---
        #: bytes [snd_una, snd_una + len) — unacked + unsent data.
        self.send_buf = bytearray()
        self.fin_sent = False
        self.fin_acked = False
        #: seq of our FIN, once sent (it occupies one sequence slot).
        self.fin_seq: Optional[int] = None
        # --- receive side ---
        #: in-order data ready for the application.
        self.recv_q = bytearray()
        #: out-of-order segments awaiting the gap to fill: seq -> bytes.
        self.ooo: Dict[int, bytes] = {}
        #: delivered but unprocessed segments (the Linux backlog queue).
        self.backlog: List[Segment] = []
        self._backlog_kick = None
        #: out-of-band (urgent) bytes, unless SO_OOBINLINE routes them inline.
        self.oob = bytearray()
        self.fin_rcvd = False
        #: a FIN that arrived ahead of missing data; honored only once
        #: the stream catches up (a FIN must not skip rcv_nxt forward).
        self._pending_fin: Optional[int] = None
        self.peeked = False
        # --- timers ---
        self.rto_handle = None
        self.last_adv_wnd = 262144

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @property
    def stack(self) -> "NetStack":
        return self.sock.stack

    def mss(self) -> int:
        return int(self.sock.options.get("TCP_MAXSEG", 16384))

    def rcvbuf(self) -> int:
        return int(self.sock.options.get("SO_RCVBUF", 262144))

    def sndbuf(self) -> int:
        return int(self.sock.options.get("SO_SNDBUF", 262144))

    def adv_wnd(self) -> int:
        pending = len(self.recv_q) + sum(len(s.data) for s in self.backlog)
        return max(0, self.rcvbuf() - pending)

    def _emit(self, seg: Segment) -> None:
        """Hand a segment to the stack for transmission."""
        self.last_adv_wnd = seg.wnd
        self.stack.transmit(self.sock, segment=seg)

    def _seg(self, flags: frozenset, seq: int = 0, data: bytes = b"") -> Segment:
        return Segment(seq=seq, ack=self.pcb.rcv_nxt, flags=flags, data=data, wnd=self.adv_wnd())

    # ------------------------------------------------------------------
    # connection establishment
    # ------------------------------------------------------------------
    def start_connect(self) -> None:
        """Active open: send SYN (which consumes one sequence slot)."""
        self.state = SYN_SENT
        self._emit(self._seg(frozenset({"SYN"}), seq=self.pcb.snd_nxt))
        self.pcb.snd_nxt += 1
        self._arm_rto()

    def start_passive(self) -> None:
        """Passive open from a listener: reply SYN+ACK (state SYN_RCVD).

        The SYN consumes a sequence slot here too — without this, the
        first data pushed by an accepted socket is mis-offset.
        """
        self.state = SYN_RCVD
        self._emit(self._seg(frozenset({"SYN", "ACK"}), seq=self.pcb.snd_nxt))
        self.pcb.snd_nxt += 1
        self._arm_rto()

    # ------------------------------------------------------------------
    # segment arrival: backlog first, then the protocol proper
    # ------------------------------------------------------------------
    def deliver(self, seg: Segment) -> None:
        """NIC-side entry: enqueue on the backlog; a bottom half drains it."""
        self.backlog.append(seg)
        if self._backlog_kick is None:
            self._backlog_kick = self.stack.engine.schedule(BACKLOG_DELAY, self._drain_backlog)

    def _drain_backlog(self) -> None:
        self._backlog_kick = None
        self.process_backlog()

    def process_backlog(self) -> None:
        """Drain the backlog (the effect of taking the socket lock).

        The checkpoint capture path calls this before reading the receive
        queue, which is why ZapC sees backlog data a peek-based approach
        does not.
        """
        if self._backlog_kick is not None:
            self._backlog_kick.cancel()
            self._backlog_kick = None
        while self.backlog:
            seg = self.backlog.pop(0)
            self._process(seg)

    # ------------------------------------------------------------------
    def _process(self, seg: Segment) -> None:
        if seg.has("RST"):
            self._on_rst()
            return
        if self.state == SYN_SENT:
            if seg.has("SYN") and seg.has("ACK"):
                self.pcb.rcv_nxt = seg.seq + 1
                self.pcb.snd_una = seg.ack if seg.ack else self.pcb.snd_una
                self.pcb.snd_nxt = max(self.pcb.snd_nxt, self.pcb.snd_una)
                self.state = ESTABLISHED
                self._cancel_rto()
                self._emit(self._seg(frozenset({"ACK"}), seq=self.pcb.snd_nxt))
                self.sock.on_connected()
            return
        if self.state == SYN_RCVD:
            if seg.has("ACK") and not seg.data:
                self.pcb.snd_una = max(self.pcb.snd_una, seg.ack)
                self.state = ESTABLISHED
                self._cancel_rto()
                self.sock.on_accept_ready()
                return
            # data may arrive piggybacked right after the final ACK is lost;
            # fall through to normal processing which implies establishment.
            if seg.data or seg.has("FIN"):
                self.state = ESTABLISHED
                self._cancel_rto()
                self.sock.on_accept_ready()
        if self.state != ESTABLISHED:
            return
        if seg.has("SYN"):
            # duplicate SYN+ACK retransmission: our ACK was lost; re-ACK it.
            self._emit(self._seg(frozenset({"ACK"}), seq=self.pcb.snd_nxt))
            return

        if seg.has("ACK"):
            self._on_ack(seg.ack, seg.wnd)

        if seg.has("URG") and seg.data:
            self._on_urgent(seg.data)
        elif seg.data:
            self._on_data(seg.seq, seg.data)

        if seg.has("FIN"):
            self._on_fin(seg.seq)

    # -- receiving ------------------------------------------------------
    def _on_data(self, seq: int, data: bytes) -> None:
        pcb = self.pcb
        if seq + len(data) <= pcb.rcv_nxt:
            # pure duplicate — re-ACK so the sender advances
            self._emit(self._seg(frozenset({"ACK"}), seq=pcb.snd_nxt))
            return
        if seq > pcb.rcv_nxt:
            self.ooo[seq] = data
            self._emit(self._seg(frozenset({"ACK"}), seq=pcb.snd_nxt))  # dup-ACK
            return
        if seq < pcb.rcv_nxt:  # partial overlap: trim the stale prefix
            data = data[pcb.rcv_nxt - seq:]
            seq = pcb.rcv_nxt
        self.recv_q.extend(data)
        pcb.rcv_nxt = seq + len(data)
        # absorb any out-of-order chain that is now contiguous
        while pcb.rcv_nxt in self.ooo:
            chunk = self.ooo.pop(pcb.rcv_nxt)
            self.recv_q.extend(chunk)
            pcb.rcv_nxt += len(chunk)
        self._emit(self._seg(frozenset({"ACK"}), seq=pcb.snd_nxt))
        self.sock.on_readable()
        # a parked FIN becomes deliverable once the gap closes
        if self._pending_fin is not None and self._pending_fin <= pcb.rcv_nxt:
            self._on_fin(self._pending_fin)

    def _on_urgent(self, data: bytes) -> None:
        if self.sock.options.get("SO_OOBINLINE"):
            self.recv_q.extend(data)
        else:
            self.oob.extend(data)
        self.sock.on_readable()

    def _on_fin(self, seq: int) -> None:
        if self.fin_rcvd:
            return
        if seq > self.pcb.rcv_nxt:
            # FIN ahead of missing data (the data segment was lost or
            # reordered): remember it, deliver EOF only once the stream
            # catches up — otherwise rcv_nxt would skip past real bytes.
            self._pending_fin = seq
            self._emit(self._seg(frozenset({"ACK"}), seq=self.pcb.snd_nxt))
            return
        self.fin_rcvd = True
        self._pending_fin = None
        self.pcb.rcv_nxt = max(self.pcb.rcv_nxt, seq + 1)
        self._emit(self._seg(frozenset({"ACK"}), seq=self.pcb.snd_nxt))
        self.sock.on_readable()  # EOF is a readable event

    def _on_rst(self) -> None:
        self.state = CLOSED
        self._cancel_rto()
        self.sock.on_reset()

    # -- sending --------------------------------------------------------
    def _on_ack(self, ack: int, wnd: int) -> None:
        pcb = self.pcb
        pcb.peer_wnd = max(wnd, 0)
        if ack > pcb.snd_una:
            acked = ack - pcb.snd_una
            stream_acked = min(acked, len(self.send_buf))
            del self.send_buf[:stream_acked]
            pcb.snd_una = ack
            if self.fin_seq is not None and ack > self.fin_seq:
                self.fin_acked = True
            pcb.rto = RTO_BASE
            self._cancel_rto()
            if pcb.snd_una < pcb.snd_nxt:
                self._arm_rto()
            self.sock.on_writable()
        self.push()

    def app_write(self, data: bytes) -> int:
        """Append application data to the send queue and push.

        Returns the byte count accepted; the caller enforces SO_SNDBUF
        blocking *before* calling.
        """
        self.send_buf.extend(data)
        self.push()
        return len(data)

    def app_write_oob(self, data: bytes) -> int:
        """Send urgent data on its own out-of-band segment."""
        self._emit(Segment(seq=self.pcb.snd_nxt, ack=self.pcb.rcv_nxt,
                           flags=frozenset({"URG", "ACK"}), data=bytes(data), wnd=self.adv_wnd()))
        return len(data)

    def push(self) -> None:
        """Transmit whatever the window and queue allow."""
        pcb = self.pcb
        mss = self.mss()
        while True:
            in_flight = pcb.snd_nxt - pcb.snd_una
            queued = len(self.send_buf) - in_flight
            if queued <= 0:
                break
            if in_flight >= pcb.peer_wnd:
                break
            take = min(queued, mss, pcb.peer_wnd - in_flight)
            off = in_flight
            chunk = bytes(self.send_buf[off:off + take])
            self._emit(Segment(seq=pcb.snd_nxt, ack=pcb.rcv_nxt,
                               flags=frozenset({"ACK"}), data=chunk, wnd=self.adv_wnd()))
            pcb.snd_nxt += take
            self._arm_rto()
        self._maybe_send_fin()

    def _maybe_send_fin(self) -> None:
        pcb = self.pcb
        if self.fin_sent and self.fin_seq is None and pcb.snd_nxt - pcb.snd_una == len(self.send_buf):
            # all stream data transmitted; FIN takes the next slot
            self.fin_seq = pcb.snd_nxt
            self._emit(self._seg(frozenset({"FIN", "ACK"}), seq=pcb.snd_nxt))
            pcb.snd_nxt += 1
            self._arm_rto()

    def app_close(self) -> None:
        """Application close/shutdown(WR): FIN after pending data."""
        if self.fin_sent:
            return
        self.fin_sent = True
        self._maybe_send_fin()

    # -- retransmission ---------------------------------------------------
    def _arm_rto(self) -> None:
        if self.rto_handle is None:
            self.rto_handle = self.stack.engine.schedule(self.pcb.rto, self._on_rto)

    def _cancel_rto(self) -> None:
        if self.rto_handle is not None:
            self.rto_handle.cancel()
            self.rto_handle = None

    def _on_rto(self) -> None:
        self.rto_handle = None
        pcb = self.pcb
        if self.state == SYN_SENT:
            self._emit(self._seg(frozenset({"SYN"}), seq=pcb.snd_nxt - 1))
        elif self.state == SYN_RCVD:
            self._emit(self._seg(frozenset({"SYN", "ACK"}), seq=pcb.snd_nxt - 1))
        elif pcb.snd_una < pcb.snd_nxt:
            if self.fin_seq is not None and pcb.snd_una >= self.fin_seq:
                self._emit(self._seg(frozenset({"FIN", "ACK"}), seq=self.fin_seq))
            else:
                off = 0
                take = min(len(self.send_buf), self.mss())
                chunk = bytes(self.send_buf[off:off + take])
                if chunk:
                    self._emit(Segment(seq=pcb.snd_una, ack=pcb.rcv_nxt,
                                       flags=frozenset({"ACK"}), data=chunk, wnd=self.adv_wnd()))
                elif self.fin_seq is not None:
                    self._emit(self._seg(frozenset({"FIN", "ACK"}), seq=self.fin_seq))
        else:
            return  # nothing outstanding
        pcb.rto = min(pcb.rto * 2, RTO_MAX)
        self._arm_rto()

    # -- window updates -----------------------------------------------------
    def after_app_read(self) -> None:
        """Send a window update if the queue was previously near-full."""
        if self.state == ESTABLISHED and self.last_adv_wnd < self.mss():
            self._emit(self._seg(frozenset({"ACK"}), seq=self.pcb.snd_nxt))

    # ------------------------------------------------------------------
    # introspection for the checkpoint layer
    # ------------------------------------------------------------------
    def meta_state(self) -> str:
        """The connection-state label used in the checkpoint meta-data.

        One of ``full-duplex``, ``half-duplex``, ``closed`` or
        ``connecting`` — the four states of Section 4's network table.
        """
        if self.state in (SYN_SENT, SYN_RCVD):
            return "connecting"
        if self.fin_sent and self.fin_rcvd:
            return "closed"
        if self.fin_sent or self.fin_rcvd:
            return "half-duplex"
        return "full-duplex"

    def walk_send_queue(self) -> bytes:
        """Non-destructive in-kernel walk of the send buffers.

        "the data is accessed by inspecting the socket's send queue using
        standard in-kernel interface ... without altering the state of
        the send queue itself."
        """
        return bytes(self.send_buf)


# ---------------------------------------------------------------------------
# the hops around it: NetStack, Fabric, Netfilter, the socket-lock takers
# ---------------------------------------------------------------------------


def transmit(self, sock: Socket, segment: Optional[Segment] = None,
             payload: bytes = b"", dst: Optional[Endpoint] = None) -> None:
    """Send one packet from ``sock`` (netfilter checked at egress)."""
    target = dst if dst is not None else sock.remote
    if target is None or sock.local is None:
        raise SyscallError("ENOTCONN", "unaddressed transmit")
    pkt = Packet(proto=sock.proto, src=sock.local, dst=target,
                 payload=payload, segment=segment)
    if not self.netfilter.permits(pkt):
        return  # egress blocked (checkpoint freeze)
    pkt.real_src = self.vnet.resolve(sock.local.ip)
    pkt.real_dst = self.vnet.resolve(target.ip)
    self.nic.send(pkt)


def _ingress(self, pkt: Packet) -> None:
    if not self.netfilter.permits(pkt):
        return  # ingress blocked (checkpoint freeze)
    if pkt.proto == "tcp":
        self._ingress_tcp(pkt)
    elif pkt.proto in self.extra_protocols:
        self.extra_protocols[pkt.proto](pkt)
    else:
        self._ingress_datagram(pkt)


def _ingress_tcp(self, pkt: Packet) -> None:
    seg = pkt.segment
    key = (pkt.proto, pkt.dst, pkt.src)
    sock = self.established.get(key)
    if sock is not None:
        sock.conn.deliver(seg)
        return
    if seg.has("SYN") and not seg.has("ACK"):
        listener = self.bound.get(("tcp", pkt.dst.ip, pkt.dst.port))
        if listener is None:
            listener = self.bound.get(("tcp", ANY_IP, pkt.dst.port))
        if listener is not None and listener.listening and not listener.closed:
            self._spawn_child(listener, pkt)
            return
    if seg.has("RST"):
        return
    # No home for this segment: refuse actively opened connections.
    if seg.has("SYN"):
        rst = Packet(proto="tcp", src=pkt.dst, dst=pkt.src,
                     segment=Segment(seq=0, ack=seg.seq + 1, flags=frozenset({"RST", "ACK"})))
        rst.real_src = self.vnet.resolve(pkt.dst.ip)
        rst.real_dst = self.vnet.resolve(pkt.src.ip)
        self.nic.send(rst)


def fabric_transmit(self, src_nic: Nic, packet: Packet) -> None:
    """Serialize a packet onto the sender's egress link."""
    if not packet.real_dst:
        raise NetError(f"packet without routing address: {packet!r}")
    now = self.engine.now
    start = max(now, src_nic._egress_free_at)
    tx_time = packet.size / self.bandwidth
    src_nic._egress_free_at = start + tx_time
    src_nic.tx_packets += 1
    src_nic.tx_bytes += packet.size
    extra = (self.global_extra_latency
             + self._extra_latency.get((packet.real_src, packet.real_dst), 0.0))
    arrival = start + tx_time + self.latency + extra
    self.engine.schedule_at(arrival, self._arrive, src_nic, packet)


def fabric_arrive(self, src_nic: Nic, packet: Packet) -> None:
    if (packet.real_src, packet.real_dst) in self._partitions:
        self.dropped_packets += 1
        return
    if self.loss_rate > 0 and self._rng.random() < self.loss_rate:
        self.dropped_packets += 1
        return
    dst_nic = self.nic_for(packet.real_dst)
    if dst_nic is None:
        self.dropped_packets += 1  # address currently unowned (mid-migration)
        return
    dst_nic.deliver(packet)


def permits(self, packet: Packet) -> bool:
    """True when ``packet`` passes the rule table."""
    for ep in (packet.src, packet.dst):
        if ep.ip in self._blocked_ips:
            self.dropped += 1
            return False
        if (ep.ip, ep.port) in self._blocked_endpoints:
            self.dropped += 1
            return False
    return True


def default_recvmsg(stack: "NetStack", sock: Socket, n: int, flags: int) -> Any:
    """Try to satisfy a receive; ``None`` means "would block".

    Taking the socket lock processes the backlog first — the detail that
    makes kernel-path reads complete where peeks are not.
    """
    if sock.proto == "tcp":
        conn: TcpConn = sock.conn
        conn.process_backlog()
        if flags & MSG_OOB:
            if conn.oob:
                take = bytes(conn.oob[:n])
                del conn.oob[:n]
                return take
            return Errno("EWOULDBLOCK", "no urgent data")
        if conn.recv_q:
            if flags & MSG_PEEK:
                conn.peeked = True
                return bytes(conn.recv_q[:n])
            take = bytes(conn.recv_q[:n])
            del conn.recv_q[:n]
            conn.after_app_read()
            return take
        if sock.was_reset:
            return Errno("ECONNRESET")
        if conn.fin_rcvd or sock.rd_closed or conn.state == CLOSED:
            return b""
        if sock.options.get("O_NONBLOCK"):
            return Errno("EWOULDBLOCK")
        return None
    # datagram
    dconn: DatagramConn = sock.conn
    got = dconn.try_recv(n, peek=bool(flags & MSG_PEEK))
    if got is not None:
        if flags & _MSG_WANT_SRC:
            return (got[0], tuple(got[1]))
        return got[0]
    if sock.rd_closed:
        return b""
    if sock.options.get("O_NONBLOCK"):
        return Errno("EWOULDBLOCK")
    return None


def default_poll(stack: "NetStack", sock: Socket) -> Set[str]:
    """Poll readiness for one socket: subset of {'r', 'w'}."""
    events: Set[str] = set()
    if sock.proto == "tcp":
        conn: TcpConn = sock.conn
        conn.process_backlog()
        if conn.recv_q or conn.oob or conn.fin_rcvd or sock.was_reset or sock.rd_closed:
            events.add("r")
        if sock.accept_q:
            events.add("r")
        if conn.state == ESTABLISHED and not conn.fin_sent and len(conn.send_buf) < conn.sndbuf():
            events.add("w")
    else:
        dconn: DatagramConn = sock.conn
        if dconn.recv_q or sock.rd_closed:
            events.add("r")
        events.add("w")
    return events


def default_release(stack: "NetStack", sock: Socket, proc: Any) -> None:
    """Close a socket: FIN for TCP, unregister datagrams."""
    if sock.closed:
        return
    sock.closed = True
    if sock.proto == "tcp":
        conn: TcpConn = sock.conn
        if conn.state in (ESTABLISHED, SYN_RCVD) and sock.remote is not None:
            conn.app_close()
        else:
            conn._cancel_rto()
        if sock.listening:
            stack.unbind(sock)
            for child in sock.accept_q:
                default_release(stack, child, proc)
            sock.accept_q.clear()
        # a connection keeps its demux entries until neither end can
        # send or receive again (``TcpConn.reap``): its FIN exchange and
        # any late retransmission still find it.
    else:
        stack.unbind(sock)
    # error out anyone still parked on this socket
    kernel = stack.kernel
    for w in sock.recv_waiters:
        kernel.complete_syscall(w[0], Errno("ECONNABORTED"))
    sock.recv_waiters.clear()
    for w in sock.send_waiters:
        kernel.complete_syscall(w[0], Errno("ECONNABORTED"))
    sock.send_waiters.clear()
    for w in sock.accept_waiters:
        kernel.complete_syscall(w, Errno("ECONNABORTED"))
    sock.accept_waiters.clear()


def install(monkeypatch) -> None:
    """Make every socket, packet and hop created from now on the parent's."""
    monkeypatch.setattr(live_sockets, "TcpConn", TcpConn)
    monkeypatch.setattr(live_sockets, "default_recvmsg", default_recvmsg)
    monkeypatch.setattr(live_sockets, "default_poll", default_poll)
    monkeypatch.setattr(live_sockets, "default_release", default_release)
    monkeypatch.setattr(live_sockets.NetStack, "transmit", transmit)
    monkeypatch.setattr(live_sockets.NetStack, "_ingress", _ingress)
    monkeypatch.setattr(live_sockets.NetStack, "_ingress_tcp", _ingress_tcp, raising=False)
    monkeypatch.setattr(Fabric, "transmit", fabric_transmit)
    monkeypatch.setattr(Fabric, "_arrive", fabric_arrive)
    monkeypatch.setattr(Netfilter, "permits", permits)
