"""A from-scratch reliable transport in the image of TCP.

Implements exactly the mechanisms the paper's network checkpoint-restart
depends on:

* sequence numbers with cumulative ACKs — the protocol control block
  (PCB) tracks ``snd_una`` (= the paper's *acked*), ``snd_nxt`` (*sent*)
  and ``rcv_nxt`` (*recv*), whose relationship ``recv₁ ≥ acked₂`` is the
  invariant behind the send/receive queue overlap fix;
* a send queue holding exactly the un-ACKed + unsent bytes
  ``[snd_una, snd_una + len(send_buf))``;
* an in-order receive queue, an out-of-order reassembly map, and a
  **backlog queue** of delivered-but-unprocessed segments (processed by
  a deferred "bottom half", or eagerly whenever the socket lock is
  taken) — the queue a peek-based capture misses;
* out-of-band (urgent) data kept in a separate buffer unless
  ``SO_OOBINLINE`` — the other data a peek-based capture misses;
* retransmission timers with exponential backoff, which is what makes
  "in-flight data can be safely ignored" true across a checkpoint;
* connection establishment via SYN / SYN+ACK / ACK where an accepted
  socket *inherits the listener's port* — the property that forces the
  restart schedule to recreate shared-port connections through a
  listener.

Window management is simplified (a fixed advertised window derived from
``SO_RCVBUF``, with window-update ACKs when the application drains a
previously-full queue); there is no congestion control, Nagle, or
delayed ACK — none of which the checkpoint mechanisms interact with.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from .packet import ACK, FIN_ACK, SYN, SYN_ACK, URG_ACK, Segment

if TYPE_CHECKING:  # pragma: no cover
    from .sockets import Socket

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
        # --- the pair, for the reaper ---
        #: the other end, linked at the handshake (``None``: unknown, as
        #: for a hand-built pair — such a pair is never reaped).
        self.peer: Optional["TcpConn"] = None
        #: this end's packets on the fabric: handed to it and not yet
        #: delivered or dropped.
        self.on_wire = 0

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    # The option table is read at every use: ``setsockopt``, restore and
    # tests write ``sock.options`` directly, so nothing here remembers it.
    def mss(self) -> int:
        return int(self.sock.options.get("TCP_MAXSEG", 16384))

    def rcvbuf(self) -> int:
        return int(self.sock.options.get("SO_RCVBUF", 262144))

    def sndbuf(self) -> int:
        return int(self.sock.options.get("SO_SNDBUF", 262144))

    def adv_wnd(self) -> int:
        pending = len(self.recv_q)
        if self.backlog:  # delivered but unprocessed bytes occupy the buffer too
            pending += sum(len(s.data) for s in self.backlog)
        wnd = self.rcvbuf() - pending
        return wnd if wnd > 0 else 0

    def _send(self, flags: frozenset, seq: int, data: bytes = b"") -> None:
        """Build one segment carrying the current ``recv`` and window and
        hand it to the stack."""
        wnd = self.last_adv_wnd = self.adv_wnd()
        sock = self.sock
        sock.stack.transmit(sock, Segment(seq, self.pcb.rcv_nxt, flags, data, wnd))

    # ------------------------------------------------------------------
    # connection establishment
    # ------------------------------------------------------------------
    def start_connect(self) -> None:
        """Active open: send SYN (which consumes one sequence slot)."""
        self.state = SYN_SENT
        self._send(SYN, self.pcb.snd_nxt)
        self.pcb.snd_nxt += 1
        self._arm_rto()

    def start_passive(self) -> None:
        """Passive open from a listener: reply SYN+ACK (state SYN_RCVD).

        The SYN consumes a sequence slot here too — without this, the
        first data pushed by an accepted socket is mis-offset.
        """
        self.state = SYN_RCVD
        self._send(SYN_ACK, self.pcb.snd_nxt)
        self.pcb.snd_nxt += 1
        self._arm_rto()

    # ------------------------------------------------------------------
    # segment arrival: backlog first, then the protocol proper
    # ------------------------------------------------------------------
    def deliver(self, seg: Segment) -> None:
        """NIC-side entry: enqueue on the backlog; a bottom half drains it."""
        self.backlog.append(seg)
        if self._backlog_kick is None:
            self._backlog_kick = self.sock.stack.engine.schedule(
                BACKLOG_DELAY, self._drain_backlog)

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
        backlog = self.backlog
        while backlog:
            self._process(backlog.pop(0))
        if self.sock.closed:  # the last ACK or FIN of a closed end
            self.reap()

    # ------------------------------------------------------------------
    def _process(self, seg: Segment) -> None:
        flags = seg.flags
        # The established, no-RST case is nearly every segment: test it
        # first and leave resets and the handshake to one slow branch.
        if (self.state != ESTABLISHED or "RST" in flags) and not self._open(seg, flags):
            return
        if "SYN" in flags:
            # duplicate SYN+ACK retransmission: our ACK was lost; re-ACK it.
            self._send(ACK, self.pcb.snd_nxt)
            return

        if "ACK" in flags:
            self._on_ack(seg.ack, seg.wnd)

        data = seg.data
        if data:
            if "URG" in flags:
                self._on_urgent(data)
            else:
                self._on_data(seg.seq, data)

        if "FIN" in flags:
            self._on_fin(seg.seq)

    def _open(self, seg: Segment, flags: frozenset) -> bool:
        """Resets and the handshake states; True when ``seg`` goes on to
        established processing."""
        if "RST" in flags:
            self._on_rst()
            return False
        if self.state == SYN_SENT:
            if "SYN" in flags and "ACK" in flags:
                self.pcb.rcv_nxt = seg.seq + 1
                self.pcb.snd_una = seg.ack if seg.ack else self.pcb.snd_una
                self.pcb.snd_nxt = max(self.pcb.snd_nxt, self.pcb.snd_una)
                self.state = ESTABLISHED
                self._cancel_rto()
                self._send(ACK, self.pcb.snd_nxt)
                self.sock.on_connected()
            return False
        if self.state == SYN_RCVD:
            if "ACK" in flags and not seg.data:
                self.pcb.snd_una = max(self.pcb.snd_una, seg.ack)
                self.state = ESTABLISHED
                self._cancel_rto()
                self.sock.on_accept_ready()
                return False
            # data may arrive piggybacked right after the final ACK is lost;
            # fall through to normal processing which implies establishment.
            if seg.data or "FIN" in flags:
                self.state = ESTABLISHED
                self._cancel_rto()
                self.sock.on_accept_ready()
        return self.state == ESTABLISHED

    # -- receiving ------------------------------------------------------
    def _on_data(self, seq: int, data: bytes) -> None:
        pcb = self.pcb
        if seq + len(data) <= pcb.rcv_nxt:
            # pure duplicate — re-ACK so the sender advances
            self._send(ACK, pcb.snd_nxt)
            return
        if seq > pcb.rcv_nxt:
            self.ooo[seq] = data
            self._send(ACK, pcb.snd_nxt)  # dup-ACK
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
        self._send(ACK, pcb.snd_nxt)
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
            self._send(ACK, self.pcb.snd_nxt)
            return
        self.fin_rcvd = True
        self._pending_fin = None
        self.pcb.rcv_nxt = max(self.pcb.rcv_nxt, seq + 1)
        self._send(ACK, self.pcb.snd_nxt)
        self.sock.on_readable()  # EOF is a readable event

    def _on_rst(self) -> None:
        self.state = CLOSED
        self._cancel_rto()
        self.sock.on_reset()

    # -- sending --------------------------------------------------------
    def _on_ack(self, ack: int, wnd: int) -> None:
        pcb = self.pcb
        pcb.peer_wnd = wnd if wnd > 0 else 0
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
        self._send(URG_ACK, self.pcb.snd_nxt, bytes(data))
        return len(data)

    def push(self) -> None:
        """Transmit whatever the window and queue allow."""
        pcb = self.pcb
        send_buf = self.send_buf
        in_flight = pcb.snd_nxt - pcb.snd_una
        if len(send_buf) > in_flight:  # something is unsent (a pure ACK stops here)
            mss = self.mss()
            while in_flight < len(send_buf) and in_flight < pcb.peer_wnd:
                take = min(len(send_buf) - in_flight, mss, pcb.peer_wnd - in_flight)
                self._send(ACK, pcb.snd_nxt, bytes(send_buf[in_flight:in_flight + take]))
                pcb.snd_nxt += take
                self._arm_rto()
                in_flight = pcb.snd_nxt - pcb.snd_una
        if self.fin_sent and self.fin_seq is None:  # tested here to spare the call
            self._maybe_send_fin()

    def _maybe_send_fin(self) -> None:
        pcb = self.pcb
        if self.fin_sent and self.fin_seq is None and pcb.snd_nxt - pcb.snd_una == len(self.send_buf):
            # all stream data transmitted; FIN takes the next slot
            self.fin_seq = pcb.snd_nxt
            self._send(FIN_ACK, pcb.snd_nxt)
            pcb.snd_nxt += 1
            self._arm_rto()

    def app_close(self) -> None:
        """Application close/shutdown(WR): FIN after pending data.  A
        close after shutdown(WR) sends nothing, but it may be the last
        thing a finished pair waited for."""
        if self.fin_sent:
            self.reap()
            return
        self.fin_sent = True
        self._maybe_send_fin()

    # -- retransmission ---------------------------------------------------
    def _arm_rto(self) -> None:
        if self.rto_handle is None:
            self.rto_handle = self.sock.stack.engine.schedule(self.pcb.rto, self._on_rto)

    def _cancel_rto(self) -> None:
        if self.rto_handle is not None:
            self.rto_handle.cancel()
            self.rto_handle = None

    def _on_rto(self) -> None:
        self.rto_handle = None
        pcb = self.pcb
        if self.state == SYN_SENT:
            self._send(SYN, pcb.snd_nxt - 1)
        elif self.state == SYN_RCVD:
            self._send(SYN_ACK, pcb.snd_nxt - 1)
        elif pcb.snd_una < pcb.snd_nxt:
            if self.fin_seq is not None and pcb.snd_una >= self.fin_seq:
                self._send(FIN_ACK, self.fin_seq)
            else:
                chunk = bytes(self.send_buf[:self.mss()])
                if chunk:
                    self._send(ACK, pcb.snd_una, chunk)
                elif self.fin_seq is not None:
                    self._send(FIN_ACK, self.fin_seq)
        else:
            return  # nothing outstanding
        pcb.rto = min(pcb.rto * 2, RTO_MAX)
        self._arm_rto()

    # -- window updates -----------------------------------------------------
    def after_app_read(self) -> None:
        """Send a window update if the queue was previously near-full."""
        if self.state == ESTABLISHED and self.last_adv_wnd < self.mss():
            self._send(ACK, self.pcb.snd_nxt)

    # -- the end of a connection -------------------------------------------
    def landed(self) -> None:
        """One of this end's packets left the fabric: delivered, or
        dropped on the way."""
        self.on_wire -= 1
        if not self.on_wire and self.sock.closed:
            self.reap()

    def spent(self) -> bool:
        """This end's half of the reap rule: app-closed, its FIN
        acknowledged and the peer's received, no timer, bottom half or
        backlog pending, none of its packets on the fabric.  A spent end
        still receives whatever its peer sends."""
        return self.fin_acked and self.fin_rcvd and self._quiet()

    def _quiet(self) -> bool:
        return (self.sock.closed and not self.on_wire and self.rto_handle is None
                and self._backlog_kick is None and not self.backlog)

    def refused(self) -> bool:
        """A connect the peer's stack reset, app-closed and quiet: no
        handshake linked a peer, and none of its SYNs — nor the RST that
        answers one — is still on the fabric."""
        return (self.peer is None and self.state == CLOSED
                and self.sock.was_reset and self._quiet())

    def reapable(self) -> bool:
        """Both ends of the pair are :meth:`spent`: no event of the
        simulation can reach either of them again."""
        peer = self.peer
        return (peer is not None and peer.peer is self
                and self.spent() and peer.spent())

    def reap(self) -> None:
        """Take a reapable pair out of both stacks' demux tables (and the
        connecting end's port out of ``bound``), or a :meth:`refused`
        end out of its own."""
        if self.reapable():
            peer = self.peer
            self.peer = peer.peer = None
            self.sock.stack.forget(self.sock)
            peer.sock.stack.forget(peer.sock)
        elif self.refused():
            self.sock.stack.forget(self.sock)

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
