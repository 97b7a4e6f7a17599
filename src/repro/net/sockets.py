"""The BSD-style socket layer: sockets, demux, and syscall handlers.

This is "the socket abstraction" the paper leverages for
transport-protocol-independent checkpointing.  Three properties matter:

* every socket carries a full option table accessible through
  ``getsockopt``/``setsockopt`` (see :mod:`repro.net.sockopt`);
* every socket has a **dispatch vector** — a per-socket table mapping
  the interface operations (``recvmsg``, ``poll``, ``sendmsg``,
  ``release``) to implementation functions.  "Interposition is realized
  by altering the socket's dispatch vector": the ZapC alternate receive
  queue swaps entries here and reinstalls the originals once drained;
* protocol machinery hangs off the socket (:class:`~repro.net.tcp.TcpConn`
  or :class:`~repro.net.udp.DatagramConn`) with a small, well-identified
  protocol-control-block for TCP.

One :class:`NetStack` per node owns the NIC, the netfilter table, demux
tables and ephemeral-port allocation, and registers the socket syscalls
with the node kernel.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..errors import SyscallError
from ..vos.kernel import Kernel, _alloc_fd
from ..vos.syscalls import BLOCK, Complete, Errno
from .addr import ANY_IP, Endpoint
from .fabric import Fabric
from .netfilter import Netfilter
from .packet import RST_ACK, Packet, Segment
from .sockopt import default_options, validate_option
from .tcp import CLOSED, ESTABLISHED, LISTEN, SYN_RCVD, TcpConn
from .udp import DatagramConn

#: recv/send flag bits (subset of POSIX).
MSG_PEEK = 0x1
MSG_OOB = 0x2
#: internal flag: a parked recvfrom wants (data, source) back.
_MSG_WANT_SRC = 0x8000

_EPHEMERAL_BASE = 32768


class IdentityVNet:
    """Address translation for host-only setups: virtual == real."""

    def resolve(self, ip: str) -> str:
        """Map a virtual address to the real address hosting it."""
        return ip


class PollWait:
    """One parked poll(2) call spanning several sockets.

    ``entries`` are ``(fd, socket, interest-mask)`` triples; only events
    in the mask (a subset of ``{"r", "w"}``) can complete the poll.
    """

    def __init__(self, proc: Any, entries: List[Tuple[int, "Socket", Set[str]]],
                 timer_handle: Any) -> None:
        self.proc = proc
        self.entries = entries
        self.timer_handle = timer_handle
        self.done = False


class Socket:
    """One communication endpoint (TCP, UDP or raw)."""

    kind = "socket"

    def __init__(self, stack: "NetStack", proto: str, sock_id: int) -> None:
        self.stack = stack
        self.proto = proto
        self.sock_id = sock_id
        self.options: Dict[str, Any] = default_options(proto)
        self.local: Optional[Endpoint] = None
        self.remote: Optional[Endpoint] = None
        self.listening = False
        self.accept_q: List["Socket"] = []
        self.listener: Optional["Socket"] = None
        self.closed = False
        self.was_reset = False
        self.rd_closed = False
        # waiters
        self.recv_waiters: List[Tuple[Any, int, int]] = []
        #: (proc, bytes still to accept, flags, bytes accepted so far)
        self.send_waiters: List[Tuple[Any, bytes, int, int]] = []
        self.accept_waiters: List[Any] = []
        self.connect_waiter: Optional[Any] = None
        self.poll_waiters: List[PollWait] = []
        self._waking_readers = False
        self._waking_writers = False
        # protocol machinery
        self.conn: Any = TcpConn(self) if proto == "tcp" else DatagramConn(self)
        #: the per-socket dispatch vector ZapC interposes on.
        self.dispatch: Dict[str, Any] = {
            "recvmsg": default_recvmsg,
            "sendmsg": default_sendmsg,
            "poll": default_poll,
            "release": default_release,
        }

    # ------------------------------------------------------------------
    # event hooks called by the protocol layer
    # ------------------------------------------------------------------
    def on_readable(self) -> None:
        """Data (or EOF) became available: service readers and pollers.

        Re-entrancy guard: servicing a reader runs ``recvmsg``, which
        processes the backlog, which can raise ``on_readable`` again; the
        outer loop re-checks after every completion, so the nested call
        can simply return.
        """
        if self._waking_readers:
            return
        kernel = self.stack.kernel
        self._waking_readers = True
        try:
            while self.recv_waiters:
                proc, n, flags = self.recv_waiters[0]
                value = self.dispatch["recvmsg"](self.stack, self, n, flags)
                if value is None:
                    break
                self.recv_waiters.pop(0)
                kernel.complete_syscall(proc, value)
        finally:
            self._waking_readers = False
        self._poll_wake()

    def on_writable(self) -> None:
        """Send-buffer space freed: service blocked writers and pollers.

        A parked writer may drain in several steps (its payload can be
        larger than the whole send buffer); the waiter entry tracks the
        bytes already accepted and completes with the full count.
        """
        if self._waking_writers:
            return
        kernel = self.stack.kernel
        self._waking_writers = True
        try:
            while self.send_waiters:
                proc, data, flags, acc = self.send_waiters[0]
                value = self.dispatch["sendmsg"](self.stack, self, data, flags)
                if value is None:
                    break
                if isinstance(value, Errno):
                    self.send_waiters.pop(0)
                    kernel.complete_syscall(proc, value)
                    continue
                if value < len(data):
                    self.send_waiters[0] = (proc, data[value:], flags, acc + value)
                    _trim_blocked_send(proc, data[value:])
                    continue
                self.send_waiters.pop(0)
                kernel.complete_syscall(proc, acc + value)
        finally:
            self._waking_writers = False
        self._poll_wake()

    def on_connected(self) -> None:
        """Active open finished: wake the connector."""
        if self.connect_waiter is not None:
            waiter, self.connect_waiter = self.connect_waiter, None
            self.stack.kernel.complete_syscall(waiter, 0)
        self._poll_wake()

    def on_accept_ready(self) -> None:
        """Passive open finished (this socket is the new child)."""
        listener = self.listener
        if listener is None or listener.closed:
            return
        listener.accept_q.append(self)
        listener._service_accepts()

    def _service_accepts(self) -> None:
        kernel = self.stack.kernel
        while self.accept_waiters and self.accept_q:
            proc = self.accept_waiters.pop(0)
            child = self.accept_q.pop(0)
            fd = _alloc_fd(proc, child)
            kernel.complete_syscall(proc, (fd, child.remote))
        self._poll_wake()

    def on_reset(self) -> None:
        """Connection reset: error out every parked operation."""
        self.was_reset = True
        kernel = self.stack.kernel
        if self.connect_waiter is not None:
            waiter, self.connect_waiter = self.connect_waiter, None
            kernel.complete_syscall(waiter, Errno("ECONNREFUSED", str(self.remote)))
        for proc, _n, _f in self.recv_waiters:
            kernel.complete_syscall(proc, Errno("ECONNRESET"))
        self.recv_waiters.clear()
        for proc, _d, _f, _acc in self.send_waiters:
            kernel.complete_syscall(proc, Errno("ECONNRESET"))
        self.send_waiters.clear()
        self._poll_wake()

    def _poll_wake(self) -> None:
        if not self.poll_waiters:
            return
        for pw in list(self.poll_waiters):
            self.stack.service_poll(pw)

    def release(self, kernel: Any, proc: Any) -> None:
        """fd-close entry point: routes through the dispatch vector so
        checkpoint interposition observes the release."""
        self.dispatch["release"](self.stack, self, proc)

    def drop_waiter(self, proc: Any) -> None:
        """Purge ``proc`` from every wait list (process killed)."""
        self.recv_waiters = [w for w in self.recv_waiters if w[0] is not proc]
        self.send_waiters = [w for w in self.send_waiters if w[0] is not proc]
        self.accept_waiters = [w for w in self.accept_waiters if w is not proc]
        if self.connect_waiter is proc:
            self.connect_waiter = None
        self.poll_waiters = [pw for pw in self.poll_waiters if pw.proc is not proc]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Socket(#{self.sock_id} {self.proto} {self.local}->{self.remote})"


# ---------------------------------------------------------------------------
# default dispatch-vector implementations
# ---------------------------------------------------------------------------


def default_recvmsg(stack: "NetStack", sock: Socket, n: int, flags: int) -> Any:
    """Try to satisfy a receive; ``None`` means "would block".

    Taking the socket lock processes the backlog first — the detail that
    makes kernel-path reads complete where peeks are not.
    """
    if sock.proto == "tcp":
        conn: TcpConn = sock.conn
        if conn.backlog or conn._backlog_kick is not None:
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


def default_sendmsg(stack: "NetStack", sock: Socket, data: bytes, flags: int,
                    queue_if_full: bool = False) -> Any:
    """Try to transmit; returns the byte count *accepted* (possibly short
    of ``len(data)`` when the send buffer fills — the caller loops, as a
    real kernel does inside a blocking send).  ``None`` means nothing
    could be accepted at all (would block)."""
    if sock.proto == "tcp":
        conn: TcpConn = sock.conn
        if conn.state != ESTABLISHED or conn.fin_sent:
            return Errno("EPIPE", "not connected")
        if flags & MSG_OOB:
            return conn.app_write_oob(data)
        room = conn.sndbuf() - len(conn.send_buf)
        if queue_if_full:
            room = len(data)
        if room <= 0:
            if sock.options.get("O_NONBLOCK"):
                return Errno("EWOULDBLOCK")
            return None
        take = min(room, len(data))
        conn.app_write(bytes(data[:take]))
        return take
    dconn: DatagramConn = sock.conn
    if dconn.default_peer is None:
        return Errno("ENOTCONN", "datagram socket has no default peer")
    return dconn.app_send(bytes(data), dconn.default_peer)


def default_poll(stack: "NetStack", sock: Socket) -> Set[str]:
    """Poll readiness for one socket: subset of {'r', 'w'}."""
    events: Set[str] = set()
    if sock.proto == "tcp":
        conn: TcpConn = sock.conn
        if conn.backlog or conn._backlog_kick is not None:
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
            conn.reap()     # a refused connect
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


def _trim_blocked_send(proc: Any, remaining: bytes) -> None:
    """Canonicalize a partially-accepted blocking send.

    The accepted prefix now lives in the send queue (and will be part of
    a checkpoint's captured queue); the blocked-syscall record must hold
    only the *remaining* bytes so a post-restart re-issue does not send
    the prefix twice.
    """
    from ..vos.process import SyscallRequest

    req = getattr(proc, "blocked_on", None)
    if req is not None and req.name in ("send", "write") and len(req.args) >= 2:
        args = (req.args[0], bytes(remaining)) + tuple(req.args[2:])
        proc.blocked_on = SyscallRequest(req.name, args, req.dst)


# ---------------------------------------------------------------------------
# the per-node stack
# ---------------------------------------------------------------------------


class NetStack:
    """One node's network stack: NIC + netfilter + demux + syscalls."""

    def __init__(self, kernel: Kernel, fabric: Fabric, primary_ip: str,
                 vnet: Optional[Any] = None) -> None:
        self.kernel = kernel
        self.engine = kernel.engine
        self.fabric = fabric
        self.vnet = vnet if vnet is not None else IdentityVNet()
        self.nic = fabric.attach(primary_ip)
        self.nic.ingress = self._ingress
        self.netfilter = Netfilter()
        self.primary_ip = primary_ip
        self._next_sock_id = 1
        self._next_port = _EPHEMERAL_BASE
        #: (proto, ip, port) -> socket, for listeners and datagram sockets.
        self.bound: Dict[Tuple[str, str, int], Socket] = {}
        #: (proto, local ep, remote ep) -> socket, for TCP connections.
        self.established: Dict[Tuple[str, Endpoint, Endpoint], Socket] = {}
        #: non-socket protocol handlers (kernel-bypass devices register
        #: here): proto name -> callable(packet).
        self.extra_protocols: Dict[str, Any] = {}
        kernel.nic = self.nic
        kernel.netstack = self
        kernel.wait_cancellers.append(self._cancel_waits)
        install_socket_syscalls(kernel, self)

    # ------------------------------------------------------------------
    # socket management
    # ------------------------------------------------------------------
    def create_socket(self, proto: str) -> Socket:
        """Allocate a fresh socket of ``proto`` ("tcp" | "udp" | "raw")."""
        if proto not in ("tcp", "udp", "raw"):
            raise SyscallError("EPROTONOSUPPORT", proto)
        sock = Socket(self, proto, self._next_sock_id)
        self._next_sock_id += 1
        return sock

    def default_ip(self, proc: Any) -> str:
        """The address a socket binds to by default: the pod's virtual
        address for pod processes, the node address for host callers."""
        pod_id = getattr(proc, "pod_id", None)
        if pod_id is not None:
            pod = self.kernel.pods.get(pod_id)
            if pod is not None:
                return pod.vip
        return self.primary_ip

    def alloc_port(self, proto: str, ip: str) -> int:
        """Pick a free ephemeral port on ``ip``."""
        for _ in range(30000):
            port = self._next_port
            self._next_port += 1
            if self._next_port >= 61000:
                self._next_port = _EPHEMERAL_BASE
            if (proto, ip, port) not in self.bound:
                return port
        raise SyscallError("EADDRINUSE", "ephemeral ports exhausted")

    def bind_socket(self, sock: Socket, ip: str, port: int) -> Endpoint:
        """Bind (registering in the demux table); port 0 = ephemeral."""
        if sock.local is not None:
            raise SyscallError("EINVAL", "already bound")
        if port == 0:
            port = self.alloc_port(sock.proto, ip)
        key = (sock.proto, ip, port)
        if key in self.bound and not sock.options.get("SO_REUSEADDR"):
            raise SyscallError("EADDRINUSE", f"{ip}:{port}")
        sock.local = Endpoint(ip, port)
        self.bound[key] = sock
        return sock.local

    def unbind(self, sock: Socket) -> None:
        """Remove a socket's demux entries."""
        if sock.local is not None:
            self.bound.pop((sock.proto, sock.local.ip, sock.local.port), None)
        if sock.remote is not None:
            self.established.pop((sock.proto, sock.local, sock.remote), None)

    def register_established(self, sock: Socket, remote: Endpoint) -> None:
        """Insert a TCP socket into the connection demux."""
        sock.remote = remote
        self.established[(sock.proto, sock.local, remote)] = sock

    def forget(self, sock: Socket) -> None:
        """Drop a reaped TCP connection's demux entries — only its own:
        an entry may already name the socket that replaced it."""
        local = sock.local
        for table, key in ((self.established, (sock.proto, local, sock.remote)),
                           (self.bound, (sock.proto, local.ip, local.port))):
            if table.get(key) is sock:
                del table[key]

    def _cancel_waits(self, proc: Any) -> None:
        """Purge an exiting ``proc`` from the sockets someone waits on —
        a closed connection still in the tables (its FINs or its peer's
        close outstanding) holds no waiter to purge."""
        for table in (self.bound, self.established):
            for sock in table.values():
                if sock.recv_waiters or sock.send_waiters \
                        or sock.accept_waiters or sock.poll_waiters \
                        or sock.connect_waiter is not None:
                    sock.drop_waiter(proc)

    def abort_sockets_of(self, ip: str) -> int:
        """Silently destroy every socket bound to ``ip`` (pod teardown).

        Unlike close, nothing is transmitted — no FIN, no RST, and all
        timers stop.  A destroyed (migrated) pod's old sockets must not
        talk to anyone: their connections have been re-established
        elsewhere with fresh state, and a stale retransmission reaching
        the restored connection would corrupt it.
        """
        count = 0
        aborted = []
        for table in (self.bound, self.established):
            for key in [k for k in table if k[1] == ip or (hasattr(k[1], "ip") and k[1].ip == ip)]:
                sock = table.pop(key)
                sock.closed = True
                if sock.proto == "tcp":
                    sock.conn._cancel_rto()
                    if sock.conn._backlog_kick is not None:
                        sock.conn._backlog_kick.cancel()
                        sock.conn._backlog_kick = None
                    aborted.append(sock.conn)
                count += 1
        for conn in aborted:  # its peer may have waited only for this end
            conn.reap()
        return count

    # ------------------------------------------------------------------
    # wire I/O
    # ------------------------------------------------------------------
    def transmit(self, sock: Socket, segment: Optional[Segment] = None,
                 payload: bytes = b"", dst: Optional[Endpoint] = None) -> None:
        """Send one packet from ``sock`` (netfilter checked at egress).

        The rule table and the address translation are consulted per
        packet — a checkpoint raises the filter and a migration re-homes
        an address between any two of them — and the packet goes straight
        onto this node's egress link.
        """
        local = sock.local
        target = dst if dst is not None else sock.remote
        if target is None or local is None:
            raise SyscallError("ENOTCONN", "unaddressed transmit")
        pkt = Packet(sock.proto, local, target, payload, segment)
        if not self.netfilter.permits(pkt):
            return  # egress blocked (checkpoint freeze)
        resolve = self.vnet.resolve
        pkt.real_src = resolve(local.ip)
        pkt.real_dst = resolve(target.ip)
        if segment is not None:
            conn = pkt.conn = sock.conn
            conn.on_wire += 1
        self.fabric.transmit(self.nic, pkt)

    def _ingress(self, pkt: Packet) -> None:
        if not self.netfilter.permits(pkt):
            if pkt.conn is not None:
                pkt.conn.landed()
            return  # ingress blocked (checkpoint freeze)
        proto = pkt.proto
        if proto == "tcp":
            sock = self.established.get((proto, pkt.dst, pkt.src))
            if sock is not None:
                sock.conn.deliver(pkt.segment)
            else:
                self._ingress_unconnected(pkt)
            if pkt.conn is not None:  # a hand-built packet has none
                pkt.conn.landed()
        elif proto in self.extra_protocols:
            self.extra_protocols[proto](pkt)
        else:
            self._ingress_datagram(pkt)

    def _ingress_unconnected(self, pkt: Packet) -> None:
        """A TCP segment no connection claims: a SYN for a listener, or
        something to refuse."""
        flags = pkt.segment.flags
        if "SYN" in flags and "ACK" not in flags:
            listener = self.bound.get(("tcp", pkt.dst.ip, pkt.dst.port))
            if listener is None:
                listener = self.bound.get(("tcp", ANY_IP, pkt.dst.port))
            if listener is not None and listener.listening and not listener.closed:
                child = self._spawn_child(listener, pkt).conn
                child.peer, pkt.conn.peer = pkt.conn, child  # the pair, for TcpConn.reap
                return
        if "RST" in flags:
            return
        # No home for this segment: refuse actively opened connections.
        if "SYN" in flags:
            rst = Packet("tcp", pkt.dst, pkt.src,
                         segment=Segment(seq=0, ack=pkt.segment.seq + 1, flags=RST_ACK))
            rst.real_src = self.vnet.resolve(pkt.dst.ip)
            rst.real_dst = self.vnet.resolve(pkt.src.ip)
            conn = rst.conn = pkt.conn   # counted on the wire as its SYN's
            if conn is not None:
                conn.on_wire += 1
            self.fabric.transmit(self.nic, rst)

    def _spawn_child(self, listener: Socket, pkt: Packet) -> Socket:
        child = self.create_socket("tcp")
        child.options = dict(listener.options)  # children inherit options
        child.local = Endpoint(pkt.dst.ip, pkt.dst.port)  # inherits the port
        child.listener = listener
        self.register_established(child, pkt.src)
        conn: TcpConn = child.conn
        conn.pcb.rcv_nxt = pkt.segment.seq + 1
        conn.start_passive()
        return child

    def _ingress_datagram(self, pkt: Packet) -> None:
        sock = self.bound.get((pkt.proto, pkt.dst.ip, pkt.dst.port))
        if sock is None:
            sock = self.bound.get((pkt.proto, ANY_IP, pkt.dst.port))
        if sock is not None and not sock.closed:
            sock.conn.deliver(pkt.payload, pkt.src)

    # ------------------------------------------------------------------
    # poll support
    # ------------------------------------------------------------------
    def service_poll(self, pw: PollWait) -> None:
        """Re-evaluate a parked poll; complete it when anything is ready."""
        if pw.done:
            return
        ready = []
        for fd, sock, mask in pw.entries:
            events = sock.dispatch["poll"](self, sock) & mask
            if events:
                ready.append((fd, "".join(sorted(events))))
        if ready:
            self._finish_poll(pw, ready)

    def _finish_poll(self, pw: PollWait, result: List[Tuple[int, str]]) -> None:
        pw.done = True
        if pw.timer_handle is not None:
            pw.timer_handle.cancel()
        for _fd, sock, _mask in pw.entries:
            if pw in sock.poll_waiters:
                sock.poll_waiters.remove(pw)
        self.kernel.complete_syscall(pw.proc, result)

    # ------------------------------------------------------------------
    # introspection for the checkpoint layer
    # ------------------------------------------------------------------
    def sockets_of(self, procs: List[Any]) -> List[Tuple[Any, int, Socket]]:
        """All (proc, fd, socket) triples across ``procs``, fd-ordered."""
        out = []
        for proc in procs:
            for fd in sorted(proc.fds):
                obj = proc.fds[fd]
                if isinstance(obj, Socket):
                    out.append((proc, fd, obj))
        return out


# ---------------------------------------------------------------------------
# syscall handlers
# ---------------------------------------------------------------------------


def install_socket_syscalls(kernel: Kernel, stack: NetStack) -> None:
    """Register every socket syscall on ``kernel`` bound to ``stack``."""

    def _sock(proc: Any, fd: int) -> Socket:
        obj = proc.fds.get(fd)
        if not isinstance(obj, Socket):
            raise SyscallError("EBADF", f"fd {fd} is not a socket")
        return obj

    def sys_socket(kern, proc, args, restarted):
        (proto,) = args
        sock = stack.create_socket(proto)
        return Complete(_alloc_fd(proc, sock))

    def sys_bind(kern, proc, args, restarted):
        fd, addr = args
        sock = _sock(proc, fd)
        ip, port = addr
        if ip in ("", None, "default"):
            ip = stack.default_ip(proc)
        ep = stack.bind_socket(sock, ip, int(port))
        return Complete(tuple(ep))

    def sys_listen(kern, proc, args, restarted):
        fd, _backlog = args
        sock = _sock(proc, fd)
        if sock.proto != "tcp":
            raise SyscallError("EOPNOTSUPP", "listen on datagram socket")
        if sock.local is None:
            raise SyscallError("EINVAL", "listen before bind")
        sock.listening = True
        sock.conn.state = LISTEN
        return Complete(0)

    def sys_accept(kern, proc, args, restarted):
        (fd,) = args
        sock = _sock(proc, fd)
        if not sock.listening:
            raise SyscallError("EINVAL", "accept on non-listening socket")
        if sock.accept_q:
            child = sock.accept_q.pop(0)
            newfd = _alloc_fd(proc, child)
            return Complete((newfd, child.remote))
        if sock.options.get("O_NONBLOCK"):
            return Complete(Errno("EWOULDBLOCK"))
        sock.accept_waiters.append(proc)
        return BLOCK

    def sys_connect(kern, proc, args, restarted):
        fd, addr = args
        sock = _sock(proc, fd)
        target = Endpoint(addr[0], int(addr[1]))
        if sock.proto != "tcp":
            sock.conn.default_peer = target
            if sock.local is None:
                stack.bind_socket(sock, stack.default_ip(proc), 0)
            return Complete(0)
        conn: TcpConn = sock.conn
        if conn.state == ESTABLISHED:
            return Complete(0)  # re-issued after restart: already connected
        if conn.state != CLOSED:
            raise SyscallError("EALREADY", "connect in progress")
        if sock.local is None:
            stack.bind_socket(sock, stack.default_ip(proc), 0)
        stack.register_established(sock, target)
        conn.start_connect()
        sock.connect_waiter = proc
        return BLOCK

    def sys_send(kern, proc, args, restarted):
        fd, data, flags = args
        sock = _sock(proc, fd)
        value = sock.dispatch["sendmsg"](stack, sock, data, flags)
        if value is None:
            sock.send_waiters.append((proc, data, flags, 0))
            return BLOCK
        if isinstance(value, int) and not isinstance(value, bool) and value < len(data):
            # partially accepted: block until the rest drains
            sock.send_waiters.append((proc, data[value:], flags, value))
            _trim_blocked_send(proc, data[value:])
            return BLOCK
        return Complete(value)

    def sys_sendto(kern, proc, args, restarted):
        fd, data, addr = args
        sock = _sock(proc, fd)
        if sock.proto == "tcp":
            raise SyscallError("EISCONN", "sendto on stream socket")
        if sock.local is None:
            stack.bind_socket(sock, stack.default_ip(proc), 0)
        return Complete(sock.conn.app_send(bytes(data), Endpoint(addr[0], int(addr[1]))))

    def sys_recv(kern, proc, args, restarted):
        fd, n, flags = args
        sock = _sock(proc, fd)
        value = sock.dispatch["recvmsg"](stack, sock, int(n), int(flags))
        if value is None:
            sock.recv_waiters.append((proc, int(n), int(flags)))
            return BLOCK
        return Complete(value)

    def sys_recvfrom(kern, proc, args, restarted):
        fd, n, flags = args
        sock = _sock(proc, fd)
        if sock.proto == "tcp":
            raise SyscallError("EOPNOTSUPP", "recvfrom on stream socket")
        dconn: DatagramConn = sock.conn
        got = dconn.try_recv(int(n), peek=bool(int(flags) & MSG_PEEK))
        if got is not None:
            return Complete((got[0], tuple(got[1])))
        if sock.options.get("O_NONBLOCK"):
            return Complete(Errno("EWOULDBLOCK"))
        sock.recv_waiters.append((proc, int(n), int(flags) | _MSG_WANT_SRC))
        return BLOCK

    def sys_shutdown(kern, proc, args, restarted):
        fd, how = args
        sock = _sock(proc, fd)
        if how not in ("rd", "wr", "rdwr"):
            raise SyscallError("EINVAL", f"shutdown how={how!r}")
        if "wr" in how or how == "rdwr":
            if sock.proto == "tcp":
                sock.conn.app_close()
        if "rd" in how or how == "rdwr":
            sock.rd_closed = True
            sock.on_readable()  # EOF wakes readers
        return Complete(0)

    def sys_getsockopt(kern, proc, args, restarted):
        fd, name = args
        sock = _sock(proc, fd)
        if name not in sock.options:
            raise SyscallError("ENOPROTOOPT", name)
        return Complete(sock.options[name])

    def sys_setsockopt(kern, proc, args, restarted):
        fd, name, value = args
        sock = _sock(proc, fd)
        sock.options[name] = validate_option(sock.proto, name, value)
        return Complete(0)

    def sys_getsockname(kern, proc, args, restarted):
        (fd,) = args
        sock = _sock(proc, fd)
        if sock.local is None:
            raise SyscallError("EINVAL", "unbound socket")
        return Complete(tuple(sock.local))

    def sys_getpeername(kern, proc, args, restarted):
        (fd,) = args
        sock = _sock(proc, fd)
        if sock.remote is None:
            raise SyscallError("ENOTCONN", "no peer")
        return Complete(tuple(sock.remote))

    def sys_poll(kern, proc, args, restarted):
        """poll(fds, timeout): each fd spec is ``fd`` (interest = rw) or
        ``(fd, "r"|"w"|"rw")``; returns [(fd, events)] or [] on timeout."""
        fds, timeout = args
        entries = []
        for spec in fds:
            if isinstance(spec, (tuple, list)):
                fd, mask = spec
            else:
                fd, mask = spec, "rw"
            entries.append((fd, _sock(proc, fd), set(mask)))
        ready = []
        for fd, sock, mask in entries:
            events = sock.dispatch["poll"](stack, sock) & mask
            if events:
                ready.append((fd, "".join(sorted(events))))
        if ready or timeout == 0:
            return Complete(ready)
        pw = PollWait(proc, entries, None)
        if timeout is not None and timeout > 0:
            pw.timer_handle = kernel.engine.schedule(
                float(timeout), stack._finish_poll, pw, [])
        for _fd, sock, _mask in entries:
            sock.poll_waiters.append(pw)
        return BLOCK

    handlers = {
        "socket": sys_socket,
        "bind": sys_bind,
        "listen": sys_listen,
        "accept": sys_accept,
        "connect": sys_connect,
        "send": sys_send,
        "sendto": sys_sendto,
        "recv": sys_recv,
        "recvfrom": sys_recvfrom,
        "shutdown": sys_shutdown,
        "getsockopt": sys_getsockopt,
        "setsockopt": sys_setsockopt,
        "getsockname": sys_getsockname,
        "getpeername": sys_getpeername,
        "poll": sys_poll,
    }
    for name, handler in handlers.items():
        kernel.register_syscall(name, handler)
