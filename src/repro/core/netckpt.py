"""Network-state checkpoint and restore (Section 5 of the paper).

Capture, per socket:

* **socket parameters** — the entire option set, through the same
  key/value surface ``getsockopt``/``setsockopt`` expose;
* **receive queue** — a *destructive read through the standard
  interface* (which takes the socket lock, draining the backlog — the
  data peek-based approaches miss) while simultaneously re-injecting the
  data into an :class:`~repro.core.altqueue.AltQueue`, so an application
  that resumes after a snapshot still reads it first; urgent/OOB data is
  captured the same way via ``MSG_OOB``;
* **send queue** — a non-destructive walk of the in-kernel send buffers;
* **protocol-specific state** — for reliable protocols, exactly the PCB
  sequence numbers (*sent*, *acked*, *recv*); for unreliable protocols,
  nothing beyond the queues (datagram queues are directly inspectable).

Restore (on the already re-established connection): options first, then
the alternate receive queue, then the send queue re-sent by ordinary
writes after discarding the overlap the Manager computed, then the
half-duplex/closed shutdown state.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..errors import CheckpointError
from ..net.sockets import MSG_OOB, NetStack, Socket
from . import codec
from ..net.sockopt import validate_option
from ..net.tcp import ESTABLISHED, TcpConn
from ..pod.pod import Pod
from .altqueue import AltQueue, install

#: chunk size for the capture read loop.
_READ_CHUNK = 65536
#: per-record fixed share of the netstate accounting: endpoints, flags
#: and shutdown state (small scalars the record always carries).
_ENDPOINT_OVERHEAD = 48


# ---------------------------------------------------------------------------
# capture
# ---------------------------------------------------------------------------


def capture_socket(stack: NetStack, sock: Socket) -> Dict[str, Any]:
    """Capture one socket's full state into a serializable record."""
    rec: Dict[str, Any] = {
        "sock_id": sock.sock_id,
        "proto": sock.proto,
        "local": tuple(sock.local) if sock.local else None,
        "remote": tuple(sock.remote) if sock.remote else None,
        "listening": sock.listening,
        "origin": ("accepted" if sock.listener is not None else "initiated"),
        "options": dict(sock.options),
        "rd_closed": sock.rd_closed,
        "meta_state": None,
        "recv_data": b"",
        "oob_data": b"",
        "send_data": b"",
        "pcb": None,
        "fin_sent": False,
        "fin_rcvd": False,
        "datagrams": [],
        "peeked": False,
        "default_peer": None,
        "pending_accept_of": None,
    }
    if sock.proto == "tcp":
        _capture_tcp(stack, sock, rec)
    else:
        _capture_datagram(sock, rec)
    return rec


def _capture_tcp(stack: NetStack, sock: Socket, rec: Dict[str, Any]) -> None:
    conn: TcpConn = sock.conn
    if sock.listening:
        return
    # Take the socket lock FIRST: draining the backlog can advance
    # rcv_nxt, and the PCB snapshot must reflect everything the queues
    # will contain.  (Snapshotting the PCB before the drain understates
    # ``recv``, shrinking the peer's overlap discard and duplicating
    # exactly the backlogged bytes after restart.)
    conn.process_backlog()
    rec["meta_state"] = conn.meta_state()
    rec["pcb"] = conn.pcb.snapshot()
    rec["fin_sent"] = conn.fin_sent
    rec["fin_rcvd"] = conn.fin_rcvd
    rec["peeked"] = conn.peeked

    # Destructive read through the dispatch vector.  Reading through the
    # standard path (a) takes the socket lock, draining the backlog, and
    # (b) consumes any live alternate queue first, which is exactly the
    # "checkpoint must save the state of the alternate queue" case.
    chunks: List[bytes] = []
    while True:
        value = sock.dispatch["recvmsg"](stack, sock, _READ_CHUNK, 0)
        if not isinstance(value, (bytes, bytearray)) or value == b"":
            break
        chunks.append(bytes(value))
    data = b"".join(chunks)

    oob_chunks: List[bytes] = []
    while True:
        value = sock.dispatch["recvmsg"](stack, sock, _READ_CHUNK, MSG_OOB)
        if not isinstance(value, (bytes, bytearray)) or value == b"":
            break
        oob_chunks.append(bytes(value))
    oob = b"".join(oob_chunks)

    rec["recv_data"] = data
    rec["oob_data"] = oob
    # ... while at the same time injecting it back: the application (if
    # this checkpoint is a snapshot rather than a migration) must still
    # read this data before anything newly arriving.
    if data or oob:
        install(sock, AltQueue(data, oob))

    # Send queue: non-destructive in-kernel walk.
    rec["send_data"] = conn.walk_send_queue()


def _capture_datagram(sock: Socket, rec: Dict[str, Any]) -> None:
    dconn = sock.conn
    # Datagram queues are plain lists of buffers: directly inspectable
    # without side effects (no reinjection dance needed).
    rec["datagrams"] = [(bytes(d), tuple(src)) for d, src in dconn.recv_q]
    rec["peeked"] = dconn.peeked
    rec["default_peer"] = tuple(dconn.default_peer) if dconn.default_peer else None


def capture_pod_network(pod: Pod) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """Capture every socket reachable from a pod's processes.

    Returns ``(socket_records, fd_table)`` where the fd table rows are
    ``{"vpid", "fd", "sock_id"}`` links used at restart to transplant
    restored sockets back into process fd tables.  Sockets parked in a
    listener's accept queue (established but never accepted) are captured
    too, flagged with ``pending_accept_of``.
    """
    stack: NetStack = pod.kernel.netstack
    records: List[Dict[str, Any]] = []
    fd_table: List[Dict[str, Any]] = []
    seen: set = set()
    for proc, fd, sock in stack.sockets_of(pod.processes()):
        if sock.sock_id not in seen:
            seen.add(sock.sock_id)
            records.append(capture_socket(stack, sock))
        fd_table.append({"vpid": proc.vpid, "fd": fd, "sock_id": sock.sock_id})
        if sock.listening:
            for child in sock.accept_q:
                if child.sock_id in seen:
                    continue
                seen.add(child.sock_id)
                child_rec = capture_socket(stack, child)
                child_rec["pending_accept_of"] = sock.sock_id
                records.append(child_rec)
    return records, fd_table


def seal_control(records: List[Dict[str, Any]]) -> None:
    """Encode each record's socket parameters and protocol control block
    now, once: ``options`` and ``pcb`` become :class:`codec.Fragment` s
    that the size accounting, the meta-data message and every pack of
    this capture splice instead of walking again.  For the owner of a
    capture that will be encoded (the Agent); a record that is read back
    (:func:`restore_socket_state`) stays as captured."""
    for rec in records:
        rec["options"] = codec.fragment(rec["options"])
        rec["pcb"] = codec.fragment(rec["pcb"])


def control_nbytes(records: List[Dict[str, Any]]) -> int:
    """Socket parameters and protocol control blocks of one capture,
    measured exactly in the intermediate format, plus the fixed endpoint
    share per record.  Fixed at capture — nothing after it (the
    send-queue redirect included) touches ``options`` or ``pcb`` — which
    is why :func:`seal_control` may fix their bytes there: a sealed
    block measures as its length."""
    return sum(codec.encoded_size(rec["options"]) + codec.encoded_size(rec["pcb"])
               + _ENDPOINT_OVERHEAD for rec in records)


def netstate_nbytes(records: List[Dict[str, Any]]) -> int:
    """Bytes of captured network state (queues + options), the quantity
    the paper reports as "only a few kilobytes"."""
    total = control_nbytes(records)
    for rec in records:
        total += len(rec["recv_data"]) + len(rec["oob_data"]) + len(rec["send_data"])
        total += sum(len(d) for d, _ in rec["datagrams"])
    return total


# ---------------------------------------------------------------------------
# network block window
# ---------------------------------------------------------------------------


def block_pod_network(cluster, stack: NetStack, pod: Pod, node: str = None,
                      parent=None):
    """Raise the netfilter around a pod and open its trace window.

    The paper's protocol keeps the pod's network silent from suspend
    until the Manager's ``continue`` — this helper pairs the filter rule
    with an ``agent.net_block`` window span so an exported trace shows
    exactly how long every pod was dark.  Returns the window span (a
    no-op object when no tracer is installed); close it with
    :func:`unblock_pod_network`.
    """
    stack.netfilter.block_ip(pod.vip)
    return cluster.span("agent.net_block", node=node, pod=pod.id,
                        parent=parent, category="window")


def unblock_pod_network(stack: NetStack, pod: Pod, window,
                        status: str = "ok") -> None:
    """Drop the netfilter rule and close the block-window span."""
    stack.netfilter.unblock_ip(pod.vip)
    window.end(status=status)


# ---------------------------------------------------------------------------
# restore
# ---------------------------------------------------------------------------


def restore_socket_state(
    stack: NetStack,
    sock: Socket,
    rec: Dict[str, Any],
    send_discard: int = 0,
    redirect_extra: bytes = b"",
) -> None:
    """Reinstate one socket's checkpointed state on a live socket.

    ``sock`` is the freshly re-established connection (or re-created
    datagram socket); ``send_discard`` is the overlap trim the Manager
    computed; ``redirect_extra`` is the peer's migrated send-queue data
    to append to the alternate queue (the Section 5 optimization),
    already trimmed by the peer's own discard.
    """
    # socket parameters, the full set, via the standard interface
    for name, value in rec["options"].items():
        sock.options[name] = validate_option(sock.proto, name, value)
    sock.rd_closed = rec["rd_closed"]

    if sock.proto != "tcp":
        dconn = sock.conn
        for data, src in rec["datagrams"]:
            dconn.recv_q.append((bytes(data), _ep(src)))
        dconn.peeked = rec["peeked"]
        if rec["default_peer"] is not None:
            dconn.default_peer = _ep(rec["default_peer"])
        if rec["datagrams"]:
            sock.on_readable()
        return

    if sock.listening or rec["listening"]:
        return  # listeners have no queue state

    conn: TcpConn = sock.conn
    conn.peeked = rec["peeked"]
    # alternate receive queue: restored data is read before new data
    alt_data = rec["recv_data"] + redirect_extra
    if alt_data or rec["oob_data"]:
        install(sock, AltQueue(alt_data, rec["oob_data"]))
        sock.on_readable()

    # send queue: discard the overlap, re-send the rest by plain writes
    send_data = rec["send_data"]
    if redirect_extra_consumed(rec):
        send_data = b""  # travelled inside the peer's checkpoint stream
    elif send_discard:
        # a FIN the peer had received but whose ACK had not come back is
        # in the overlap (it occupies a sequence slot) yet not in the queue
        if send_discard > len(send_data) + (1 if rec["fin_sent"] else 0):
            raise CheckpointError(
                f"overlap {send_discard} exceeds send queue {len(send_data)}"
            )
        send_data = send_data[send_discard:]
    if send_data and not redirect_extra_consumed(rec):
        if conn.state != ESTABLISHED:
            raise CheckpointError(f"send-queue restore on unconnected socket {sock!r}")
        conn.app_write(bytes(send_data))

    # connection status: half-duplex/closed get their shutdown applied
    # "after the rest of its state has been recovered"
    if rec["fin_sent"]:
        conn.app_close()


def redirect_extra_consumed(rec: Dict[str, Any]) -> bool:
    """True when this socket's send queue was shipped to the peer's
    alternate queue instead (migration redirect optimization)."""
    return bool(rec.get("send_redirected", False))


def _ep(pair: Any):
    from ..net.addr import Endpoint

    return Endpoint(pair[0], int(pair[1]))
