"""Mini-MPI: message-passing middleware built on the socket layer.

A miniature of MPICH-2 sufficient for the paper's workloads: full-mesh
TCP bootstrap, typed point-to-point messages, and tree collectives
(:mod:`~repro.middleware.collectives`).  Everything is emitted as
ordinary program instructions — applications using mini-MPI are
*unmodified* from the checkpointer's point of view, which is the whole
point: ZapC checkpoints MPI applications without any middleware
cooperation, unlike the checkpoint-aware MPI variants of Section 2.

Wire format: 4-byte big-endian length, then a codec-encoded
``(tag, value)`` pair.  Values are anything the intermediate format
supports (notably numpy arrays).

Bootstrap: rank *i* listens on ``base_port + i``; connects to every
lower rank (retrying until the peer listens) and accepts from every
higher rank, which identifies itself with a hello message.  Connect
completes at the transport level without the peer's accept, so the
scheme cannot deadlock.

All emitters take a :class:`~repro.vos.program.ProgramBuilder` and work
with register names; scratch registers are gensym'd so emitters nest.
"""

from __future__ import annotations

import struct
from typing import Any, List, Optional

from ..core import codec
from ..vos.program import Imm, ProgramBuilder, imm

#: first listening port used by rank 0.
DEFAULT_BASE_PORT = 11000

#: register holding the rank→fd connection table.
FDS = "__mpi_fds"
#: register holding this process's rank and the world size.
RANK = "__mpi_rank"
SIZE = "__mpi_size"
#: register holding the unexpected-message queues: src -> [(tag, value)].
UNEXP_REG = "__mpi_unexp"


# ---------------------------------------------------------------------------
# framing helpers (module-level so programs stay registry-rebuildable)
# ---------------------------------------------------------------------------


def _frame(tag: str, value: Any) -> bytes:
    body = codec.encode((tag, value))
    return struct.pack(">I", len(body)) + body


def _need(buf: bytes, n: int) -> bool:
    return len(buf) < n


def _concat(buf: bytes, chunk: bytes) -> bytes:
    if chunk == b"":
        raise ConnectionError("mini-MPI peer closed the connection mid-message")
    return buf + chunk


def _unframe(buf: bytes):
    return codec.decode(buf)


def emit_recv_exact(b: ProgramBuilder, fd_reg: str, nbytes, out_reg: str,
                    seed: Optional[str] = None) -> None:
    """Emit a loop reading exactly ``nbytes`` from a stream socket.

    ``seed`` optionally names a register holding bytes already read
    (counted against ``nbytes``).
    """
    s = b._fresh("rx")
    n = f"{s}_n"
    more = f"{s}_more"
    chunk = f"{s}_c"
    want = f"{s}_w"
    b.mov(n, nbytes if isinstance(nbytes, (Imm, str)) else imm(nbytes))
    if seed is None:
        b.mov(out_reg, imm(b""))
    else:
        b.mov(out_reg, seed)
    b.op(more, _need, out_reg, n)
    with b.while_(more):
        b.op(want, lambda buf, k: k - len(buf), out_reg, n)
        b.syscall(chunk, "recv", fd_reg, want, imm(0))
        b.op(out_reg, _concat, out_reg, chunk)
        b.op(more, _need, out_reg, n)


# ---------------------------------------------------------------------------
# init / finalize
# ---------------------------------------------------------------------------


def emit_init(b: ProgramBuilder, *, rank: int, nprocs: int, vips: List[str],
              base_port: int = DEFAULT_BASE_PORT) -> None:
    """Emit the bootstrap: full-mesh connections into the ``FDS`` table.

    ``vips`` lists every rank's (virtual) address, lowest rank first —
    what mpd distributes in the real system.
    """
    b.mov(RANK, imm(rank))
    b.mov(SIZE, imm(nprocs))
    b.op(FDS, dict)
    b.op(UNEXP_REG, dict)  # unexpected-message queues (matching layer)
    # listen on my well-known port
    lfd = b._fresh("lfd")
    b.syscall(lfd, "socket", imm("tcp"))
    b.syscall(None, "setsockopt", lfd, imm("SO_REUSEADDR"), imm(1))
    b.syscall(None, "bind", lfd, imm(("default", base_port + rank)))
    b.syscall(None, "listen", lfd, imm(max(4, nprocs)))
    b.mov("__mpi_lfd", lfd)
    # connect to all lower ranks (retry until their listener exists)
    for peer in range(rank):
        _emit_connect_to(b, rank, peer, vips[peer], base_port + peer)
    # accept from all higher ranks; each sends a hello naming its rank
    for _ in range(nprocs - 1 - rank):
        _emit_accept_one(b, lfd)


def _emit_connect_to(b: ProgramBuilder, my_rank: int, peer: int, vip: str, port: int) -> None:
    s = b._fresh("conn")
    fd, rc, ok = f"{s}_fd", f"{s}_rc", f"{s}_ok"
    top, done = b._fresh("ctop"), b._fresh("cdone")
    b.label(top)
    b.syscall(fd, "socket", imm("tcp"))
    b.syscall(rc, "connect", fd, imm((vip, port)))
    b.op(ok, lambda r: not hasattr(r, "name"), rc)  # Errno has .name
    with b.if_(ok):
        b.op(FDS, _dict_set(peer), FDS, fd)
        b.syscall(None, "send", fd, imm(_frame("hello", my_rank)), imm(0))
        b.jump(done)
    b.syscall(None, "close", fd)
    b.syscall(None, "sleep", imm(0.002))
    b.jump(top)
    b.label(done)


def _dict_set(key: Any):
    def setter(d: dict, value: Any, _k=key) -> dict:
        d = dict(d)
        d[_k] = value
        return d

    return setter


def _emit_accept_one(b: ProgramBuilder, lfd: str) -> None:
    s = b._fresh("acc")
    conn, fd, hdr, body, msg, peer = (f"{s}_conn", f"{s}_fd", f"{s}_h",
                                      f"{s}_b", f"{s}_m", f"{s}_p")
    b.syscall(conn, "accept", lfd)
    b.op(fd, lambda c: c[0], conn)
    emit_recv_exact(b, fd, imm(4), hdr)
    n = f"{s}_n"
    b.op(n, lambda h: struct.unpack(">I", h)[0], hdr)
    emit_recv_exact(b, fd, n, body)
    b.op(msg, _unframe, body)
    # hello value -1 means "derive my rank from my port"; the accepted
    # endpoint's source port is ephemeral, so the hello instead carries
    # the peer's rank explicitly when known
    b.op(peer, _peer_rank_from_hello, msg, conn)
    b.op(FDS, _dict_set_reg, FDS, peer, fd)


def _peer_rank_from_hello(msg: Any, conn: Any) -> int:
    tag, value = msg
    if tag != "hello":
        raise ConnectionError(f"expected hello, got {tag!r}")
    return int(value)


def _dict_set_reg(d: dict, key: Any, value: Any) -> dict:
    d = dict(d)
    d[key] = value
    return d


def emit_finalize(b: ProgramBuilder) -> None:
    """Emit teardown: close every connection and the listener."""
    s = b._fresh("fin")
    fds, n, i = f"{s}_fds", f"{s}_n", f"{s}_i"
    b.op(fds, lambda d: sorted(d.values()), FDS)
    b.op(n, len, fds)
    with b.for_range(i, imm(0), n):
        fd = f"{s}_fd"
        b.op(fd, lambda lst, k: lst[k], fds, i)
        b.syscall(None, "close", fd)
    b.syscall(None, "close", "__mpi_lfd")


# ---------------------------------------------------------------------------
# point-to-point
# ---------------------------------------------------------------------------


def emit_send(b: ProgramBuilder, dst_rank, value_reg: str, tag: str = "msg") -> None:
    """Emit a blocking typed send of a register's value to ``dst_rank``
    (an int or a register holding one)."""
    s = b._fresh("snd")
    fd, frame = f"{s}_fd", f"{s}_f"
    dst = dst_rank if isinstance(dst_rank, (str, Imm)) else imm(dst_rank)
    b.op(fd, lambda d, r: d[r], FDS, dst)
    b.op(frame, lambda v, t=tag: _frame(t, v), value_reg)
    b.syscall(None, "send", fd, frame, imm(0))


def emit_recv(b: ProgramBuilder, src_rank, out_reg: str, tag: str = "msg") -> None:
    """Emit a blocking typed receive from ``src_rank`` into ``out_reg``.

    MPI matching semantics: the unexpected-message queue is consulted
    first, and frames read off the wire with a *different* tag are
    parked there rather than treated as protocol errors — so blocking
    receives compose with the nonblocking progress engine.
    """
    s = b._fresh("rcv")
    fd, hdr, n, body, msg = f"{s}_fd", f"{s}_h", f"{s}_n", f"{s}_b", f"{s}_m"
    hit, done = f"{s}_hit", f"{s}_done"
    src = src_rank if isinstance(src_rank, (str, Imm)) else imm(src_rank)
    # anything already parked for (src, tag)?
    b.op(hit, _unexp_take(tag), UNEXP_REG, src)
    b.op(UNEXP_REG, lambda h: h[2], hit)
    b.op(done, lambda h: h[0], hit)
    with b.if_(done):
        b.op(out_reg, lambda h: h[1], hit)
    with b.if_(done, negate=True):
        b.op(fd, lambda d, r: d[r], FDS, src)
        # read frames until one carries the wanted tag; park the rest
        top, end = b._fresh("rtop"), b._fresh("rend")
        b.label(top)
        emit_recv_exact(b, fd, imm(4), hdr)
        b.op(n, lambda h: struct.unpack(">I", h)[0], hdr)
        emit_recv_exact(b, fd, n, body)
        b.op(msg, _unframe, body)
        b.op(f"{s}_match", lambda m, t=tag: m[0] == t, msg)
        with b.if_(f"{s}_match"):
            b.op(out_reg, lambda m: m[1], msg)
            b.jump(end)
        b.op(UNEXP_REG, _unexp_park, UNEXP_REG, src, msg)
        b.jump(top)
        b.label(end)


def _unexp_take(tag: str):
    """Pop the first parked frame for (src, tag): (found, value, queues')."""

    def take(unexp: dict, src: Any, _t=tag):
        frames = unexp.get(src, [])
        for i, (ftag, value) in enumerate(frames):
            if ftag == _t:
                parked = dict(unexp)
                rest = frames[:i] + frames[i + 1:]
                if rest:
                    parked[src] = rest
                else:
                    parked.pop(src, None)
                return True, value, parked
        return False, None, unexp

    return take


def _unexp_park(unexp: dict, src: Any, msg: tuple) -> dict:
    """Append a mismatched frame to src's unexpected queue."""
    parked = dict(unexp)
    parked[src] = list(parked.get(src, [])) + [(msg[0], msg[1])]
    return parked


def _drop_fd(d: dict, fd: int) -> dict:
    return {k: v for k, v in d.items() if v != fd}


def emit_recv_any(b: ProgramBuilder, out_val: str, out_src: str, tag: str = "msg") -> None:
    """Emit MPI_ANY_SOURCE: poll all peers, read from the first ready.

    Consults the unexpected-message queues first and parks frames with
    other tags (matching semantics).  Peers that have disconnected (EOF)
    are dropped from the connection table and polling continues — a
    master must not wedge because one finished worker closed early.
    """
    s = b._fresh("any")
    spec, ready, fd, src = f"{s}_spec", f"{s}_r", f"{s}_fd", f"{s}_src"
    first, eof, pending, hit = f"{s}_first", f"{s}_eof", f"{s}_pending", f"{s}_hit"
    hdr, n, body, msg = f"{s}_h", f"{s}_n", f"{s}_b", f"{s}_m"
    # anything already parked with this tag, from any source?
    b.op(hit, _unexp_take_any(tag), UNEXP_REG)
    b.op(UNEXP_REG, lambda h: h[3], hit)
    b.op(pending, lambda h: not h[0], hit)
    with b.if_(pending, negate=True):
        b.op(out_val, lambda h: h[1], hit)
        b.op(out_src, lambda h: h[2], hit)
    with b.while_(pending):
        b.op(spec, lambda d: [(v, "r") for v in sorted(d.values())], FDS)
        b.op(None, _require_peers, spec)
        b.syscall(ready, "poll", spec, imm(None))
        b.op(fd, lambda r: r[0][0], ready)
        b.syscall(first, "recv", fd, imm(4), imm(0))
        b.op(eof, lambda c: c == b"", first)
        with b.if_(eof):
            b.op(FDS, _drop_fd, FDS, fd)
        with b.if_(eof, negate=True):
            b.op(src, lambda d, f: next(k for k, v in d.items() if v == f), FDS, fd)
            emit_recv_exact(b, fd, imm(4), hdr, seed=first)
            b.op(n, lambda h: struct.unpack(">I", h)[0], hdr)
            emit_recv_exact(b, fd, n, body)
            b.op(msg, _unframe, body)
            b.op(f"{s}_match", lambda m, t=tag: m[0] == t, msg)
            with b.if_(f"{s}_match"):
                b.op(out_val, lambda m: m[1], msg)
                b.mov(out_src, src)
                b.mov(pending, imm(False))
            with b.if_(f"{s}_match", negate=True):
                b.op(UNEXP_REG, _unexp_park, UNEXP_REG, src, msg)


def _require_peers(spec: list) -> None:
    if not spec:
        raise ConnectionError("recv_any with no connected peers left")


def _unexp_take_any(tag: str):
    """Pop the first parked frame with ``tag`` from any source:
    (found, value, src, queues')."""

    def take(unexp: dict, _t=tag):
        for src in sorted(unexp, key=str):
            for i, (ftag, value) in enumerate(unexp[src]):
                if ftag == _t:
                    parked = dict(unexp)
                    rest = unexp[src][:i] + unexp[src][i + 1:]
                    if rest:
                        parked[src] = rest
                    else:
                        parked.pop(src)
                    return True, value, src, parked
        return False, None, None, unexp

    return take
