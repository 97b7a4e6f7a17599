"""The end of a TCP connection: a pair leaves both stacks' demux tables
once neither end can send or receive on it again (``TcpConn.reap``).
The exactness of that rule against the frozen oracle is
``test_tcp_differential.py``'s close scripts; these tests hold what it
frees."""

from .conftest import run_tasks


def test_a_finished_connection_releases_its_port(engine, hosts):
    """Once both ends have closed, both FINs are acknowledged and nothing
    of the pair is on the fabric, the connecting end's ephemeral port
    leaves ``bound``: an explicit bind to it succeeds."""
    a, b = hosts
    ends = {}

    def server(call):
        lfd = yield call("socket", "tcp")
        yield call("bind", lfd, (b.ip, 5300))
        yield call("listen", lfd, 1)
        fd, _peer = yield call("accept", lfd)
        while (yield call("recv", fd, 100, 0)):
            pass
        yield call("close", fd)

    def client(call):
        fd = yield call("socket", "tcp")
        yield call("connect", fd, (b.ip, 5300))
        ends["port"] = (yield call("getsockname", fd))[1]
        ends["a"] = a.stack.established[("tcp", (a.ip, ends["port"]), (b.ip, 5300))]
        yield call("send", fd, b"bye", 0)
        yield call("close", fd)

    run_tasks(engine, b.task(server, name="srv"), a.task(client, name="cli"))
    key = ("tcp", a.ip, ends["port"])
    # b's FIN has just left: a has not received it, so the pair stays
    assert a.stack.bound[key] is ends["a"]
    engine.run()
    assert key not in a.stack.bound
    assert not a.stack.established and not b.stack.established
    assert ends["a"].conn.on_wire == 0 and ends["a"].conn.peer is None
    sock = a.stack.create_socket("tcp")
    assert a.stack.bind_socket(sock, a.ip, ends["port"]).port == ends["port"]


def test_a_pod_teardown_finishes_a_pair_that_waited_only_for_it(engine, hosts):
    """``abort_sockets_of`` closes an end without a FIN: when the pair
    waited for nothing else, the surviving end leaves its stack then."""
    a, b = hosts
    ends = {}

    def server(call):
        lfd = yield call("socket", "tcp")
        yield call("bind", lfd, (b.ip, 5301))
        yield call("listen", lfd, 1)
        fd, _peer = yield call("accept", lfd)
        assert (yield call("recv", fd, 100, 0)) == b""     # a's FIN
        yield call("close", fd)

    def client(call):
        fd = yield call("socket", "tcp")
        yield call("connect", fd, (b.ip, 5301))
        yield call("shutdown", fd, "wr")
        assert (yield call("recv", fd, 100, 0)) == b""     # b's FIN; a never closes
        ends["a"] = next(iter(a.stack.established.values()))

    run_tasks(engine, b.task(server, name="srv"), a.task(client, name="cli"))
    engine.run(until=engine.now + 1.0)
    (child,) = b.stack.established.values()
    assert child.closed and child.conn.spent() and not ends["a"].conn.spent()
    a.stack.abort_sockets_of(a.ip)
    assert not b.stack.established and not a.stack.established


def _connect_nowhere(a, b, close_at=None):
    """a connects to a port of b's nobody listens on; with ``close_at``
    the socket is closed that long after the SYN left, from a channel of
    its own, before the refusal is back.  Returns ``(socket, the connect's
    result)``."""
    ends = {}

    def client(call):
        fd = yield call("socket", "tcp")
        if close_at is not None:
            closer = a.kernel.host_channel("closer")
            closer.fds[fd] = ends["chan"].fds[fd]
            a.engine.schedule(close_at, a.kernel.host_call, closer, "close", fd)
        ends["sock"] = ends["chan"].fds[fd]
        ends["result"] = yield call("connect", fd, (b.ip, 9))
        return fd

    ends["chan"] = a.kernel.host_channel("cli")
    task = a.engine.spawn(client(lambda *args: a.kernel.host_call(ends["chan"], *args)),
                          name="cli")
    return task, ends


def test_a_refused_connect_leaves_the_stack_at_its_close(engine, hosts):
    """The reset keeps the socket (the application may connect it again);
    its close takes it out of both tables, sending nothing."""
    a, b = hosts
    task, ends = _connect_nowhere(a, b)
    (fd,) = run_tasks(engine, task)
    sock = ends["sock"]
    assert ends["result"].name == "ECONNREFUSED"
    engine.run(until=engine.now + 1.0)
    assert list(a.stack.established.values()) == [sock]
    assert list(a.stack.bound.values()) == [sock]
    sent = a.stack.nic.tx_packets

    def close():
        yield a.kernel.host_call(ends["chan"], "close", fd)

    run_tasks(engine, engine.spawn(close(), name="close"))
    assert not a.stack.established and not a.stack.bound
    engine.run(until=engine.now + 30.0)
    assert a.stack.nic.tx_packets == sent and sock.conn.on_wire == 0


def test_a_connect_closed_before_its_refusal_leaves_at_the_reset(engine, hosts):
    """Closed while its SYN is out, the socket stays until the RST that
    answers it has landed — counted on the wire as the SYN's — then goes."""
    a, b = hosts
    task, ends = _connect_nowhere(a, b, close_at=5e-5)
    engine.run(until=1e-4)
    sock = ends["sock"]
    # the SYN, or the RST answering it, is out
    assert sock.closed and not sock.was_reset and sock.conn.on_wire == 1
    assert list(a.stack.established.values()) == [sock]
    engine.run(until=1.0)
    assert ends["result"].name == "ECONNREFUSED" and sock.was_reset
    assert not a.stack.established and not a.stack.bound
    assert sock.conn.on_wire == 0 and a.stack.nic.tx_packets == 1
