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
