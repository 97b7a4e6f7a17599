"""TCP behaviour tests: handshake, data, EOF, OOB, retransmit, backlog."""


from repro.net import MSG_OOB, MSG_PEEK, Segment
from repro.vos.syscalls import Errno

from .conftest import run_tasks


def _server_echo(call, ip, port, nbytes):
    """Accept one connection, read nbytes, echo them back."""
    fd = yield call("socket", "tcp")
    yield call("bind", fd, (ip, port))
    yield call("listen", fd, 8)
    newfd, peer = yield call("accept", fd)
    got = b""
    while len(got) < nbytes:
        chunk = yield call("recv", newfd, 65536, 0)
        assert not isinstance(chunk, Errno), chunk
        if chunk == b"":
            break
        got += chunk
    yield call("send", newfd, got, 0)
    return got, peer


def _client_send(call, ip, port, payload):
    fd = yield call("socket", "tcp")
    rc = yield call("connect", fd, (ip, port))
    assert rc == 0
    yield call("send", fd, payload, 0)
    got = b""
    while len(got) < len(payload):
        chunk = yield call("recv", fd, 65536, 0)
        if chunk == b"":
            break
        got += chunk
    return got


def test_connect_send_echo(engine, hosts):
    a, b = hosts
    payload = bytes(range(256)) * 4
    srv = b.task(_server_echo, b.ip, 5000, len(payload), name="srv")
    cli = a.task(_client_send, b.ip, 5000, payload, name="cli")
    (srv_got, peer), cli_got = run_tasks(engine, srv, cli)
    assert srv_got == payload
    assert cli_got == payload
    assert peer.ip == a.ip


def test_large_transfer_is_segmented(engine, hosts):
    a, b = hosts
    payload = b"x" * 200_000  # > MSS and > window chunks
    srv = b.task(_server_echo, b.ip, 5001, len(payload), name="srv")
    cli = a.task(_client_send, b.ip, 5001, payload, name="cli")
    (srv_got, _), cli_got = run_tasks(engine, srv, cli)
    assert srv_got == payload and cli_got == payload
    assert b.stack.nic.rx_packets > 10  # really was segmented


def test_accepted_socket_inherits_listener_port(engine, hosts):
    a, b = hosts

    def server(call):
        fd = yield call("socket", "tcp")
        yield call("bind", fd, (b.ip, 5002))
        yield call("listen", fd, 8)
        newfd, _peer = yield call("accept", fd)
        name = yield call("getsockname", newfd)
        return name

    def client(call):
        fd = yield call("socket", "tcp")
        yield call("connect", fd, (b.ip, 5002))
        peername = yield call("getpeername", fd)
        return peername

    srv = b.task(server, name="srv")
    cli = a.task(client, name="cli")
    name, peername = run_tasks(engine, srv, cli)
    assert name[1] == 5002  # the paper's port-inheritance property
    assert peername == (b.ip, 5002)


def test_connect_refused_when_no_listener(engine, hosts):
    a, b = hosts

    def client(call):
        fd = yield call("socket", "tcp")
        rc = yield call("connect", fd, (b.ip, 9999))
        return rc

    cli = a.task(client, name="cli")
    (rc,) = run_tasks(engine, cli)
    assert isinstance(rc, Errno) and rc.name == "ECONNREFUSED"


def test_close_delivers_eof(engine, hosts):
    a, b = hosts

    def server(call):
        fd = yield call("socket", "tcp")
        yield call("bind", fd, (b.ip, 5003))
        yield call("listen", fd, 8)
        newfd, _ = yield call("accept", fd)
        data = yield call("recv", newfd, 100, 0)
        eof = yield call("recv", newfd, 100, 0)
        return data, eof

    def client(call):
        fd = yield call("socket", "tcp")
        yield call("connect", fd, (b.ip, 5003))
        yield call("send", fd, b"bye", 0)
        yield call("close", fd)
        return 0

    srv = b.task(server, name="srv")
    cli = a.task(client, name="cli")
    (data, eof), _ = run_tasks(engine, srv, cli)
    assert data == b"bye" and eof == b""


def test_shutdown_wr_leaves_other_direction_open(engine, hosts):
    a, b = hosts

    def server(call):
        fd = yield call("socket", "tcp")
        yield call("bind", fd, (b.ip, 5004))
        yield call("listen", fd, 8)
        newfd, _ = yield call("accept", fd)
        eof = yield call("recv", newfd, 100, 0)  # client shut down writes
        yield call("send", newfd, b"still-here", 0)  # reverse path works
        return eof

    def client(call):
        fd = yield call("socket", "tcp")
        yield call("connect", fd, (b.ip, 5004))
        yield call("shutdown", fd, "wr")
        data = yield call("recv", fd, 100, 0)
        return data

    srv = b.task(server, name="srv")
    cli = a.task(client, name="cli")
    eof, data = run_tasks(engine, srv, cli)
    assert eof == b""
    assert data == b"still-here"


def test_msg_peek_does_not_consume(engine, hosts):
    a, b = hosts

    def server(call):
        fd = yield call("socket", "tcp")
        yield call("bind", fd, (b.ip, 5005))
        yield call("listen", fd, 8)
        newfd, _ = yield call("accept", fd)
        peeked = yield call("recv", newfd, 5, MSG_PEEK)
        real = yield call("recv", newfd, 100, 0)
        return peeked, real

    def client(call):
        fd = yield call("socket", "tcp")
        yield call("connect", fd, (b.ip, 5005))
        yield call("send", fd, b"hello world", 0)
        return 0

    srv = b.task(server, name="srv")
    cli = a.task(client, name="cli")
    (peeked, real), _ = run_tasks(engine, srv, cli)
    assert peeked == b"hello"
    assert real == b"hello world"


def test_oob_data_separate_channel(engine, hosts):
    a, b = hosts

    def server(call):
        fd = yield call("socket", "tcp")
        yield call("bind", fd, (b.ip, 5006))
        yield call("listen", fd, 8)
        newfd, _ = yield call("accept", fd)
        normal = yield call("recv", newfd, 100, 0)
        oob = yield call("recv", newfd, 100, MSG_OOB)
        return normal, oob

    def client(call):
        fd = yield call("socket", "tcp")
        yield call("connect", fd, (b.ip, 5006))
        yield call("send", fd, b"normal", 0)
        yield call("send", fd, b"!", MSG_OOB)
        return 0

    srv = b.task(server, name="srv")
    cli = a.task(client, name="cli")
    (normal, oob), _ = run_tasks(engine, srv, cli)
    assert normal == b"normal"
    assert oob == b"!"


def test_oobinline_routes_urgent_into_stream(engine, hosts):
    a, b = hosts

    def server(call):
        fd = yield call("socket", "tcp")
        # set on the listener so accepted children inherit it before any
        # urgent data can race ahead of a post-accept setsockopt
        yield call("setsockopt", fd, "SO_OOBINLINE", 1)
        yield call("bind", fd, (b.ip, 5007))
        yield call("listen", fd, 8)
        newfd, _ = yield call("accept", fd)
        data = b""
        while b"!" not in data:
            chunk = yield call("recv", newfd, 100, 0)
            data += chunk
        return data

    def client(call):
        fd = yield call("socket", "tcp")
        yield call("connect", fd, (b.ip, 5007))
        yield call("send", fd, b"ab", 0)
        yield call("send", fd, b"!", MSG_OOB)
        return 0

    srv = b.task(server, name="srv")
    cli = a.task(client, name="cli")
    data, _ = run_tasks(engine, srv, cli)
    assert data == b"ab!"


def test_retransmission_through_lossy_fabric(engine, fabric, hosts):
    a, b = hosts
    fabric.loss_rate = 0.2  # drop one in five packets
    payload = b"R" * 50_000
    srv = b.task(_server_echo, b.ip, 5008, len(payload), name="srv")
    cli = a.task(_client_send, b.ip, 5008, payload, name="cli")
    (srv_got, _), cli_got = run_tasks(engine, srv, cli, until=120.0)
    assert srv_got == payload and cli_got == payload
    assert fabric.dropped_packets > 0


def test_netfilter_freeze_then_retransmit_recovers(engine, fabric, hosts):
    a, b = hosts
    payload = b"F" * 30_000
    # Block the client's address on the server node partway through,
    # then unblock: TCP must recover via retransmission.
    engine.schedule(0.0005, b.stack.netfilter.block_ip, a.ip)
    engine.schedule(1.5, b.stack.netfilter.unblock_ip, a.ip)
    srv = b.task(_server_echo, b.ip, 5009, len(payload), name="srv")
    cli = a.task(_client_send, b.ip, 5009, payload, name="cli")
    (srv_got, _), cli_got = run_tasks(engine, srv, cli, until=120.0)
    assert srv_got == payload and cli_got == payload
    assert b.stack.netfilter.dropped > 0


def test_send_blocks_when_buffer_full_then_completes(engine, hosts):
    a, b = hosts

    def server(call):
        fd = yield call("socket", "tcp")
        yield call("bind", fd, (b.ip, 5010))
        yield call("listen", fd, 8)
        newfd, _ = yield call("accept", fd)
        # read slowly so the sender's buffer fills
        total = b""
        while len(total) < 300_000:
            chunk = yield call("recv", newfd, 8192, 0)
            if chunk == b"":
                break
            total += chunk
        return len(total)

    def client(call):
        fd = yield call("socket", "tcp")
        yield call("connect", fd, (b.ip, 5010))
        yield call("setsockopt", fd, "SO_SNDBUF", 32768)
        sent = 0
        for _ in range(30):
            n = yield call("send", fd, b"z" * 10_000, 0)
            sent += n
        return sent

    srv = b.task(server, name="srv")
    cli = a.task(client, name="cli")
    total, sent = run_tasks(engine, srv, cli, until=120.0)
    assert sent == 300_000 and total == 300_000


def test_reset_errors_out_a_parked_writer_and_reader(engine, hosts):
    """An RST on an established socket completes everyone parked on it —
    the sender blocked on a full send buffer included (its waiter entry
    also carries the bytes accepted so far)."""
    a, b = hosts

    def server(call):  # accepts, then never reads
        fd = yield call("socket", "tcp")
        yield call("bind", fd, (b.ip, 5013))
        yield call("listen", fd, 8)
        yield call("accept", fd)
        yield call("sleep", 60.0)

    b.task(server, name="srv")
    writer, reader = a.kernel.host_channel("w"), a.kernel.host_channel("r")
    call = a.kernel.host_call

    def connect():
        fd = yield call(writer, "socket", "tcp")
        yield call(writer, "connect", fd, (b.ip, 5013))
        return fd

    fd = engine.run_task(connect(), until=5.0)
    sock = reader.fds[fd] = writer.fds[fd]
    sending = call(writer, "send", fd, b"w" * (2 * sock.options["SO_SNDBUF"] + 100_000), 0)
    reading = call(reader, "recv", fd, 100, 0)
    engine.run(until=engine.now + 5.0)
    assert not sending.done and not reading.done
    assert len(sock.send_waiters) == 1 and len(sock.recv_waiters) == 1

    sock.conn.deliver(Segment(flags=frozenset({"RST"})))
    engine.run(until=engine.now + 1.0)
    assert sending.result == Errno("ECONNRESET")
    assert reading.result == Errno("ECONNRESET")
    assert sock.send_waiters == [] and sock.recv_waiters == []


def test_nonblocking_recv_returns_ewouldblock(engine, hosts):
    a, b = hosts

    def server(call):
        fd = yield call("socket", "tcp")
        yield call("bind", fd, (b.ip, 5011))
        yield call("listen", fd, 8)
        newfd, _ = yield call("accept", fd)
        yield call("setsockopt", newfd, "O_NONBLOCK", 1)
        r = yield call("recv", newfd, 100, 0)
        return r

    def client(call):
        fd = yield call("socket", "tcp")
        yield call("connect", fd, (b.ip, 5011))
        yield call("sleep", 5.0)
        return 0

    srv = b.task(server, name="srv")
    cli = a.task(client, name="cli")
    r, _ = run_tasks(engine, srv, cli)
    assert isinstance(r, Errno) and r.name == "EWOULDBLOCK"


def test_pcb_invariant_recv_geq_acked(engine, hosts):
    """The overlap invariant the restart fix relies on: recv₁ ≥ acked₂."""
    a, b = hosts
    payload = b"I" * 100_000
    srv = b.task(_server_echo, b.ip, 5012, len(payload), name="srv")
    cli = a.task(_client_send, b.ip, 5012, payload, name="cli")

    violations = []

    def probe():
        for key, sock in list(a.stack.established.items()):
            peer = b.stack.established.get((key[0], key[2], key[1]))
            if peer is None:
                continue
            if peer.conn.pcb.rcv_nxt < sock.conn.pcb.snd_una:
                violations.append((peer.conn.pcb.rcv_nxt, sock.conn.pcb.snd_una))
        if not (srv.done and cli.done):
            engine.schedule(0.001, probe)

    engine.schedule(0.001, probe)
    run_tasks(engine, srv, cli)
    assert violations == []


def test_deterministic_completion_time(fabric_seed=11):
    from repro.sim import Engine
    from repro.net import Fabric
    from .conftest import Host

    times = []
    for _ in range(2):
        engine = Engine(seed=fabric_seed)
        fabric = Fabric(engine, loss_rate=0.05)
        a = Host(engine, fabric, "na", "10.0.0.1")
        b = Host(engine, fabric, "nb", "10.0.0.2")
        payload = b"D" * 20_000
        srv = b.task(_server_echo, b.ip, 5013, len(payload), name="srv")
        cli = a.task(_client_send, b.ip, 5013, payload, name="cli")
        run_tasks(engine, srv, cli, until=120.0)
        times.append(engine.now)
    assert times[0] == times[1]
