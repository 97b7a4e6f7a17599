"""A process exit purges it from the sockets someone waits on — only those.

A node can hold many connections that nobody waits on (open and idle,
or closed with their FIN exchange still under way).  An exit must not
rebuild the four wait lists of every one of them: it visits the sockets
that hold a waiter of any kind, and the outcome is the same as purging
everywhere.
"""

from repro.net import Fabric
from repro.net.sockets import Socket
from repro.vos import ProgramBuilder, imm

from ..net.conftest import Host, run_tasks

N_CONNECTIONS = 12


def _halting_program():
    b = ProgramBuilder("exits")
    b.halt(imm(0))
    return b.build()


def test_an_exit_visits_only_sockets_that_hold_waiters(engine, monkeypatch):
    fabric = Fabric(engine)
    a = Host(engine, fabric, "na", "10.0.0.1")
    b = Host(engine, fabric, "nb", "10.0.0.2")

    def server(call):
        fd = yield call("socket", "tcp")
        yield call("bind", fd, (b.ip, 5100))
        yield call("listen", fd, N_CONNECTIONS)
        for _ in range(N_CONNECTIONS):
            conn, _peer = yield call("accept", fd)
            assert (yield call("recv", conn, 100, 0)) == b"hi"
        yield call("close", fd)

    def client(call):
        for _ in range(N_CONNECTIONS):
            fd = yield call("socket", "tcp")
            yield call("connect", fd, (b.ip, 5100))
            yield call("send", fd, b"hi", 0)

    run_tasks(engine, b.task(server, name="srv"), a.task(client, name="cli"))
    idle = list(b.stack.established.values())
    assert len(idle) == N_CONNECTIONS and not any(s.closed for s in idle)

    def parked(call):
        fd = yield call("socket", "tcp")
        yield call("bind", fd, (b.ip, 5200))
        yield call("listen", fd, 1)
        yield call("accept", fd)            # never answered

    b.task(parked, name="parked")
    engine.run(until=engine.now + 1.0)
    (listener,) = [s for s in b.stack.bound.values() if s.accept_waiters]
    waiter = listener.accept_waiters[0]

    visited = []
    drop_waiter = Socket.drop_waiter

    def counted(sock, proc):
        visited.append(sock)
        drop_waiter(sock, proc)

    monkeypatch.setattr(Socket, "drop_waiter", counted)
    proc = b.kernel.spawn(_halting_program())
    engine.run(until=engine.now + 1.0)
    assert proc.exit_code == 0
    # one exit, one socket visited: the one a waiter is parked on, whose
    # waiter (another task) stays parked
    assert visited == [listener]
    assert listener.accept_waiters == [waiter]
