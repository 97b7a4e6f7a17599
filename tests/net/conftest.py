"""Fixtures and helpers for network-stack tests."""

from __future__ import annotations

import pytest

from repro.net import Fabric, NetStack
from repro.net.addr import Endpoint
from repro.sim import Engine, all_of
from repro.vos import Kernel


class Host:
    """A node bundle (kernel + stack) with a convenient syscall driver."""

    def __init__(self, engine, fabric, name, ip, **kw):
        self.engine = engine
        self.kernel = Kernel(engine, name, **kw)
        self.stack = NetStack(self.kernel, fabric, ip)
        self.ip = ip

    def task(self, gen_fn, *args, name="t"):
        """Spawn a host task; ``gen_fn`` receives a fresh syscall channel."""
        chan = self.kernel.host_channel(name)

        def call(sysname, *sysargs):
            return self.kernel.host_call(chan, sysname, *sysargs)

        return self.engine.spawn(gen_fn(call, *args), name=name)


@pytest.fixture
def fabric(engine):
    return Fabric(engine)


@pytest.fixture
def hosts(engine, fabric):
    """Two plain nodes on one fabric."""
    a = Host(engine, fabric, "na", "10.0.0.1")
    b = Host(engine, fabric, "nb", "10.0.0.2")
    return a, b


def established_pair(seed=1, loss=0.0):
    """Two stacks with a hand-established TCP connection between them:
    ``(engine, a, b)``."""
    engine = Engine(seed=seed)
    fabric = Fabric(engine, loss_rate=loss)
    sa = NetStack(Kernel(engine, "a"), fabric, "10.0.0.1")
    sb = NetStack(Kernel(engine, "b"), fabric, "10.0.0.2")
    a = sa.create_socket("tcp")
    a.local = Endpoint("10.0.0.1", 1000)
    sa.register_established(a, Endpoint("10.0.0.2", 2000))
    b = sb.create_socket("tcp")
    b.local = Endpoint("10.0.0.2", 2000)
    sb.register_established(b, Endpoint("10.0.0.1", 1000))
    for s in (a, b):
        s.conn.state = "established"
        s.conn.pcb.snd_una = s.conn.pcb.snd_nxt = s.conn.pcb.rcv_nxt = 1001
    return engine, a, b


def run_tasks(engine, *tasks, until=60.0):
    """Drive the engine until every task finishes; return their results."""
    combined = all_of([t.finished for t in tasks])
    combined.add_done_callback(lambda _f: engine.stop())
    engine.run(until=until)
    assert combined.done, f"tasks did not finish by t={engine.now}"
    return combined.result
