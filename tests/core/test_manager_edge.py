"""Manager/Agent edge cases and protocol details."""

import pytest

from repro.cluster import Cluster
from repro.core import Manager, migrate
from repro.core.agent import AGENT_PORT
from repro.core.wire import recv_msg, send_msg

from .testapps import expected_sums, final_sums, launch_pingpong

ROUNDS = 300


@pytest.fixture
def world():
    cluster = Cluster.build(4, seed=31)
    manager = Manager.deploy(cluster)
    return cluster, manager


def test_empty_checkpoint_completes_trivially(world):
    cluster, manager = world
    holder = {}
    cluster.engine.schedule(0.1, lambda: holder.update(c=manager.checkpoint([])))
    cluster.engine.run(until=10.0)
    result = holder["c"].finished.result
    assert result.ok and result.pods == {}


def test_agents_answer_ping(world):
    cluster, manager = world
    kernel = manager.home.kernel

    def pinger():
        chan = kernel.host_channel("ping")
        fd = yield kernel.host_call(chan, "socket", "tcp")
        yield kernel.host_call(chan, "connect", fd, (cluster.node(2).ip, AGENT_PORT))
        yield from send_msg(kernel, chan, fd, {"cmd": "ping"})
        reply = yield from recv_msg(kernel, chan, fd)
        yield kernel.host_call(chan, "close", fd)
        return reply

    reply = cluster.engine.run_task(pinger())
    assert reply == {"type": "pong", "node": "blade2"}


def _first_message(world, msg):
    """Open a fresh Agent session on blade1 with ``msg``; its reply."""
    cluster, manager = world
    kernel = manager.home.kernel

    def speaker():
        chan = kernel.host_channel("x")
        fd = yield kernel.host_call(chan, "socket", "tcp")
        yield kernel.host_call(chan, "connect", fd, (cluster.node(1).ip, AGENT_PORT))
        yield from send_msg(kernel, chan, fd, msg)
        reply = yield from recv_msg(kernel, chan, fd)
        return reply

    return cluster.engine.run_task(speaker())


def test_unknown_command_reports_error(world):
    reply = _first_message(world, {"cmd": "frobnicate"})
    assert reply["type"] == "error"
    assert "frobnicate" in reply["error"]


def test_bare_restart_is_an_unknown_command(world):
    """``restart`` only exists as the second message of a ``load_meta``
    session; as a first message it is no command at all."""
    reply = _first_message(world, {"cmd": "restart", "pod": "pp-srv"})
    assert reply == {"type": "error", "error": "unknown cmd 'restart'"}


def test_sequential_recovery_is_fine_on_acyclic_topology(world):
    """The two threads matter only for cyclic topologies: a star (the
    ping-pong pair is the trivial case) restores fine sequentially."""
    cluster, manager = world
    srv, cli = launch_pingpong(cluster, rounds=ROUNDS)
    holder = {}

    def kick():
        holder["mig"] = migrate(manager, [
            ("blade0", "pp-srv", "blade2"),
            ("blade1", "pp-cli", "blade3"),
        ], recovery_mode="sequential")

    cluster.engine.schedule(0.2, kick)
    cluster.engine.run(until=300.0)
    assert holder["mig"].finished.result.ok
    assert final_sums(cluster) == expected_sums(ROUNDS)


def test_checkpoint_while_checkpoint_in_progress(world):
    """Two overlapping snapshots of the same pods: both must complete
    (agent sessions serialize on pod suspension naturally)."""
    cluster, manager = world
    srv, cli = launch_pingpong(cluster, rounds=ROUNDS)
    holder = {}

    def kick():
        targets = [("blade0", "pp-srv", "mem"), ("blade1", "pp-cli", "mem")]
        holder["a"] = manager.checkpoint(targets)
        holder["b"] = manager.checkpoint(targets)

    cluster.engine.schedule(0.2, kick)
    cluster.engine.run(until=300.0)
    ra = holder["a"].finished.result
    rb = holder["b"].finished.result
    assert ra.ok and rb.ok, (ra.errors, rb.errors)
    assert final_sums(cluster) == expected_sums(ROUNDS)


def test_restart_plan_meta_travels_with_image(world):
    """Restart derives meta from the stored image (no Manager memory
    needed): a *fresh* Manager instance can restart old images."""
    cluster, manager = world
    srv, cli = launch_pingpong(cluster, rounds=ROUNDS)
    holder = {}

    def snap():
        holder["c"] = manager.checkpoint(
            [("blade0", "pp-srv", "mem"), ("blade1", "pp-cli", "mem")])

    def restart_with_fresh_manager():
        cluster.find_pod("pp-srv").destroy()
        cluster.find_pod("pp-cli").destroy()
        fresh = Manager(cluster, manager.agents, home=cluster.node(2))
        holder["r"] = fresh.restart(
            [("blade0", "pp-srv", "mem"), ("blade1", "pp-cli", "mem")])

    cluster.engine.schedule(0.2, snap)
    cluster.engine.schedule(1.0, restart_with_fresh_manager)
    cluster.engine.run(until=300.0)
    assert holder["c"].finished.result.ok
    assert holder["r"].finished.result.ok
    assert final_sums(cluster) == expected_sums(ROUNDS)
