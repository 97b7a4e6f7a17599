"""The Manager's op lifecycle, observed at its edges.

Both operations share one shape: each pod's lane gathers its Agent's
meta-data, the lane that completes the set writes the op's sync record,
and only then does any Agent hear the act it licenses — ``continue``
for a checkpoint, the merged plan in ``restart`` for a restart.  These
tests pin that shape from the outside: how many session tasks an op
runs, what the ledger holds when a command leaves the Manager, what a
request does on a reset connection, and how often an aborted op tells
an Agent ``abort``.
"""

from collections import Counter

import pytest

from repro.cluster import Cluster, chaos
from repro.core import Manager
from repro.core import manager as manager_mod
from repro.core.manager import PhaseTimeouts
from repro.storage import OpLedger

from .test_manager_failover import TIGHT, _file_targets, run_redrive_world
from .testapps import expected_sums, final_sums, launch_pingpong


@pytest.fixture
def sessions(monkeypatch):
    """(manager name, op id, kind) -> session tasks ``_drive`` ran."""
    seen = Counter()
    original = Manager._session

    def spy(op, gen):
        seen[(op.manager.name, op.result.op_id, op.result.kind)] += 1
        return original(op, gen)

    monkeypatch.setattr(Manager, "_session", staticmethod(spy))
    return seen


def _restart_world(monkeypatch, spy):
    """Checkpoint a ping-pong pair to SAN files, destroy it and restart
    it, with ``spy(cluster, msg)`` seeing every message a Manager sends."""
    cluster = Cluster.build(4, seed=5)
    original = manager_mod.send_msg

    def send_msg(kernel, chan, fd, msg):
        spy(cluster, msg)
        return original(kernel, chan, fd, msg)

    monkeypatch.setattr(manager_mod, "send_msg", send_msg)
    manager = Manager.deploy(cluster)
    launch_pingpong(cluster, rounds=400, server_node=1, client_node=2)
    engine = cluster.engine
    targets = _file_targets(cluster)
    out = {}

    def driver():
        yield engine.sleep(0.2)
        out["ckpt"] = yield from manager.checkpoint_task(targets, timeouts=TIGHT)
        cluster.find_pod("pp-srv").destroy()
        cluster.find_pod("pp-cli").destroy()
        out["restart"] = yield from manager.restart_task(targets, timeouts=TIGHT)

    engine.spawn(driver(), name="drv")
    engine.run(until=120.0)
    assert out["ckpt"].ok and out["restart"].ok, out
    assert final_sums(cluster) == expected_sums(400)
    return out


def test_restart_and_redrive_run_one_session_per_pod(sessions):
    """A restart, and the re-drive of its orphan, each run exactly one
    session per pod: the lanes themselves write the plan."""
    _cluster, _manager, state = run_redrive_world(13)
    assert state["actions"] == [(2, "plan", "redriven")]
    assert dict(sessions) == {("mgr0", 1, "checkpoint"): 2,
                              ("mgr0", 2, "restart"): 2,
                              ("mgr1", 2, "restart"): 2}


def test_no_agent_hears_an_act_before_its_record(monkeypatch):
    """``continue`` leaves the Manager only once ``meta`` and
    ``continue`` are durable, and ``restart`` only once ``plan`` is."""
    log = []

    def spy(cluster, msg):
        if msg.get("cmd") in ("continue", "restart"):
            durable = {(r["op"], r.get("phase"))
                       for r in OpLedger(cluster.san).records()}
            log.append((msg["cmd"], msg.get("op_id"), durable))

    out = _restart_world(monkeypatch, spy)
    ckpt_id, restart_id = out["ckpt"].op_id, out["restart"].op_id
    assert Counter(cmd for cmd, _op, _durable in log) == {
        "continue": 2, "restart": 2}
    for cmd, op_id, durable in log:
        if cmd == "continue":
            assert {(ckpt_id, "meta"), (ckpt_id, "continue")} <= durable
        else:
            assert op_id == restart_id and (restart_id, "plan") in durable


def _reset_before_send(monkeypatch, kernel, channel):
    """Make the peer reset each connection ``kernel``'s host ``channel``
    opens, just before its send; returns the calls that channel made."""
    calls = []
    original = kernel.host_call

    def spy(chan, name, *args):
        if chan.name == channel:
            if name == "send":
                chan.fds[args[0]].conn._on_rst()
            calls.append(name)
        return original(chan, name, *args)

    monkeypatch.setattr(kernel, "host_call", spy)
    return calls


def test_no_read_after_a_failed_send(monkeypatch):
    """On a connection the peer has reset, the Manager's request and
    the Agent's push both return None without a ``recv``."""
    cluster = Cluster.build(2, seed=3)
    manager = Manager.deploy(cluster)
    agent = manager.agents["blade1"]
    mgr_calls = _reset_before_send(monkeypatch, manager.home.kernel,
                                   "mgr->blade1")
    agent_calls = _reset_before_send(monkeypatch, agent.kernel, "agent-push")
    replies = {}

    def driver():
        replies["manager"] = yield from manager._send_simple(
            "blade1", {"cmd": "ping"}, PhaseTimeouts())
        replies["agent"] = yield from agent._push_to_agent(
            "agent-push", cluster.node(0), {"cmd": "ping"})

    cluster.engine.spawn(driver(), name="drv")
    cluster.engine.run(until=30.0)
    assert replies == {"manager": None, "agent": None}
    for calls in (mgr_calls, agent_calls):
        assert calls == ["socket", "connect", "send", "close"]


@pytest.mark.parametrize("seed", [9, 17])
def test_each_connection_hears_abort_once(monkeypatch, seed):
    """A lane whose barrier failed tells its Agent ``abort``; the
    op's abort path then tells only the Agents no lane told."""
    aborts = Counter()
    original = manager_mod.send_msg

    def spy(kernel, chan, fd, msg):
        if msg.get("cmd") == "abort":
            aborts[chan] += 1
        return original(kernel, chan, fd, msg)

    monkeypatch.setattr(manager_mod, "send_msg", spy)
    report = chaos.run("serial", seed)
    assert report.violations == []
    assert aborts and set(aborts.values()) == {1}
