"""Failure semantics: aborted checkpoints, dead agents, crashed managers.

Section 4: "an Agent failure will be readily detected by the Manager as
soon as the connection becomes broken.  Similarly a failure of the
Manager itself will be noted by the Agents.  In both cases, the
operation will be gracefully aborted, and the application will resume
its execution."
"""

import pytest

from repro.cluster import Cluster, crash_node, isolate_node
from repro.core import Manager, codec
from repro.vos import DEAD

from .testapps import expected_sums, final_sums, launch_pingpong

ROUNDS = 600


@pytest.fixture
def world():
    cluster = Cluster.build(4, seed=99)
    manager = Manager.deploy(cluster)
    return cluster, manager


def test_checkpoint_aborts_when_one_agent_unreachable(world):
    """One participating node is partitioned mid-checkpoint: the Manager
    times out, aborts, and the application keeps running correctly."""
    cluster, manager = world
    srv, cli = launch_pingpong(cluster, rounds=ROUNDS)
    holder = {}

    def kick():
        # isolate the client's node just before the checkpoint so the
        # manager can never reach its agent
        isolate_node(cluster, cluster.node(1))
        holder["ckpt"] = manager.checkpoint(
            [("blade0", "pp-srv", "mem"), ("blade1", "pp-cli", "mem")],
            deadline=3.0)

    def heal():
        from repro.cluster import heal_node
        heal_node(cluster, cluster.node(1))

    cluster.engine.schedule(0.1, kick)
    cluster.engine.schedule(5.0, heal)
    cluster.engine.run(until=300.0)
    result = holder["ckpt"].finished.result
    assert not result.ok
    assert result.status in ("timeout", "failed")
    # the application recovered (TCP retransmission) and finished right
    assert srv.state == DEAD and cli.state == DEAD
    assert final_sums(cluster) == expected_sums(ROUNDS)


def test_agent_aborts_when_manager_connection_breaks(world):
    """The Agent notices the dead Manager (EOF on the control channel)
    and resumes the suspended pod."""
    cluster, manager = world
    srv, cli = launch_pingpong(cluster, rounds=ROUNDS)
    agent = manager.agents["blade0"]

    # speak the protocol directly, then vanish without sending continue
    kernel = manager.home.kernel

    def rogue_manager():
        from repro.core.wire import recv_msg, send_msg
        from repro.core.agent import AGENT_PORT
        chan = kernel.host_channel("rogue")
        fd = yield kernel.host_call(chan, "socket", "tcp")
        yield kernel.host_call(chan, "connect", fd, (cluster.node(0).ip, AGENT_PORT))
        yield from send_msg(kernel, chan, fd, {
            "cmd": "checkpoint", "pod": "pp-srv", "uri": "mem", "context": "snapshot"})
        msg = yield from recv_msg(kernel, chan, fd)
        assert msg["type"] == "meta"
        # die before sending 'continue'
        yield kernel.host_call(chan, "close", fd)

    def kick():
        cluster.engine.spawn(rogue_manager(), name="rogue")

    cluster.engine.schedule(0.1, kick)
    cluster.engine.run(until=300.0)
    # the pod resumed and the run finished correctly
    assert srv.state == DEAD and cli.state == DEAD
    assert final_sums(cluster) == expected_sums(ROUNDS)


def test_restart_recovers_application_after_node_crash(world):
    """The headline use case: checkpoint periodically, crash a node,
    restart the lost pods elsewhere from shared storage."""
    cluster, manager = world
    # keep the application off blade0: the Manager lives there
    srv, cli = launch_pingpong(cluster, rounds=ROUNDS, server_node=1, client_node=2)
    holder = {}

    def kick():
        holder["ckpt"] = manager.checkpoint([
            ("blade1", "pp-srv", "file:/san/ft-srv.img"),
            ("blade2", "pp-cli", "file:/san/ft-cli.img"),
        ])

    def crash():
        crash_node(cluster, cluster.node(1))   # takes pp-srv down
        # the surviving peer pod must be stopped too: a restart rolls the
        # *whole* application back to the consistent checkpoint
        cluster.find_pod("pp-cli").destroy()
        holder["restart"] = manager.restart([
            ("blade3", "pp-srv", "file:/san/ft-srv.img"),
            ("blade0", "pp-cli", "file:/san/ft-cli.img"),
        ])

    cluster.engine.schedule(0.1, kick)
    cluster.engine.schedule(1.0, crash)
    cluster.engine.run(until=300.0)
    assert holder["ckpt"].finished.result.ok
    assert holder["restart"].finished.result.ok, holder["restart"].finished.result.errors
    assert final_sums(cluster) == expected_sums(ROUNDS)


def test_checkpoint_of_unknown_pod_fails_cleanly(world):
    cluster, manager = world
    holder = {}

    def kick():
        holder["ckpt"] = manager.checkpoint([("blade0", "ghost", "mem")])

    cluster.engine.schedule(0.1, kick)
    cluster.engine.run(until=30.0)
    result = holder["ckpt"].finished.result
    assert not result.ok
    assert any("ghost" in e for e in result.errors)


def test_restart_with_missing_image_fails_cleanly(world):
    cluster, manager = world
    holder = {}

    def kick():
        holder["restart"] = manager.restart([("blade0", "never-saved", "mem")])

    cluster.engine.schedule(0.1, kick)
    cluster.engine.run(until=30.0)
    result = holder["restart"].finished.result
    assert not result.ok


def test_deadline_abort_resumes_all_pods_and_reaps_protocol_tasks(world):
    """When the deadline expires mid-checkpoint, every Agent's pod must
    be resumed (verified by the Manager itself) and no ``ckpt-*``
    protocol task may be left orphaned in the engine."""
    from repro.core.manager import PhaseTimeouts

    cluster, manager = world
    srv, cli = launch_pingpong(cluster, rounds=ROUNDS)
    holder = {}

    def kick():
        isolate_node(cluster, cluster.node(1))
        # generous per-phase timeouts: only the global deadline can fire,
        # exercising the cancel-then-cleanup path
        holder["ckpt"] = manager.checkpoint(
            [("blade0", "pp-srv", "mem"), ("blade1", "pp-cli", "mem")],
            deadline=2.0, timeouts=PhaseTimeouts(connect=60.0, barrier=60.0))

    def heal():
        from repro.cluster import heal_node
        heal_node(cluster, cluster.node(1))

    cluster.engine.schedule(0.1, kick)
    cluster.engine.schedule(6.0, heal)
    cluster.engine.run(until=400.0)

    result = holder["ckpt"].finished.result
    assert result.status == "timeout"
    # the abort path verified the reachable pod resumed
    assert result.resumed.get("pp-srv") is True
    # no orphaned protocol tasks: every ckpt-* task was reaped
    leftovers = [t.name for t in cluster.engine.live_tasks()
                 if t.name.startswith("ckpt-") or t.name.startswith("manager-")]
    assert leftovers == [], leftovers
    # neither pod is suspended and the application completed correctly
    for pod in cluster.pods().values():
        assert not pod.suspended
    assert srv.state == DEAD and cli.state == DEAD
    assert final_sums(cluster) == expected_sums(ROUNDS)


def test_failed_checkpoint_leaves_the_last_good_one_restartable(world):
    """Section 4's abort guarantee, end to end: a checkpoint that fails
    after one Agent became unreachable must not cost the application its
    *previous* checkpoint.  The failed op stored nothing anywhere, so its
    garbage collection has nothing to undo — least of all the generation
    the last good op left on the reachable Agent."""
    from repro.cluster import heal_node

    cluster, manager = world
    rounds = 40_000     # still running when the third checkpoint fails
    launch_pingpong(cluster, rounds=rounds)
    engine = cluster.engine
    targets = [("blade0", "pp-srv", "mem"), ("blade1", "pp-cli", "mem")]
    ops = {}

    def driver():
        yield engine.sleep(0.1)
        ops["first"] = yield from manager.checkpoint_task(targets)
        # far enough apart that the pair progresses between the two (a
        # cut mixing them is then not one the pair can resume from)
        yield engine.sleep(2.0)
        ops["second"] = yield from manager.checkpoint_task(targets)
        yield engine.sleep(0.5)
        isolate_node(cluster, cluster.node(1))
        ops["failed"] = yield from manager.checkpoint_task(targets, deadline=3.0)
        heal_node(cluster, cluster.node(1))
        yield engine.sleep(2.0)
        last = manager.last_checkpoint
        ops["owners"] = [manager.agents[node].pipeline_state.tip(pod).op_id
                         for node, pod, _uri in last.targets]
        for _node, pod, _uri in last.targets:
            cluster.find_pod(pod).destroy()
        ops["restart"] = yield from manager.restart_task(last.targets)

    engine.spawn(driver(), name="drv")
    engine.run(until=600.0)
    assert ops["first"].ok and ops["second"].ok
    assert ops["failed"].status == "timeout"
    last = manager.last_checkpoint
    assert last.op_id == ops["second"].op_id
    assert ops["owners"] == [last.op_id, last.op_id]
    assert ops["restart"].ok, ops["restart"].errors
    assert final_sums(cluster) == expected_sums(rounds)


def test_recover_restarts_lost_pods_on_surviving_nodes(world):
    """Manager.recover: detect the crashed blade and restart its pods
    elsewhere from last_checkpoint — no manual targets needed."""
    cluster, manager = world
    srv, cli = launch_pingpong(cluster, rounds=ROUNDS, server_node=1, client_node=2)
    holder = {}

    def kick():
        holder["ckpt"] = manager.checkpoint([
            ("blade1", "pp-srv", "file:/san/rec-srv.img"),
            ("blade2", "pp-cli", "file:/san/rec-cli.img"),
        ])

    def crash():
        crash_node(cluster, cluster.node(1))   # takes pp-srv down
        holder["recover"] = manager.recover()

    cluster.engine.schedule(0.1, kick)
    cluster.engine.schedule(1.0, crash)
    cluster.engine.run(until=400.0)

    assert holder["ckpt"].finished.result.ok
    rec = holder["recover"].finished.result
    assert rec.ok, rec.errors
    # pp-srv moved off the dead blade; pp-cli stayed put
    assert cluster.node_of_pod("pp-srv").name != "blade1"
    assert cluster.node_of_pod("pp-cli").name == "blade2"
    assert final_sums(cluster) == expected_sums(ROUNDS)


def test_recover_without_checkpoint_fails_without_side_effects(world):
    cluster, manager = world
    srv, cli = launch_pingpong(cluster, rounds=ROUNDS, server_node=1, client_node=2)
    holder = {}

    def kick():
        crash_node(cluster, cluster.node(3))   # empty blade dies
        holder["recover"] = manager.recover()

    cluster.engine.schedule(0.5, kick)
    cluster.engine.run(until=300.0)
    rec = holder["recover"].finished.result
    assert not rec.ok
    assert any("no usable checkpoint" in e for e in rec.errors)
    # the running application was never touched
    assert srv.state == DEAD and cli.state == DEAD
    assert final_sums(cluster) == expected_sums(ROUNDS)


def _rename_program(image):
    image["program_name"] = "testapp.gone-since"


def _drop_a_param(image):
    del image["program_params"]["rounds"]


@pytest.mark.parametrize("damage, reason", [
    (_rename_program, "no program registered under 'testapp.gone-since'"),
    (_drop_a_param, "'rounds'"),
], ids=["unregistered-program", "params-the-builder-rejects"])
def test_restart_of_an_image_whose_program_cannot_be_built_fails_before_any_pod(
        world, damage, reason, monkeypatch):
    """The image was written by an interpreter whose programs differ from
    this one's.  The Agent must say so while all it has done is read the
    image: the reason reaches the Manager, no pod is created on any node
    and the Agent's session ends normally instead of raising."""
    cluster, manager = world
    spawned = []
    spawn = cluster.engine.spawn

    def recording_spawn(gen, name="task"):
        task = spawn(gen, name)
        spawned.append(task)
        return task

    # the engine's registry forgets a task once it finishes, so the
    # test keeps its own list of every task started from here on
    monkeypatch.setattr(cluster.engine, "spawn", recording_spawn)
    launch_pingpong(cluster, rounds=ROUNDS)
    targets = [("blade0", "pp-srv", "mem"), ("blade1", "pp-cli", "mem")]
    holder = {}

    def kick():
        holder["ckpt"] = manager.checkpoint(targets)

    def crash_damage_restart():
        cluster.find_pod("pp-srv").destroy()
        cluster.find_pod("pp-cli").destroy()
        (image,) = manager.agents["blade1"].mem_sink.load("pp-cli")
        payload = codec.decode(image.data)
        damage(payload["standalone"]["procs"][0])
        image.data = codec.encode(payload)
        holder["restart"] = manager.restart(targets)

    cluster.engine.schedule(0.15, kick)
    cluster.engine.schedule(1.0, crash_damage_restart)
    cluster.engine.run(until=60.0)
    assert holder["ckpt"].finished.result.ok
    result = holder["restart"].finished.result
    assert not result.ok
    assert any("pp-cli" in e and reason in e for e in result.errors), result.errors
    assert all(not node.kernel.pods for node in cluster.nodes)
    assert spawned
    crashed = [task.name for task in spawned
               if task.done and task.finished.exception is not None]
    assert crashed == []


# ---------------------------------------------------------------------------
# a request naming a node the cluster lacks; a session that raises
# ---------------------------------------------------------------------------


def _ledger_ops(cluster):
    from repro.storage.ledger import OpLedger
    return {op.op_id: op.phase for op in OpLedger(cluster.san).replay().values()}


def test_migrate_to_a_missing_node_is_refused_and_leaves_the_pods_running(world):
    """Both pods aimed at ``agent://blade9`` on a four-blade cluster: the
    Manager refuses before the op opens, so no Agent destroys a pod whose
    stream could never land, and the application finishes as if nothing
    had been asked."""
    cluster, manager = world
    srv, cli = launch_pingpong(cluster, rounds=ROUNDS)
    ops = {}

    def driver():
        yield cluster.engine.sleep(0.1)
        ops["ckpt"] = yield from manager.checkpoint_task(
            [("blade0", "pp-srv", "agent://blade9"),
             ("blade1", "pp-cli", "agent://blade9")], context="migrate")
        ops["pods"] = sorted(cluster.pods())

    cluster.engine.spawn(driver(), name="drv")
    cluster.engine.run(until=300.0)
    result = ops["ckpt"]
    assert result.status == "failed"
    assert any("blade9" in e for e in result.errors), result.errors
    assert ops["pods"] == ["pp-cli", "pp-srv"]
    assert _ledger_ops(cluster) == {}
    assert srv.state == DEAD and cli.state == DEAD
    assert final_sums(cluster) == expected_sums(ROUNDS)


def test_restart_naming_a_missing_node_fails_without_a_commit(world):
    cluster, manager = world
    launch_pingpong(cluster, rounds=ROUNDS)
    targets = [("blade0", "pp-srv", "mem"), ("blade1", "pp-cli", "mem")]
    ops = {}

    def driver():
        yield cluster.engine.sleep(0.1)
        ops["ckpt"] = yield from manager.checkpoint_task(targets)
        for _node, pod, _uri in targets:
            cluster.find_pod(pod).destroy()
        ops["bad"] = yield from manager.restart_task(
            [("blade0", "pp-srv", "mem"), ("blade9", "pp-cli", "mem")])
        ops["ledger"] = _ledger_ops(cluster)
        # nothing was touched: the images still restart the pair
        ops["good"] = yield from manager.restart_task(targets)

    cluster.engine.spawn(driver(), name="drv")
    cluster.engine.run(until=300.0)
    assert ops["ckpt"].ok
    assert ops["bad"].status == "failed"
    assert any("blade9" in e for e in ops["bad"].errors), ops["bad"].errors
    assert ops["ledger"] == {ops["ckpt"].op_id: "commit"}
    assert ops["good"].ok, ops["good"].errors
    assert final_sums(cluster) == expected_sums(ROUNDS)


def _raising(lane, pod_id):
    """``lane`` (a Manager per-pod session method) for every pod but
    ``pod_id``, whose session raises after one scheduling step."""
    def session(self, op, node_name, pod, *rest):
        if pod == pod_id:
            yield None
            raise RuntimeError(f"{pod} session broke")
        return (yield from lane(self, op, node_name, pod, *rest))
    return session


def test_a_checkpoint_session_that_raises_aborts_the_op(world, monkeypatch):
    cluster, manager = world
    srv, cli = launch_pingpong(cluster, rounds=ROUNDS)
    monkeypatch.setattr(Manager, "_checkpoint_pod",
                        _raising(Manager._checkpoint_pod, "pp-cli"))
    ops = {}

    def driver():
        yield cluster.engine.sleep(0.1)
        ops["ckpt"] = yield from manager.checkpoint_task(
            [("blade0", "pp-srv", "mem"), ("blade1", "pp-cli", "mem")])

    cluster.engine.spawn(driver(), name="drv")
    cluster.engine.run(until=300.0)
    result = ops["ckpt"]
    assert result.status == "failed"
    assert any("pp-cli session broke" in e for e in result.errors), result.errors
    assert _ledger_ops(cluster) == {result.op_id: "aborted"}
    assert manager.last_checkpoint is None
    assert srv.state == DEAD and cli.state == DEAD
    assert final_sums(cluster) == expected_sums(ROUNDS)


def test_a_restart_session_that_raises_aborts_the_op(world, monkeypatch):
    cluster, manager = world
    launch_pingpong(cluster, rounds=ROUNDS)
    targets = [("blade0", "pp-srv", "mem"), ("blade1", "pp-cli", "mem")]
    ops = {}

    def driver():
        yield cluster.engine.sleep(0.1)
        ops["ckpt"] = yield from manager.checkpoint_task(targets)
        for _node, pod, _uri in targets:
            cluster.find_pod(pod).destroy()
        monkeypatch.setattr(Manager, "_restart_pod",
                            _raising(Manager._restart_pod, "pp-cli"))
        ops["restart"] = yield from manager.restart_task(targets)

    cluster.engine.spawn(driver(), name="drv")
    cluster.engine.run(until=300.0)
    result = ops["restart"]
    assert result.status == "failed"
    assert any("pp-cli session broke" in e for e in result.errors), result.errors
    assert _ledger_ops(cluster)[result.op_id] == "aborted"
    assert "pp-cli" not in result.pods
