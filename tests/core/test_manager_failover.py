"""Manager failover at unit scale: replica takeover, lease discipline,
idempotent tombstone-GC, and recover deadlines.

The chaos matrix (tests/chaos/test_failover_chaos.py) sweeps every crash
point × many seeds; these tests pin down the individual mechanisms with
one deterministic scenario each, so a matrix failure has a small test to
bisect against.
"""

from collections import Counter

from repro.cluster import Cluster, FaultInjector, FaultPlan, FaultSpec
from repro.cluster.faults import crash_node
from repro.core import Manager
from repro.core import agent as agent_mod
from repro.core.manager import PhaseTimeouts
from repro.core.pipeline import FileSink
from repro.core.wire import recv_msg
from repro.obs import SpanTracer
from repro.storage import OpLedger
from repro.storage.ledger import DEFAULT_LEASE_S, LEDGER_PATH, fold
from repro.vos import DEAD

from .testapps import expected_sums, final_sums, launch_pingpong

ROUNDS = 600
TIGHT = PhaseTimeouts(connect=2.0, meta=5.0, barrier=5.0, done=8.0,
                      flush=20.0, load=5.0, restart_done=15.0, drain=2.0)
SRV_IMG = "/san/ha-srv.img"
CLI_IMG = "/san/ha-cli.img"


def _world(seed, trace_spans=False):
    cluster = Cluster.build(4, seed=seed)
    if trace_spans:
        SpanTracer(cluster.engine).install(cluster)
    manager = Manager.deploy(cluster)
    return cluster, manager


def _file_targets(cluster):
    return [(cluster.node(1).name, "pp-srv", f"file:{SRV_IMG}"),
            (cluster.node(2).name, "pp-cli", f"file:{CLI_IMG}")]


def _crash_at(cluster, ledger_phase, extra_faults=()):
    plan = FaultPlan(seed=0, faults=[
        FaultSpec(kind="crash_manager", phase=ledger_phase), *extra_faults])
    return FaultInjector(cluster, plan).install()


def _await_crash_then_takeover(cluster, manager, state, settle=3.0,
                               lease_s=2.0, before_takeover=None):
    """Driver tail: wait out the crash + lease, deploy a replica (handed
    to ``before_takeover`` first, if given), run its takeover, and record
    what it did and which host tasks were still live when it returned."""
    engine = cluster.engine
    while not manager.crashed:
        yield engine.sleep(0.25)
    yield engine.sleep(settle)
    replica = Manager.deploy_replica(cluster, manager.agents, name="mgr1")
    state["replica"] = replica
    if before_takeover is not None:
        before_takeover(cluster, replica)
    state["actions"] = yield from replica.takeover_task(
        timeouts=TIGHT, lease_s=lease_s)
    state["live"] = [task.name for task in engine.live_tasks()]


def test_replica_resumes_checkpoint_crashed_after_continue():
    """Crash after the ``continue`` record is durable: the barrier
    release was inevitable, so the replica must finish the op — commit,
    not abort — and the image must be whole."""
    cluster, manager = _world(11)
    _crash_at(cluster, "manager.ledger.continue")
    srv, cli = launch_pingpong(cluster, rounds=ROUNDS,
                               server_node=1, client_node=2)
    engine = cluster.engine
    state = {}

    def driver():
        yield engine.sleep(0.2)
        manager.checkpoint(_file_targets(cluster), timeouts=TIGHT, lease_s=2.0)
        yield from _await_crash_then_takeover(cluster, manager, state)

    engine.spawn(driver(), name="drv")
    engine.run(until=240.0)
    assert manager.crashed
    assert state["actions"] == [(1, "continue", "resumed")]
    replica = state["replica"]
    assert replica.last_checkpoint is not None
    assert replica.last_checkpoint.op_id == 1
    # exactly one whole committed image per pod on the SAN
    vfs = cluster.node(0).kernel.vfs
    for path, pod in ((SRV_IMG, "pp-srv"), (CLI_IMG, "pp-cli")):
        assert FileSink(cluster.san, vfs, path).load(pod), \
            f"{pod}: image not durable after resume"
    ops = OpLedger(cluster.san).replay()
    assert ops[1].terminal and ops[1].phase == "commit"
    assert srv.state == DEAD and cli.state == DEAD
    assert final_sums(cluster) == expected_sums(ROUNDS)


def test_replica_aborts_checkpoint_crashed_before_continue():
    """Crash after ``meta`` but before the ``continue`` record: some
    Agent might never have been released, so the replica must abort via
    tombstone-GC — no partial image survives, every pod resumes."""
    cluster, manager = _world(12)
    _crash_at(cluster, "manager.ledger.meta")
    srv, cli = launch_pingpong(cluster, rounds=ROUNDS,
                               server_node=1, client_node=2)
    engine = cluster.engine
    state = {}

    def driver():
        yield engine.sleep(0.2)
        manager.checkpoint(_file_targets(cluster), timeouts=TIGHT, lease_s=2.0)
        yield from _await_crash_then_takeover(cluster, manager, state)

    engine.spawn(driver(), name="drv")
    engine.run(until=240.0)
    assert manager.crashed
    assert state["actions"] == [(1, "meta", "aborted")]
    assert state["replica"].last_checkpoint is None
    vfs = cluster.node(0).kernel.vfs
    for path in (SRV_IMG, CLI_IMG):
        san, inner = vfs.resolve(path)
        assert not san.exists(inner), f"partial image left at {path}"
    assert sorted(cluster.san.files) == [LEDGER_PATH]
    assert OpLedger(cluster.san).replay()[1].phase == "aborted"
    # the app was released and ran to the correct answer anyway
    assert srv.state == DEAD and cli.state == DEAD
    assert final_sums(cluster) == expected_sums(ROUNDS)


def run_redrive_world(seed, trace_spans=False, extra_faults=(),
                      before_takeover=None):
    """Checkpoint, destroy both pods, restart, and crash the Manager at
    the restart's ``plan`` crossing; a replica takes over.  Returns
    ``(cluster, manager, state)`` after the run (the golden span-dump
    digest ``redrive-13`` pins this same world).  ``extra_faults`` ride
    the same plan; ``before_takeover(cluster, replica)`` runs between
    the crash and the takeover."""
    cluster, manager = _world(seed, trace_spans=trace_spans)
    # the plan crossing is only crossed by restarts
    _crash_at(cluster, "manager.ledger.plan", extra_faults)
    launch_pingpong(cluster, rounds=ROUNDS, server_node=1, client_node=2)
    engine = cluster.engine
    targets = _file_targets(cluster)
    state = {}

    def driver():
        yield engine.sleep(0.2)
        task = manager.checkpoint(targets, timeouts=TIGHT)
        ok, res = yield engine.timeout(task.finished, 60.0)
        assert ok and res is not None and res.ok, res and res.errors
        cluster.find_pod("pp-srv").destroy()
        cluster.find_pod("pp-cli").destroy()
        manager.restart(targets, timeouts=TIGHT, lease_s=2.0)
        yield from _await_crash_then_takeover(cluster, manager, state,
                                              before_takeover=before_takeover)

    engine.spawn(driver(), name="drv")
    engine.run(until=240.0)
    return cluster, manager, state


def test_replica_redrives_orphaned_restart():
    """Crash after the restart ``plan`` record: the replica re-drives
    the restart from the durable plan — the pods come back and the app
    completes, without replanning from scratch."""
    cluster, manager, state = run_redrive_world(13)
    assert manager.crashed
    assert state["actions"] == [(2, "plan", "redriven")]
    ops = OpLedger(cluster.san).replay()
    assert ops[2].terminal and ops[2].phase == "commit"
    assert final_sums(cluster) == expected_sums(ROUNDS)


def test_replica_dying_mid_redrive_writes_nothing():
    """Fail-stop under a re-drive: the replica dies at the first Agent
    ``agent.connectivity`` crossing, which is the re-drive's own.  Its
    cancelled lanes must not let it commit: nothing it owns lands in the
    ledger after the crash, and op 2 stays open for the next Manager."""
    at_crash = {}

    def mark_crash(cluster, replica):
        crash = replica.crash

        def crash_and_mark():
            at_crash["records"] = len(OpLedger(cluster.san).records())
            crash()

        replica.crash = crash_and_mark

    cluster, _manager, state = run_redrive_world(
        13, extra_faults=[FaultSpec(kind="crash_manager",
                                    phase="agent.connectivity")],
        before_takeover=mark_crash)
    assert state["replica"].crashed
    records = OpLedger(cluster.san).records()
    late = [r for r in records[at_crash["records"]:] if r.get("owner") == "mgr1"]
    assert late == [], f"mgr1 wrote after its crash: {late}"
    assert not fold(records)[2].terminal
    assert state["actions"] == [(2, "plan", "crashed")]


def test_redrive_retries_a_stalled_image_load():
    """The re-drive's first image load on pp-srv's node hangs past the
    load timeout (the original restart's load crossed first and passed).
    A re-driven pod retries its load like a first restart does, under
    the same phase spans, and the restart commits."""
    hang = FaultSpec(kind="hang", phase="agent.load_meta", node="blade1",
                     after=1, seconds=TIGHT.load + 1.0)
    cluster, _manager, state = run_redrive_world(13, trace_spans=True,
                                                 extra_faults=[hang])
    assert state["actions"] == [(2, "plan", "redriven")]
    assert final_sums(cluster) == expected_sums(ROUNDS)
    tracer = cluster.tracer
    redrive = next(s for s in tracer.spans if s.name == "manager.redrive")
    lanes = Counter((s.name, s.pod) for s in tracer.children_of(redrive))
    assert lanes == Counter({(f"manager.phase.{phase}", pod): 1
                             for pod in ("pp-srv", "pp-cli")
                             for phase in ("load_meta", "plan", "commit")})


def test_failing_redrive_stops_at_its_failing_lane():
    """pp-srv's image is gone when the replica re-drives: that lane fails
    the op, which aborts through the one abort path (``abort``, then
    ``aborted``) one drain window later — not after pp-cli's restart
    times out — and reaps every re-drive session."""
    def unlink_srv_image(cluster, _replica):
        san, path = cluster.node(0).kernel.vfs.resolve(SRV_IMG)
        san.unlink(path)

    cluster, _manager, state = run_redrive_world(
        13, trace_spans=True, before_takeover=unlink_srv_image)
    assert state["actions"] == [(2, "plan", "aborted")]
    records = [r for r in OpLedger(cluster.san).records()
               if r["op"] == 2 and r["rec"] == "phase"]
    assert [(r["phase"], r["owner"]) for r in records[-2:]] == [
        ("abort", "mgr1"), ("aborted", "mgr1")]
    failed_load = next(
        s for s in cluster.tracer.spans
        if s.name == "agent.phase.load_meta" and s.pod == "pp-srv"
        and s.status == "failed")
    assert records[-1]["t"] - failed_load.t_end <= TIGHT.drain + 1.0
    assert not {"redrive-pp-srv", "redrive-pp-cli"} & set(state["live"])


def test_takeover_respects_live_lease():
    """A takeover before the dead owner's lease expires claims nothing;
    after expiry the same orphan is claimed and resumed."""
    cluster, manager = _world(14)
    _crash_at(cluster, "manager.ledger.continue")
    launch_pingpong(cluster, rounds=ROUNDS, server_node=1, client_node=2)
    engine = cluster.engine
    state = {}

    def driver():
        yield engine.sleep(0.2)
        manager.checkpoint(_file_targets(cluster), timeouts=TIGHT, lease_s=5.0)
        while not manager.crashed:
            yield engine.sleep(0.25)
        yield engine.sleep(0.5)      # well inside the 5 s lease
        replica = Manager.deploy_replica(cluster, manager.agents, name="mgr1")
        state["early"] = yield from replica.takeover_task(
            timeouts=TIGHT, lease_s=5.0)
        yield engine.sleep(6.0)      # now the lease is stale
        state["late"] = yield from replica.takeover_task(
            timeouts=TIGHT, lease_s=5.0)

    engine.spawn(driver(), name="drv")
    engine.run(until=240.0)
    assert state["early"] == [], "claimed an op whose lease was still live"
    assert state["late"] == [(1, "continue", "resumed")]


def test_double_abort_gc_is_idempotent():
    """Satellite regression: a replayed gc for an already-aborted op
    (dead Manager sent it, takeover replica sends it again) must not
    roll back an image a *newer* op has committed since."""
    cluster, manager = _world(15)
    launch_pingpong(cluster, rounds=ROUNDS, server_node=1, client_node=2)
    engine = cluster.engine
    node1 = cluster.node(1).name
    agent = manager.agents[node1]
    state = {}

    def driver():
        yield engine.sleep(0.2)
        # op 1: a good mem checkpoint of pp-srv
        task = manager.checkpoint([(node1, "pp-srv", "mem")], timeouts=TIGHT)
        ok, res = yield engine.timeout(task.finished, 60.0)
        assert ok and res.ok, res and res.errors
        # op 2: fails (ghost pod) -> the Manager gc's it, tombstoning
        # op 2 on the Agent and rolling pp-srv's store back
        task = manager.checkpoint([(node1, "pp-srv", "mem"),
                                   (node1, "ghost", "mem")], timeouts=TIGHT)
        ok, res = yield engine.timeout(task.finished, 60.0)
        assert ok and not res.ok
        # op 3: a fresh good checkpoint commits a newer image
        task = manager.checkpoint([(node1, "pp-srv", "mem")], timeouts=TIGHT)
        ok, res = yield engine.timeout(task.finished, 60.0)
        assert ok and res.ok, res and res.errors
        state["op3"] = res.op_id
        state["chain"] = list(agent.mem_sink.load("pp-srv"))
        # the replayed abort: gc for op 2 arrives a second time
        yield from manager._send_simple(node1, {
            "cmd": "gc", "op_id": 2, "pods": ["pp-srv"]}, TIGHT)

    engine.spawn(driver(), name="drv")
    engine.run(until=240.0)
    assert state["chain"], "op 3 never committed a mem image"
    assert agent.mem_sink.load("pp-srv") == state["chain"], \
        "replayed gc for op 2 rolled back op 3's committed image"
    assert agent.mem_sink.exists(state["op3"])


def test_crash_inside_recover_leaves_both_ops_to_the_replica():
    """Fail-stop inside ``recover_task`` driven by ``yield from`` from an
    untracked task (as the chaos drivers and the fleet layer drive it): the
    Manager dies at the nested restart's ``plan`` crossing.  A dead
    Manager writes nothing — the recover op stays non-terminal for the
    replica to claim, and its child restart is re-driven to commit."""
    cluster, manager = _world(18)
    _crash_at(cluster, "manager.ledger.plan")
    launch_pingpong(cluster, rounds=ROUNDS, server_node=1, client_node=2)
    engine = cluster.engine
    state = {}

    def driver():
        yield engine.sleep(0.2)
        task = manager.checkpoint(_file_targets(cluster), timeouts=TIGHT)
        ok, res = yield engine.timeout(task.finished, 60.0)
        assert ok and res.ok, res and res.errors
        crash_node(cluster, cluster.node(1))
        state["recover"] = yield from manager.recover_task(timeouts=TIGHT)
        state["records"] = OpLedger(cluster.san).records()
        # recover ops carry the default lease: wait it out before takeover
        yield from _await_crash_then_takeover(
            cluster, manager, state, settle=DEFAULT_LEASE_S + 1.0)

    engine.spawn(driver(), name="drv")
    engine.run(until=240.0)
    assert manager.crashed
    assert state["recover"].status == "crashed"
    owned = [(r["op"], r["phase"]) for r in state["records"]
             if r.get("owner") == "mgr0"]
    assert owned[-1] == (3, "plan"), f"mgr0 wrote after its crash: {owned}"
    assert not fold(state["records"])[2].terminal
    assert state["actions"] == [(2, "detect", "aborted"),
                                (3, "plan", "redriven")]
    ops = OpLedger(cluster.san).replay()
    assert ops[2].phase == "aborted" and ops[2].owner == "mgr1"
    assert ops[3].phase == "commit"
    assert final_sums(cluster) == expected_sums(ROUNDS)


def test_dead_manager_drives_nothing():
    """Fail-stop at the op's entry: an untracked task that keeps calling
    a Manager after it died gets ``crashed`` back at once — no ledger
    record, no Agent crossing, no pod touched — whichever op it asks for
    (the parent ran the whole checkpoint: four ``mgr0`` records)."""
    cluster, manager = _world(0)
    injector = FaultInjector(cluster, FaultPlan()).install()
    launch_pingpong(cluster, rounds=ROUNDS, server_node=1, client_node=2)
    engine = cluster.engine
    state = {}

    def driver():
        yield engine.sleep(0.2)
        res = yield from manager.checkpoint_task(_file_targets(cluster),
                                                 timeouts=TIGHT)
        assert res.ok, res.errors
        state["before"] = (OpLedger(cluster.san).records(), list(injector.trace))
        manager.crash()
        t0 = engine.now
        targets = [(cluster.node(1).name, "pp-srv", "mem")]
        state["statuses"] = [
            (yield from manager.checkpoint_task(targets, deadline=10)).status,
            (yield from manager.restart_task(targets, deadline=10)).status,
            (yield from manager.recover_task(timeouts=TIGHT)).status]
        state["precopy"] = yield from manager.precopy_round(
            [(cluster.node(1).name, "pp-srv", cluster.node(3).name)], 1)
        state["takeover"] = yield from manager.takeover_task(timeouts=TIGHT)
        state["took_s"] = engine.now - t0

    engine.spawn(driver(), name="drv")
    engine.run(until=120.0)
    assert state["statuses"] == ["crashed"] * 3
    assert state["precopy"] == ({}, ["precopy round 1: manager crashed"])
    assert state["takeover"] == [] and state["took_s"] == 0.0
    assert (OpLedger(cluster.san).records(), injector.trace) == state["before"]
    assert final_sums(cluster) == expected_sums(ROUNDS)


def _agent_commands(monkeypatch):
    """Every ``cmd`` an Agent receives, in order."""
    got = []

    def spy(kernel, chan, fd):
        msg = yield from recv_msg(kernel, chan, fd)
        if isinstance(msg, dict) and "cmd" in msg:
            got.append(msg["cmd"])
        return msg

    monkeypatch.setattr(agent_mod, "recv_msg", spy)
    return got


def _mgr0_records(cluster):
    return [(r["op"], r["phase"]) for r in OpLedger(cluster.san).records()
            if r.get("owner") == "mgr0"]


def test_inline_checkpoint_crashed_at_its_begin_stops_there(monkeypatch):
    """Fail-stop right after the begin record, for an op driven inline
    (``yield from checkpoint_task``, as the chaos drivers, the harness
    and the benchmark drive it): the crash cancels only the tasks the
    Manager spawned, so the op itself must notice.  Nothing after the
    begin record: no pod session, no Agent command, no further ledger
    record, and the application keeps running untouched."""
    cluster, manager = _world(0)
    _crash_at(cluster, "manager.ledger.begin")
    commands = _agent_commands(monkeypatch)
    launch_pingpong(cluster, rounds=ROUNDS, server_node=1, client_node=2)
    engine = cluster.engine
    state = {}

    def driver():
        yield engine.sleep(0.2)
        state["res"] = yield from manager.checkpoint_task(
            _file_targets(cluster), timeouts=TIGHT)

    engine.spawn(driver(), name="drv")
    engine.run(until=120.0)
    assert manager.crashed and state["res"].status == "crashed"
    assert _mgr0_records(cluster) == [(1, "begin")]
    assert commands == []
    assert final_sums(cluster) == expected_sums(ROUNDS)


def test_inline_recover_crashed_at_its_begin_stops_there(monkeypatch):
    """The same for a recover: a Manager that died on the recover's
    begin record neither probes the blades nor rolls the survivors back
    (without the check it pinged the Agents, destroyed the surviving pod
    and wrote ``detect``)."""
    cluster, manager = _world(0)
    FaultInjector(cluster, FaultPlan(seed=0, faults=[
        FaultSpec(kind="crash_manager", phase="manager.ledger.begin",
                  pod="op2")])).install()
    commands = _agent_commands(monkeypatch)
    launch_pingpong(cluster, rounds=ROUNDS, server_node=1, client_node=2)
    engine = cluster.engine
    state = {}

    def driver():
        yield engine.sleep(0.2)
        res = yield from manager.checkpoint_task(_file_targets(cluster),
                                                 timeouts=TIGHT)
        assert res.ok, res.errors
        crash_node(cluster, cluster.node(1))
        state["sent"] = len(commands)
        state["res"] = yield from manager.recover_task(timeouts=TIGHT)

    engine.spawn(driver(), name="drv")
    engine.run(until=120.0)
    assert manager.crashed and state["res"].status == "crashed"
    assert _mgr0_records(cluster)[-1] == (2, "begin")
    assert commands[state["sent"]:] == []
    survivor = cluster.node(2).kernel.pods.get("pp-cli")
    assert survivor is not None and survivor.processes()
    assert all(proc.state != DEAD for proc in survivor.processes())


def test_recover_deadline_expiry_leaves_terminal_ledger():
    """A recover whose deadline expires mid-restart fails — and still
    writes a terminal record, so a later takeover finds no orphan."""
    cluster, manager = _world(16)
    launch_pingpong(cluster, rounds=ROUNDS, server_node=1, client_node=2)
    engine = cluster.engine
    state = {}

    def driver():
        yield engine.sleep(0.2)
        task = manager.checkpoint(_file_targets(cluster), timeouts=TIGHT)
        ok, res = yield engine.timeout(task.finished, 60.0)
        assert ok and res.ok, res and res.errors
        crash_node(cluster, cluster.node(1))
        task = manager.recover(deadline=0.05, timeouts=TIGHT)
        ok, res = yield engine.timeout(task.finished, 60.0)
        assert ok
        state["recover"] = res

    engine.spawn(driver(), name="drv")
    engine.run(until=240.0)
    res = state["recover"]
    assert not res.ok and res.status in ("timeout", "failed"), res.status
    ops = OpLedger(cluster.san).replay()
    assert all(op.terminal for op in ops.values()), \
        f"non-terminal ops after failed recover: {ops}"
    # nothing for a replica to claim
    manager.crash()
    replica = Manager.deploy_replica(cluster, manager.agents, name="mgr1")
    actions = engine.run_task(replica.takeover_task(timeouts=TIGHT,
                                                    lease_s=1.0))
    assert actions == []


def test_replica_reconstructs_last_checkpoint_and_op_ids():
    """A stateless replica rebuilds ``last_checkpoint`` from the newest
    durable commit and allocates op ids above everything in the ledger."""
    cluster, manager = _world(17)
    launch_pingpong(cluster, rounds=ROUNDS, server_node=1, client_node=2)
    engine = cluster.engine
    state = {}

    def driver():
        yield engine.sleep(0.2)
        task = manager.checkpoint(_file_targets(cluster), timeouts=TIGHT)
        ok, res = yield engine.timeout(task.finished, 60.0)
        assert ok and res.ok, res and res.errors
        state["ckpt"] = res
        manager.crash()
        replica = Manager.deploy_replica(cluster, manager.agents, name="mgr1")
        state["replica"] = replica
        state["actions"] = yield from replica.takeover_task(timeouts=TIGHT,
                                                            lease_s=1.0)

    engine.spawn(driver(), name="drv")
    engine.run(until=240.0)
    replica, ckpt = state["replica"], state["ckpt"]
    assert state["actions"] == []            # a committed op is no orphan
    assert replica.last_checkpoint is not None
    assert replica.last_checkpoint.op_id == ckpt.op_id
    assert replica.last_checkpoint.targets == [tuple(t) for t in ckpt.targets]
    assert replica.ledger.new_id() > ckpt.op_id
    assert cluster.manager is replica
