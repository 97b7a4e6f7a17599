"""Seeded chaos harness: randomized fault schedules against invariants.

One :func:`run_chaos` call builds a cluster, runs a checksummed
ping-pong application, drives a sequence of coordinated checkpoints (and
a crash recovery when a blade dies) while a seeded
:class:`~repro.cluster.faults.FaultPlan` fires faults at protocol phase
boundaries — then audits the world against the protocol's safety
invariants:

I1  Every operation either succeeds or leaves all surviving pods
    running (resumed, network unblocked) — "the operation will be
    gracefully aborted, and the application will resume its execution".
I2  No partial checkpoint image is ever visible as restartable: every
    container on the SAN either loads completely or does not exist.
I3  ``last_checkpoint`` is never corrupted: every image it points at
    (on surviving hardware) remains loadable.
I4  The single synchronization point is preserved: within each
    successful checkpoint, every Agent's meta-data arrives before any
    Agent is sent ``continue``.

Everything is derived from the one ``seed`` — the cluster RNG, the
fault plan, and the driver's choices — so a failing seed re-runs to the
*identical* event trace (compare :attr:`ChaosReport.trace`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..vos import build_program, imm, program
from .builder import Cluster
from .faults import (
    ASYNC_CKPT_PHASES,
    CAS_PHASES,
    CHECKPOINT_PHASES,
    MANAGER_PHASES,
    PRECOPY_PHASES,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)

MOD = (1 << 61) - 1

SRV_POD = "chaos-srv"
CLI_POD = "chaos-cli"


def _roll(acc: int, msg: bytes) -> int:
    return (acc * 31 + int.from_bytes(msg, "big")) % MOD


def _reply_of(msg: bytes) -> bytes:
    return (int.from_bytes(msg, "big") + 1).to_bytes(8, "big")


def _i2msg(i: int) -> bytes:
    return i.to_bytes(8, "big")


def expected_sums(rounds: int) -> Tuple[int, int]:
    """(client checksum, server checksum) of a correct run."""
    csum = ssum = 0
    for i in range(rounds):
        msg = _i2msg(i)
        ssum = _roll(ssum, msg)
        csum = _roll(csum, _reply_of(msg))
    return csum, ssum


@program("chaos.pp-server")
def _pp_server(b, *, port, rounds, compute=150_000, dirty_rate=0):
    if dirty_rate:
        b.set_dirty_rate(dirty_rate)
    b.syscall("lfd", "socket", imm("tcp"))
    b.syscall(None, "bind", "lfd", imm(("default", port)))
    b.syscall(None, "listen", "lfd", imm(8))
    b.syscall("conn", "accept", "lfd")
    b.op("cfd", lambda c: c[0], "conn")
    b.mov("sum", imm(0))
    with b.for_range("i", imm(0), imm(rounds)):
        b.syscall("m", "recv", "cfd", imm(8), imm(0))
        b.op("sum", _roll, "sum", "m")
        b.compute(imm(compute))
        b.op("reply", _reply_of, "m")
        b.syscall(None, "send", "cfd", "reply", imm(0))
    b.syscall(None, "close", "cfd")
    b.halt(imm(0))


@program("chaos.pp-client")
def _pp_client(b, *, server, port, rounds, compute=150_000, dirty_rate=0):
    if dirty_rate:
        b.set_dirty_rate(dirty_rate)
    b.syscall("fd", "socket", imm("tcp"))
    b.syscall("rc", "connect", "fd", imm((server, port)))
    b.mov("sum", imm(0))
    with b.for_range("i", imm(0), imm(rounds)):
        b.op("msg", _i2msg, "i")
        b.syscall(None, "send", "fd", "msg", imm(0))
        b.syscall("r", "recv", "fd", imm(8), imm(0))
        b.op("sum", _roll, "sum", "r")
        b.compute(imm(compute))
    b.syscall(None, "close", "fd")
    b.halt(imm(0))


@dataclass
class ChaosReport:
    """Everything a failing seed needs to be diagnosed and replayed."""

    seed: int
    plan: List[Dict[str, Any]]
    #: injector event trace: (time, phase, node, pod, fired_kinds).
    trace: List[Tuple[float, str, Optional[str], Optional[str], Tuple[str, ...]]]
    #: faults that actually fired: (time, kind, phase, node, pod).
    fired: List[Tuple[float, str, str, Optional[str], Optional[str]]]
    #: (op kind, op_id, status) per driver operation, in order.
    ops: List[Tuple[str, int, str]] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    crashed_nodes: List[str] = field(default_factory=list)
    app_finished: bool = False
    #: deterministic JSONL span dump when ``run_chaos(trace_spans=True)``
    #: — byte-identical across runs of the same seed (the determinism
    #: oracle the chaos tests diff).
    span_dump: Optional[str] = None


def run_chaos(seed: int, n_nodes: int = 4, n_ops: int = 4, rounds: int = 300,
              until: float = 300.0, trace_spans: bool = False) -> ChaosReport:
    """One chaos episode; returns the audited :class:`ChaosReport`."""
    from ..core.manager import Manager, PhaseTimeouts
    from ..core.sinks import resolve_sink

    cluster = Cluster.build(n_nodes, seed=seed)
    tracer = None
    if trace_spans:
        from ..obs import SpanTracer

        tracer = SpanTracer(cluster.engine).install(cluster)
    manager = Manager.deploy(cluster)
    injector = FaultInjector(
        cluster, FaultPlan.random(seed, [n.name for n in cluster.nodes])).install()
    engine = cluster.engine
    drv_rng = random.Random(seed ^ 0x5DEECE66D)
    # tight per-phase deadlines: faults inject multi-second stalls, and
    # the episode has to detect and clean them up well inside `until`
    timeouts = PhaseTimeouts(connect=2.0, meta=5.0, barrier=5.0, done=8.0,
                             flush=20.0, load=5.0, restart_done=15.0, drain=3.0)
    grace = timeouts.barrier + timeouts.done + 2.0  # agents' unilateral abort window

    # the application under test (kept off blade0, where the Manager lives)
    srv_node, cli_node = cluster.node(1), cluster.node(2 % n_nodes)
    pod_srv = cluster.create_pod(srv_node, SRV_POD)
    pod_cli = cluster.create_pod(cli_node, CLI_POD)
    srv = srv_node.kernel.spawn(
        build_program("chaos.pp-server", port=9300, rounds=rounds), pod_id=SRV_POD)
    cli = cli_node.kernel.spawn(
        build_program("chaos.pp-client", server=pod_srv.vip, port=9300, rounds=rounds),
        pod_id=CLI_POD)

    report = ChaosReport(seed=seed, plan=injector.plan.describe(),
                         trace=injector.trace, fired=injector.fired)
    san_paths: List[Tuple[str, str]] = []   # (path, pod) every op wrote to

    def surviving_targets(pod_id: str):
        for node in cluster.nodes:
            if not node.crashed and pod_id in node.kernel.pods:
                return node
        return None

    def check_resumed(label: str):
        """I1: surviving pods are running — not suspended, not blocked."""
        for pod_id in (SRV_POD, CLI_POD):
            node = surviving_targets(pod_id)
            if node is None:
                continue
            pod = node.kernel.pods[pod_id]
            if pod.suspended:
                report.violations.append(
                    f"I1 {label}: {pod_id} left suspended on {node.name}")
            if pod.vip in node.kernel.netstack.netfilter._blocked_ips:
                report.violations.append(
                    f"I1 {label}: {pod_id} vip still firewalled on {node.name}")

    def driver():
        for i in range(n_ops):
            use_files = drv_rng.random() < 0.7
            targets = []
            for pod_id in (SRV_POD, CLI_POD):
                node = surviving_targets(pod_id)
                if node is None:
                    continue
                if use_files:
                    uri = f"file:/san/chaos-{pod_id}-{i}.img"
                    san_paths.append((f"/san/chaos-{pod_id}-{i}.img", pod_id))
                else:
                    uri = "mem"
                targets.append((node.name, pod_id, uri))
            if len(targets) < 2:
                # a blade died and took a pod with it: recover from the
                # last good checkpoint (the motivating use case)
                if manager.last_checkpoint is not None and manager.last_checkpoint.ok:
                    res = yield from manager.recover_task(timeouts=timeouts)
                    report.ops.append(("recover", res.op_id, res.status))
                    if not res.ok:
                        return
                    yield engine.sleep(1.0)
                    continue
                return
            res = yield from manager.checkpoint_task(
                targets, deadline=30.0, timeouts=timeouts)
            report.ops.append(("checkpoint", res.op_id, res.status))
            if not res.ok:
                # give partitioned Agents their unilateral-abort window,
                # then audit that the application is running again
                yield engine.sleep(grace)
                check_resumed(f"op{res.op_id}")
            yield engine.sleep(drv_rng.uniform(0.5, 2.0))

    engine.spawn(driver(), name="chaos-driver")
    engine.run(until=until)

    report.crashed_nodes = [n.name for n in cluster.nodes if n.crashed]

    # ---- I2: nothing partial is visible as restartable on the SAN ----
    home = cluster.node(0)
    for path, pod_id in san_paths:
        sink = resolve_sink(f"file:{path}", cluster, home.kernel.vfs)
        err = restore_error(sink, pod_id) if sink.exists() else None
        if err:
            report.violations.append(f"I2: partial image visible at {path}: {err}")

    # ---- I3: the last good checkpoint stayed restorable ----
    last = manager.last_checkpoint
    if last is not None and last.ok:
        for node_name, pod_id, uri in last.targets:
            sink = resolve_sink(uri, cluster, home.kernel.vfs,
                                manager.agents[node_name].mem_sink)
            if not sink.shared and cluster.node_by_name(node_name).crashed:
                continue  # lost with the blade, not corrupted
            err = restore_error(sink, pod_id)
            if err:
                report.violations.append(
                    f"I3: last_checkpoint {uri} of {pod_id} on {node_name} "
                    f"unrestorable: {err}")

    # ---- I4: meta-all-received before any continue, per successful op ----
    for kind, op_id, status in report.ops:
        if kind != "checkpoint" or status != "ok":
            continue
        marker = f"op{op_id}"
        idx = [i for i, ev in enumerate(report.trace)
               if ev[1] in ("manager.op_start", "manager.op_end") and ev[3] == marker]
        if len(idx) != 2:
            continue
        window = report.trace[idx[0]:idx[1] + 1]
        meta_ts = [ev[0] for ev in window if ev[1] == "manager.meta_recv"]
        cont_ts = [ev[0] for ev in window if ev[1] == "manager.continue_sent"]
        if meta_ts and cont_ts and max(meta_ts) > min(cont_ts):
            report.violations.append(
                f"I4: op{op_id} sent continue before all meta-data arrived")

    # ---- end-to-end correctness when the run could complete ----
    if srv is not None and cli is not None:
        sums = final_sums(cluster)
        report.app_finished = None not in sums
        if report.app_finished and sums != expected_sums(rounds):
            report.violations.append(
                f"checksum mismatch: {sums} != {expected_sums(rounds)}")
        if not report.crashed_nodes and not report.app_finished:
            report.violations.append(
                "application did not finish despite no node crash")
    if tracer is not None:
        from ..obs import to_jsonl

        report.span_dump = to_jsonl(tracer)
    return report


def final_sums(cluster: Cluster) -> Tuple[Optional[int], Optional[int]]:
    """(client sum, server sum) from wherever the processes ended up."""
    csum = ssum = None
    for node in cluster.nodes:
        for proc in node.kernel.procs.values():
            if proc.program.name == "chaos.pp-client" and proc.exit_code == 0:
                csum = proc.regs["sum"]
            elif proc.program.name == "chaos.pp-server" and proc.exit_code == 0:
                ssum = proc.regs["sum"]
    return csum, ssum


def restore_error(sink, pod_id: str) -> Optional[str]:
    """Why a restart of ``pod_id`` from ``sink`` would fail (None: it
    would not) — what the audits mean by "nothing partial is visible"."""
    from ..core.pipeline import ImagePipeline
    try:
        ImagePipeline.reassemble(sink.load(pod_id))
    except Exception as err:  # noqa: BLE001 - any failure is the finding
        return str(err) or type(err).__name__
    return None


# ---------------------------------------------------------------------------
# live-migration chaos
# ---------------------------------------------------------------------------

#: fault kinds that make sense inside pre-copy rounds (no SAN traffic
#: happens there, so the storage faults are excluded).
MIGRATION_FAULT_KINDS = ("crash_node", "link_drop", "link_delay", "hang")


@dataclass
class MigrationChaosReport:
    """One audited live-migration chaos episode (see
    :func:`run_migration_chaos`)."""

    seed: int
    plan: List[Dict[str, Any]]
    trace: List[Tuple[float, str, Optional[str], Optional[str], Tuple[str, ...]]]
    fired: List[Tuple[float, str, str, Optional[str], Optional[str]]]
    #: (checkpoint status, restart status, bailout, pre-copy rounds run),
    #: or None when the driver never got a result back.
    migration: Optional[Tuple[str, str, Optional[str], int]] = None
    migrated_ok: bool = False
    violations: List[str] = field(default_factory=list)
    crashed_nodes: List[str] = field(default_factory=list)
    app_finished: bool = False
    span_dump: Optional[str] = None


# ---------------------------------------------------------------------------
# Manager-failover chaos
# ---------------------------------------------------------------------------

@dataclass
class FailoverChaosReport:
    """One audited Manager-failover chaos episode (see
    :func:`run_failover_chaos`)."""

    seed: int
    #: the ``manager.ledger.*`` crossing the Manager was killed at.
    crash_phase: str
    plan: List[Dict[str, Any]]
    trace: List[Tuple[float, str, Optional[str], Optional[str], Tuple[str, ...]]]
    fired: List[Tuple[float, str, str, Optional[str], Optional[str]]]
    #: (op kind, op_id, status) per driver operation, in order.
    ops: List[Tuple[str, int, str]] = field(default_factory=list)
    #: what the takeover replica did: (op_id, phase_at_claim, outcome).
    takeover: Optional[List[Tuple[int, str, str]]] = None
    manager_crashed: bool = False
    violations: List[str] = field(default_factory=list)
    app_finished: bool = False
    span_dump: Optional[str] = None


def run_failover_chaos(seed: int, crash_phase: str, n_nodes: int = 4,
                       rounds: int = 220, until: float = 120.0,
                       trace_spans: bool = False) -> FailoverChaosReport:
    """One Manager-failover chaos episode; returns the audited report.

    The checksummed ping-pong pair runs while ``mgr0`` drives a
    file-target coordinated checkpoint and a ``crash_manager`` fault
    kills it exactly at the ``crash_phase`` ledger crossing — between
    "this phase's record is durable" and "the next phase's actions run",
    the worst case for the op left in flight.  A supervisor detects the
    dead Manager, waits out its lease, deploys ``mgr1`` with
    :meth:`~repro.core.manager.Manager.deploy_replica`, and runs
    :meth:`~repro.core.manager.Manager.takeover_task`; the driver then
    pushes a *continuity* checkpoint through whichever Manager is alive.
    Audited invariants:

    F1  Every ledger op ends terminal (``commit`` or ``aborted``) — the
        takeover leaves nothing in flight.
    F2  No partial image is visible as restartable on the SAN (I2).
    F3  Both pods end resumed — running, not suspended, not firewalled —
        on exactly one node each (I1 across the takeover).
    F4  The continuity checkpoint through the replacement Manager
        succeeds (no blade ever crashed in this matrix).
    F5  The application finishes with correct checksums.
    F6  If the victim op was non-terminal at the crash, the takeover
        claimed it and resolved it (resumed / re-driven / aborted).
    F7  Fail-stop: the record whose crossing killed the Manager is the
        last one it owns — a dead Manager appends nothing.

    For ``crash_phase="manager.ledger.abort"`` the plan also hangs the
    server Agent at suspend past the meta deadline, forcing the victim
    op onto the abort path (the crossing cannot fire otherwise).

    Determinism is the caller's oracle: two runs of the same
    ``(seed, crash_phase)`` must produce identical ``trace``/``fired``
    sequences (and ``span_dump`` when tracing).
    """
    from ..core.manager import Manager, PhaseTimeouts
    from ..core.sinks import resolve_sink
    from ..storage.ledger import OpLedger

    cluster = Cluster.build(n_nodes, seed=seed)
    tracer = None
    if trace_spans:
        from ..obs import SpanTracer

        tracer = SpanTracer(cluster.engine).install(cluster)
    manager = Manager.deploy(cluster)
    engine = cluster.engine
    drv_rng = random.Random(seed ^ 0x9E3779B9)
    timeouts = PhaseTimeouts(connect=2.0, meta=5.0, barrier=5.0, done=8.0,
                             flush=20.0, load=5.0, restart_done=15.0, drain=3.0)
    grace = timeouts.barrier + timeouts.done + 2.0
    lease_s = 3.0

    srv_node, cli_node = cluster.node(1), cluster.node(2 % n_nodes)
    faults = [FaultSpec(kind="crash_manager", phase=crash_phase)]
    if crash_phase == "manager.ledger.abort":
        # the abort crossing only exists on a failed op: stall the server
        # Agent at suspend past the Manager's meta deadline
        faults.insert(0, FaultSpec(kind="hang", phase="agent.suspend",
                                   node=srv_node.name, seconds=9.0))
    injector = FaultInjector(cluster, FaultPlan(seed=seed, faults=faults)).install()

    pod_srv = cluster.create_pod(srv_node, SRV_POD)
    cluster.create_pod(cli_node, CLI_POD)
    srv = srv_node.kernel.spawn(
        build_program("chaos.pp-server", port=9300, rounds=rounds), pod_id=SRV_POD)
    cli = cli_node.kernel.spawn(
        build_program("chaos.pp-client", server=pod_srv.vip, port=9300, rounds=rounds),
        pod_id=CLI_POD)

    report = FailoverChaosReport(seed=seed, crash_phase=crash_phase,
                                 plan=injector.plan.describe(),
                                 trace=injector.trace, fired=injector.fired)
    san_paths = [(f"/san/fo-{SRV_POD}.img", SRV_POD),
                 (f"/san/fo-{CLI_POD}.img", CLI_POD)]
    state: Dict[str, Any] = {"replica": None, "takeover": None}

    def active_manager():
        return state["replica"] if state["replica"] is not None else manager

    def check_resumed(label: str):
        for pod_id in (SRV_POD, CLI_POD):
            hosts = [n for n in cluster.nodes
                     if not n.crashed and pod_id in n.kernel.pods]
            if len(hosts) != 1:
                report.violations.append(
                    f"F3 {label}: {pod_id} active on "
                    f"{[n.name for n in hosts] or 'no node'}")
                continue
            node = hosts[0]
            pod = node.kernel.pods[pod_id]
            if pod.suspended:
                report.violations.append(
                    f"F3 {label}: {pod_id} left suspended on {node.name}")
            if pod.vip in node.kernel.netstack.netfilter._blocked_ips:
                report.violations.append(
                    f"F3 {label}: {pod_id} vip still firewalled on {node.name}")

    def supervisor():
        # the Manager's own failure detector: poll the process, wait out
        # its lease, then take over against the shared ledger
        while not manager.crashed:
            if engine.now >= until - 45.0:
                return
            yield engine.sleep(0.25)
        yield engine.sleep(lease_s + 1.0)
        replica = Manager.deploy_replica(cluster, manager.agents, name="mgr1")
        state["replica"] = replica
        actions = yield from replica.takeover_task(timeouts=timeouts,
                                                   lease_s=lease_s)
        state["takeover"] = [tuple(a) for a in actions]
        report.takeover = state["takeover"]

    def driver():
        yield engine.sleep(round(drv_rng.uniform(0.05, 0.3), 4))
        # the victim op: always file targets so every MANAGER_PHASES
        # crossing (including flush) exists on the success path
        targets = [(srv_node.name, SRV_POD, f"file:{san_paths[0][0]}"),
                   (cli_node.name, CLI_POD, f"file:{san_paths[1][0]}")]
        task = manager.checkpoint(targets, deadline=30.0, timeouts=timeouts,
                                  lease_s=lease_s)
        ok, res = yield engine.timeout(task.finished, 60.0)
        if res is not None:
            report.ops.append(("checkpoint", res.op_id, res.status))
        else:
            report.ops.append(("checkpoint", 0, "crashed"))
        # wait out the takeover when the Manager died
        while manager.crashed and state["takeover"] is None:
            yield engine.sleep(0.25)
        yield engine.sleep(grace)  # parked sessions settle (abort/flush)
        check_resumed("post-takeover")
        # continuity: the surviving Manager must drive new ops
        mgr = active_manager()
        use_files = drv_rng.random() < 0.5
        targets2 = []
        for node, pod_id in ((srv_node, SRV_POD), (cli_node, CLI_POD)):
            if use_files:
                path = f"/san/fo-cont-{pod_id}.img"
                san_paths.append((path, pod_id))
                targets2.append((node.name, pod_id, f"file:{path}"))
            else:
                targets2.append((node.name, pod_id, "mem"))
        res2 = yield from mgr.checkpoint_task(targets2, deadline=30.0,
                                              timeouts=timeouts,
                                              lease_s=lease_s)
        report.ops.append(("checkpoint", res2.op_id, res2.status))
        if not res2.ok:
            report.violations.append(
                f"F4: continuity checkpoint via {mgr.name} ended "
                f"{res2.status}: {res2.errors}")

    engine.spawn(supervisor(), name="failover-supervisor")
    engine.spawn(driver(), name="failover-driver")
    engine.run(until=until)

    report.manager_crashed = manager.crashed

    # ---- F1: the ledger holds no non-terminal op ----
    ledger = OpLedger(cluster.san)
    orphans = {op_id: op.phase for op_id, op in ledger.replay().items()
               if not op.terminal}
    if orphans:
        report.violations.append(f"F1: non-terminal ledger ops: {orphans}")

    # ---- F2: nothing partial is visible as restartable on the SAN ----
    home = cluster.node(0)
    for path, pod_id in san_paths:
        sink = resolve_sink(f"file:{path}", cluster, home.kernel.vfs)
        err = restore_error(sink, pod_id) if sink.exists() else None
        if err:
            report.violations.append(f"F2: partial image visible at {path}: {err}")

    # ---- F3 at end state ----
    check_resumed("final")

    # ---- F6: a non-terminal victim op was claimed and resolved ----
    if report.manager_crashed:
        if state["replica"] is None:
            report.violations.append("F6: Manager crashed but no replica deployed")
        elif report.takeover is None:
            report.violations.append("F6: takeover never completed")
        else:
            for op_id, _phase, outcome in report.takeover:
                if outcome not in ("resumed", "redriven", "aborted"):
                    report.violations.append(
                        f"F6: op{op_id} takeover outcome {outcome!r}")
        # the crash must actually have fired at the requested crossing
        if not any(kind == "crash_manager" and phase == crash_phase
                   for (_t, kind, phase, _n, _p) in report.fired):
            report.violations.append(
                f"F6: crash_manager did not fire at {crash_phase}")
    else:
        report.violations.append(
            f"F6: Manager never crashed (no {crash_phase} crossing?)")

    # ---- F7: no ledger record owned by the Manager after it crashed ----
    records = ledger.records()
    for _t, kind, phase, _n, victim in report.fired:
        if kind != "crash_manager":
            continue
        crossed = next(
            (i for i, rec in enumerate(records)
             if rec.get("owner") == manager.name
             and f"op{rec.get('op')}" == victim
             and f"manager.ledger.{rec.get('phase')}" == phase), None)
        if crossed is None:
            report.violations.append(
                f"F7: no {phase} record of {victim} owned by {manager.name}")
            continue
        late = [rec for rec in records[crossed + 1:]
                if rec.get("owner") == manager.name]
        if late:
            report.violations.append(
                f"F7: {manager.name} appended after its crash: {late}")

    # ---- the last committed checkpoint stayed restorable (I3) ----
    mgr = active_manager()
    last = mgr.last_checkpoint
    if last is not None and last.ok:
        for node_name, pod_id, uri in last.targets:
            err = restore_error(resolve_sink(
                uri, cluster, home.kernel.vfs, mgr.agents[node_name].mem_sink),
                pod_id)
            if err:
                report.violations.append(
                    f"I3: last_checkpoint {uri} of {pod_id} on {node_name} "
                    f"unrestorable: {err}")

    # ---- I4: meta-all-received before any continue, per successful op ----
    for kind, op_id, status in report.ops:
        if kind != "checkpoint" or status != "ok":
            continue
        marker = f"op{op_id}"
        idx = [i for i, ev in enumerate(report.trace)
               if ev[1] in ("manager.op_start", "manager.op_end") and ev[3] == marker]
        if len(idx) != 2:
            continue
        window = report.trace[idx[0]:idx[1] + 1]
        meta_ts = [ev[0] for ev in window if ev[1] == "manager.meta_recv"]
        cont_ts = [ev[0] for ev in window if ev[1] == "manager.continue_sent"]
        if meta_ts and cont_ts and max(meta_ts) > min(cont_ts):
            report.violations.append(
                f"I4: op{op_id} sent continue before all meta-data arrived")

    # ---- F5: end-to-end correctness (no blade ever crashes here) ----
    if srv is not None and cli is not None:
        sums = final_sums(cluster)
        report.app_finished = None not in sums
        if report.app_finished and sums != expected_sums(rounds):
            report.violations.append(
                f"F5: checksum mismatch: {sums} != {expected_sums(rounds)}")
        if not report.app_finished:
            report.violations.append("F5: application did not finish")
    if tracer is not None:
        from ..obs import to_jsonl

        report.span_dump = to_jsonl(tracer)
    return report


def run_migration_chaos(seed: int, n_nodes: int = 5, rounds: int = 2500,
                        until: float = 300.0,
                        trace_spans: bool = False) -> MigrationChaosReport:
    """One live-migration chaos episode; returns the audited report.

    A checksummed ping-pong pair (with a nonzero dirty rate, so pre-copy
    has a moving working set to chase) runs on two blades while a seeded
    fault plan fires at the *pre-copy* phase boundaries.  The driver live-
    migrates both pods onto spare blades mid-run, then the world is
    audited against the migration's safety invariant:

    M1  **Exactly one copy.**  At no surviving node pair does a pod end
        up active twice: on success the destination runs it and the
        source copy is destroyed; on abort the source resumes (unless
        its blade crashed); never both.
    M2  End-to-end checksums match whenever the application finished.

    Determinism is the caller's oracle: two runs of the same seed must
    produce identical ``trace``/``fired`` sequences (and ``span_dump``
    when tracing).
    """
    from ..core.manager import Manager, PhaseTimeouts
    from ..core.streaming import migrate_task

    cluster = Cluster.build(n_nodes, seed=seed)
    tracer = None
    if trace_spans:
        from ..obs import SpanTracer

        tracer = SpanTracer(cluster.engine).install(cluster)
    manager = Manager.deploy(cluster)
    plan = FaultPlan.random(seed, [n.name for n in cluster.nodes],
                            phases=PRECOPY_PHASES, kinds=MIGRATION_FAULT_KINDS)
    injector = FaultInjector(cluster, plan).install()
    engine = cluster.engine
    drv_rng = random.Random(seed ^ 0x3C6EF372)
    timeouts = PhaseTimeouts(connect=2.0, meta=5.0, barrier=5.0, done=8.0,
                             flush=20.0, load=5.0, restart_done=15.0, drain=3.0)
    grace = timeouts.barrier + timeouts.done + 2.0

    src_srv, src_cli = cluster.node(1), cluster.node(2 % n_nodes)
    dst_srv = cluster.node(3 % n_nodes).name
    dst_cli = cluster.node(4 % n_nodes).name
    pod_srv = cluster.create_pod(src_srv, SRV_POD)
    cluster.create_pod(src_cli, CLI_POD)
    srv = src_srv.kernel.spawn(
        build_program("chaos.pp-server", port=9300, rounds=rounds,
                      dirty_rate=64_000_000), pod_id=SRV_POD)
    cli = src_cli.kernel.spawn(
        build_program("chaos.pp-client", server=pod_srv.vip, port=9300,
                      rounds=rounds, dirty_rate=64_000_000), pod_id=CLI_POD)

    report = MigrationChaosReport(seed=seed, plan=injector.plan.describe(),
                                  trace=injector.trace, fired=injector.fired)
    moves = [(src_srv.name, SRV_POD, dst_srv), (src_cli.name, CLI_POD, dst_cli)]
    state: Dict[str, Any] = {}

    def driver():
        yield engine.sleep(round(drv_rng.uniform(0.05, 0.35), 4))
        mig = yield from migrate_task(manager, moves, live=True,
                                      precopy_rounds=4, dirty_threshold=4096,
                                      deadline=30.0, timeouts=timeouts)
        state["mig"] = mig
        if not mig.ok:
            # partitioned agents get their unilateral-abort window before
            # the end-state audit expects the source resumed
            yield engine.sleep(grace)

    engine.spawn(driver(), name="migration-chaos-driver")
    engine.run(until=until)

    report.crashed_nodes = [n.name for n in cluster.nodes if n.crashed]
    mig = state.get("mig")
    if mig is not None:
        report.migration = (mig.checkpoint.status, mig.restart.status,
                            mig.bailout, len(mig.rounds))
        report.migrated_ok = mig.ok

    # ---- M1: exactly one active copy of each pod ----
    dst_of = {pod_id: dst for _src, pod_id, dst in moves}
    src_of = {pod_id: src for src, pod_id, _dst in moves}
    for pod_id in (SRV_POD, CLI_POD):
        hosts = [n.name for n in cluster.nodes
                 if not n.crashed and pod_id in n.kernel.pods]
        if len(hosts) > 1:
            report.violations.append(
                f"M1: {pod_id} active on multiple nodes: {hosts}")
            continue
        if mig is None:
            continue
        if mig.ok:
            if hosts != [dst_of[pod_id]]:
                report.violations.append(
                    f"M1: migration succeeded but {pod_id} lives on "
                    f"{hosts or 'no node'}, not {dst_of[pod_id]}")
        else:
            src = src_of[pod_id]
            if src in report.crashed_nodes:
                continue  # lost with the blade, not a protocol violation
            if hosts != [src]:
                report.violations.append(
                    f"M1: migration aborted but {pod_id} lives on "
                    f"{hosts or 'no node'}, not back on {src}")
                continue
            node = cluster.node_by_name(src)
            pod = node.kernel.pods[pod_id]
            if pod.suspended:
                report.violations.append(
                    f"M1: {pod_id} left suspended on {src} after abort")
            if pod.vip in node.kernel.netstack.netfilter._blocked_ips:
                report.violations.append(
                    f"M1: {pod_id} vip still firewalled on {src} after abort")

    # ---- M2: checksums whenever the application could finish ----
    if srv is not None and cli is not None:
        sums = final_sums(cluster)
        report.app_finished = None not in sums
        if report.app_finished and sums != expected_sums(rounds):
            report.violations.append(
                f"M2: checksum mismatch: {sums} != {expected_sums(rounds)}")
        if not report.crashed_nodes and not report.app_finished:
            report.violations.append(
                "M2: application did not finish despite no node crash")
    if tracer is not None:
        from ..obs import to_jsonl

        report.span_dump = to_jsonl(tracer)
    return report


# ---------------------------------------------------------------------------
# fleet-campaign chaos
# ---------------------------------------------------------------------------

#: fault kinds that make sense at fleet wave boundaries (SAN faults are
#: covered by the per-op batteries; here the interesting failures are
#: blades dying and links misbehaving *between* units).
FLEET_FAULT_KINDS = ("crash_node", "link_drop", "link_delay", "hang")


@dataclass
class FleetChaosReport:
    """One audited fleet-campaign chaos episode (see
    :func:`run_fleet_chaos`)."""

    seed: int
    #: drain | evacuate | checkpoint — drawn from the seed.
    scenario: str
    #: nodes being drained/evacuated ([] for the checkpoint scenario).
    targets: List[str]
    plan: List[Dict[str, Any]]
    trace: List[Tuple[float, str, Optional[str], Optional[str], Tuple[str, ...]]]
    fired: List[Tuple[float, str, str, Optional[str], Optional[str]]]
    max_inflight: int = 0
    #: (status, ok, failed, skipped, threshold_tripped) of the *final*
    #: campaign run (the resumed one when the Manager was crashed).
    campaign: Optional[Tuple[str, int, int, int, bool]] = None
    #: per-run gate high-water marks, in run order.
    peaks: List[int] = field(default_factory=list)
    #: what the replica's op-level takeover did (None: no failover).
    takeover: Optional[List[Tuple[int, str, str]]] = None
    #: what the replica's campaign resume did (None: no failover).
    resume: Optional[List[Tuple[int, str, str]]] = None
    manager_crashed: bool = False
    crashed_nodes: List[str] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    span_dump: Optional[str] = None
    #: assembled campaign trace (JSONL / Chrome form) and its SLO audit —
    #: only when ``trace_spans`` and a Manager survived to own the ledger.
    assembled: Optional[str] = None
    assembled_chrome: Optional[str] = None
    slo: Optional[Dict[str, Any]] = None


def run_fleet_chaos(seed: int, n_nodes: int = 8, n_pods: int = 24,
                    until: float = 900.0,
                    trace_spans: bool = False) -> FleetChaosReport:
    """One fleet-campaign chaos episode; returns the audited report.

    A cluster of idle pods (blades 1..5 populated, the rest spare) runs
    one seeded scenario — drain a blade, evacuate two, or checkpoint the
    whole fleet — while a seeded fault plan fires at the ``fleet.*``
    wave boundaries (blade crashes, link drops/delays, hangs), possibly
    plus a ``crash_manager`` mid-campaign.  On a Manager crash a
    supervisor waits out the lease, deploys a replica, resolves orphaned
    *ops* with :meth:`~repro.core.manager.Manager.takeover_task`, then
    finishes the orphaned *campaign* with
    :func:`~repro.fleet.campaign.resume_campaigns_task`.  Audited
    invariants:

    FC1  **No pod lost or duplicated.**  Every fleet pod is active on
         exactly one surviving node; a missing pod is explained only by
         a crashed blade that still holds it.
    FC2  **Threshold respected.**  Once the failed fraction trips the
         threshold, no retry attempt starts, at most ``max_inflight``
         already-admitted units run their first attempt, and the halted
         campaign really does exceed its threshold.
    FC3  **Bounded concurrency.**  Across all runs (original and
         resumed), overlapping unit attempts never exceed
         ``max_inflight``; each run's gate high-water mark agrees.
    FC4  (caller's oracle) Same seed → byte-identical ``trace`` /
         ``fired`` / ``span_dump``.
    FC5  **Clean end state.**  Every ok pod runs unsuspended and
         unfirewalled, off the evacuated set; every failed/skipped
         migration leaves its pod on the source blade (unless that
         blade crashed); a fully-ok drain leaves the node empty; and
         with a live Manager at the end every ledger campaign is
         terminal.
    FC6  **Complete assembled trace** (``trace_spans`` only).  The
         ledger + span dump stitch into exactly one campaign tree whose
         coverage accounts for every pod-unit the ledger knows about —
         including ops adopted after takeover — and the tree passes the
         SLO audit implied by the campaign's own journaled policy.
    """
    from ..core.manager import Manager
    from ..fleet import (
        FLEET_TIMEOUTS,
        FleetPolicy,
        build_fleet_world,
        checkpoint_fleet_task,
        drain_campaign,
        evacuate_campaign,
        resume_campaigns_task,
    )
    from ..fleet.campaign import CampaignResult
    from ..storage.ledger import OpLedger
    from .faults import FLEET_PHASES

    drv_rng = random.Random(seed ^ 0x51EE7F1E)
    scenario = drv_rng.choice(("drain", "evacuate", "checkpoint"))
    populated = [f"blade{i}" for i in range(1, 6)]
    if scenario == "drain":
        targets = [drv_rng.choice(populated)]
    elif scenario == "evacuate":
        targets = sorted(drv_rng.sample(populated, 2))
    else:
        targets = []
    policy = FleetPolicy(max_inflight=drv_rng.choice((2, 3, 4)),
                         wave_barrier=drv_rng.random() < 0.5,
                         failure_threshold=0.5, retries=1,
                         deadline=30.0, lease_s=3.0)

    cluster, manager, pods = build_fleet_world(
        n_nodes, n_pods, seed=seed, first_node=1, last_node=5)
    engine = cluster.engine
    tracer = None
    if trace_spans:
        from ..obs import SpanTracer

        tracer = SpanTracer(engine).install(cluster)
    plan = FaultPlan.random(seed, [n.name for n in cluster.nodes],
                            phases=FLEET_PHASES, kinds=FLEET_FAULT_KINDS)
    if drv_rng.random() < 0.4:
        plan.faults.append(FaultSpec(
            kind="crash_manager",
            phase=drv_rng.choice(("fleet.pod_start", "fleet.pod_done",
                                  "fleet.wave_done")),
            after=drv_rng.randint(1, 8)))
    injector = FaultInjector(cluster, plan).install()

    report = FleetChaosReport(seed=seed, scenario=scenario, targets=targets,
                              plan=injector.plan.describe(),
                              trace=injector.trace, fired=injector.fired,
                              max_inflight=policy.max_inflight)
    lease_s = 3.0
    state: Dict[str, Any] = {"orig": None, "resumed": [], "resume": None,
                             "takeover": None, "replica": None}

    def supervisor():
        while not manager.crashed:
            if engine.now >= until - 90.0:
                return
            yield engine.sleep(0.25)
        yield engine.sleep(lease_s + 1.0)
        replica = Manager.deploy_replica(cluster, manager.agents, name="mgr1")
        state["replica"] = replica
        # op-level first: resolve any orphaned checkpoint/migration op
        # (resume suspended pods, abort torn streams) before re-driving
        # the campaign's unfinished units on clean pods
        took = yield from replica.takeover_task(timeouts=FLEET_TIMEOUTS,
                                                lease_s=lease_s)
        state["takeover"] = [tuple(a) for a in took]
        acts = yield from resume_campaigns_task(replica,
                                                timeouts=FLEET_TIMEOUTS,
                                                lease_s=lease_s,
                                                collect=state["resumed"])
        state["resume"] = [tuple(a) for a in acts]

    def driver():
        yield engine.sleep(round(drv_rng.uniform(0.05, 0.3), 4))
        if scenario == "drain":
            task = drain_campaign(manager, targets[0], policy=policy,
                                  timeouts=FLEET_TIMEOUTS).run()
        elif scenario == "evacuate":
            task = evacuate_campaign(manager, targets, policy=policy,
                                     timeouts=FLEET_TIMEOUTS).run()
        else:
            task = manager._spawn(
                checkpoint_fleet_task(manager, policy=policy,
                                      timeouts=FLEET_TIMEOUTS),
                name="fleet-chaos-ckpt")
        _ok, res = yield engine.timeout(task.finished, until - 120.0)
        state["orig"] = res

    engine.spawn(supervisor(), name="fleet-chaos-supervisor")
    engine.spawn(driver(), name="fleet-chaos-driver")
    engine.run(until=until)

    report.manager_crashed = manager.crashed
    report.crashed_nodes = [n.name for n in cluster.nodes if n.crashed]
    report.takeover = state["takeover"]
    report.resume = state["resume"]
    runs: List[CampaignResult] = [r for r in [state["orig"]] if r is not None]
    runs += state["resumed"]
    report.peaks = [r.peak_inflight for r in runs]
    if runs:
        final = runs[-1]
        c = final.counts()
        report.campaign = (final.status, c["ok"], c["failed"], c["skipped"],
                           final.threshold_tripped)

    # the authoritative per-pod end state: later runs override earlier
    outcomes: Dict[str, Any] = {}
    for r in runs:
        outcomes.update(r.pods)

    if report.manager_crashed and state["resume"] is None:
        report.violations.append("FC0: Manager crashed but no resume ran")
    if not runs:
        report.violations.append("FC0: no campaign result from any run")

    # ---- FC1: every fleet pod exactly once on surviving hardware ----
    # crash_node destroys its pods, so a lost pod is *explained* when
    # any blade it plausibly lived on (its source, or a migration
    # destination some attempt reached) crashed
    plausible: Dict[str, set] = {pod_id: {src} for src, pod_id in pods}
    for r in runs:
        for pod_id, out in r.pods.items():
            plausible.setdefault(pod_id, set()).add(out.node)
            if out.dest:
                plausible[pod_id].add(out.dest)
    crashed_set = set(report.crashed_nodes)

    def _crash_explained(pod_id: str) -> bool:
        return bool(plausible.get(pod_id, set()) & crashed_set)

    for _src, pod_id in pods:
        hosts = [n.name for n in cluster.nodes
                 if not n.crashed and pod_id in n.kernel.pods]
        if len(hosts) > 1:
            report.violations.append(
                f"FC1: {pod_id} active on multiple nodes: {hosts}")
        elif not hosts and not _crash_explained(pod_id):
            report.violations.append(
                f"FC1: {pod_id} lost with no crashed blade to explain it")

    # ---- FC2: the threshold really halts the campaign ----
    for run_idx, r in enumerate(runs):
        if not r.threshold_tripped:
            continue
        total = max(1, len(r.pods))
        # failures counted at each unit's *final* attempt
        last_attempt = {}
        for pod, wave, attempt, t0, t1, status in r.events:
            last_attempt[pod] = (attempt, t1, status)
        fail_times = sorted(t1 for (_a, t1, status) in last_attempt.values()
                            if status == "failed")
        trip_t = None
        for k, t1 in enumerate(fail_times, start=1):
            if k / total > policy.failure_threshold:
                trip_t = t1
                break
        if trip_t is None:
            report.violations.append(
                f"FC2: run{run_idx} halted but failures never exceeded "
                f"threshold ({len(fail_times)}/{total})")
            continue
        late_first = set()
        for pod, wave, attempt, t0, t1, status in r.events:
            if t0 <= trip_t:
                continue
            if attempt > 1:
                report.violations.append(
                    f"FC2: run{run_idx} retry of {pod} (attempt {attempt}) "
                    f"started after the threshold tripped")
            else:
                late_first.add(pod)
        if len(late_first) > policy.max_inflight:
            report.violations.append(
                f"FC2: run{run_idx} admitted {len(late_first)} first "
                f"attempts after the trip (> max_inflight "
                f"{policy.max_inflight})")

    # ---- FC3: overlapping attempts never exceed max_inflight ----
    deltas: List[Tuple[float, int]] = []
    for r in runs:
        for _pod, _wave, _attempt, t0, t1, _status in r.events:
            deltas.append((t0, +1))
            deltas.append((t1, -1))
        if r.peak_inflight > policy.max_inflight:
            report.violations.append(
                f"FC3: gate peak {r.peak_inflight} > max_inflight "
                f"{policy.max_inflight}")
    deltas.sort(key=lambda d: (d[0], d[1]))  # releases before acquires
    live = peak = 0
    for _t, d in deltas:
        live += d
        peak = max(peak, live)
    if peak > policy.max_inflight:
        report.violations.append(
            f"FC3: {peak} overlapping unit attempts > max_inflight "
            f"{policy.max_inflight}")

    # ---- FC5: clean end state ----
    evac = set(targets)
    for pod_id, out in sorted(outcomes.items()):
        hosts = [n for n in cluster.nodes
                 if not n.crashed and pod_id in n.kernel.pods]
        if out.status == "ok":
            if not hosts:
                if not _crash_explained(pod_id):
                    report.violations.append(f"FC5: ok pod {pod_id} vanished")
                continue
            node = hosts[0]
            if scenario != "checkpoint" and node.name in evac:
                report.violations.append(
                    f"FC5: ok pod {pod_id} still on evacuated {node.name}")
            pod = node.kernel.pods[pod_id]
            if pod.suspended:
                report.violations.append(
                    f"FC5: ok pod {pod_id} left suspended on {node.name}")
            if pod.vip in node.kernel.netstack.netfilter._blocked_ips:
                report.violations.append(
                    f"FC5: ok pod {pod_id} still firewalled on {node.name}")
        elif scenario != "checkpoint":
            # failed/skipped moves leave the pod home (M1), unless home died
            if out.node in report.crashed_nodes:
                continue
            if [n.name for n in hosts] != [out.node]:
                report.violations.append(
                    f"FC5: {out.status} pod {pod_id} not on its source "
                    f"{out.node}: {[n.name for n in hosts] or 'gone'}")
    if scenario in ("drain", "evacuate") and runs and runs[-1].status == "ok":
        for name in targets:
            node = cluster.node_by_name(name)
            if not node.crashed and node.kernel.pods:
                report.violations.append(
                    f"FC5: campaign ok but {name} still hosts "
                    f"{sorted(node.kernel.pods)}")

    # ---- ledger: campaigns terminal whenever a Manager survived ----
    alive = (not manager.crashed) or state["replica"] is not None
    if alive and state["resume"] is not None or not manager.crashed:
        ledger = OpLedger(cluster.san)
        open_camps = {cid: lc.phase
                      for cid, lc in ledger.replay_campaigns().items()
                      if not lc.terminal}
        if open_camps:
            report.violations.append(
                f"FC5: non-terminal ledger campaigns: {open_camps}")

    if tracer is not None:
        from ..obs import assemble_campaigns, audit_campaign, to_jsonl

        report.span_dump = to_jsonl(tracer)
        # ---- FC6: the assembled trace accounts for every pod-unit ----
        # one tracer spans all Manager incarnations of the episode, so
        # the ledger + one dump must stitch into one complete tree
        traces = assemble_campaigns(OpLedger(cluster.san),
                                    dumps=(report.span_dump,))
        if len(traces) != 1:
            report.violations.append(
                f"FC6: expected one assembled campaign, got {len(traces)}")
        if traces:
            assembled = traces[-1]
            cov = assembled.coverage()
            if not cov["complete"]:
                report.violations.append(
                    "FC6: assembled trace missing pod-units: "
                    + ",".join(cov["missing"]))
            audit = audit_campaign(assembled)
            for v in audit.violations():
                report.violations.append(f"FC6: SLO {v.rule}: {v.detail}")
            report.assembled = assembled.to_jsonl()
            report.assembled_chrome = assembled.dumps_chrome()
            report.slo = audit.to_dict()
    return report


# ---------------------------------------------------------------------------
# zero-stall (async) incremental-checkpoint chaos
# ---------------------------------------------------------------------------

@dataclass
class AsyncChaosReport:
    """One audited async-incremental-checkpoint chaos episode (see
    :func:`run_async_chaos`)."""

    seed: int
    plan: List[Dict[str, Any]]
    trace: List[Tuple[float, str, Optional[str], Optional[str], Tuple[str, ...]]]
    fired: List[Tuple[float, str, str, Optional[str], Optional[str]]]
    #: (op kind, op_id, status) per driver operation, in order.
    ops: List[Tuple[str, int, str]] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    crashed_nodes: List[str] = field(default_factory=list)
    app_finished: bool = False
    span_dump: Optional[str] = None


def run_async_chaos(seed: int, n_nodes: int = 4, n_ops: int = 5,
                    rounds: int = 300, until: float = 300.0,
                    trace_spans: bool = False) -> AsyncChaosReport:
    """One async-checkpoint chaos episode; returns the audited report.

    The checksummed ping-pong pair (with a nonzero dirty rate, so the
    copy-on-write window has writes to catch) runs while the driver takes
    zero-stall *incremental* checkpoints (``async_ckpt=True`` with a
    delta filter) and a seeded fault plan fires at the checkpoint
    boundaries plus the new async crossings (capture end, post-resume
    encode, overlapped write-out).  Audited invariants:

    A1  A failed op leaves every surviving pod running (the serial
        invariant I1 holds even when the encoder ran past the resume).
    A2  No partial chain container is ever visible as restartable.
    A3  **Chain integrity.**  Every committed in-memory delta chain
        reassembles, and the reassembled payload is byte-identical to
        the full base the Agent's pipeline state holds — an aborted or
        faulted epoch can never leave a chain that restores to
        different bytes.
    A4  End-to-end checksums match whenever the application finished.
    """
    from ..core.manager import Manager, PhaseTimeouts
    from ..core.pipeline import ImagePipeline
    from ..core.sinks import resolve_sink

    cluster = Cluster.build(n_nodes, seed=seed)
    tracer = None
    if trace_spans:
        from ..obs import SpanTracer

        tracer = SpanTracer(cluster.engine).install(cluster)
    manager = Manager.deploy(cluster)
    plan = FaultPlan.random(seed, [n.name for n in cluster.nodes],
                            phases=CHECKPOINT_PHASES + ASYNC_CKPT_PHASES)
    injector = FaultInjector(cluster, plan).install()
    engine = cluster.engine
    drv_rng = random.Random(seed ^ 0x1F123BB5)
    timeouts = PhaseTimeouts(connect=2.0, meta=5.0, barrier=5.0, done=8.0,
                             flush=20.0, load=5.0, restart_done=15.0, drain=3.0)
    grace = timeouts.barrier + timeouts.done + 2.0

    srv_node, cli_node = cluster.node(1), cluster.node(2 % n_nodes)
    pod_srv = cluster.create_pod(srv_node, SRV_POD)
    pod_cli = cluster.create_pod(cli_node, CLI_POD)
    srv = srv_node.kernel.spawn(
        build_program("chaos.pp-server", port=9310, rounds=rounds,
                      dirty_rate=25_000_000), pod_id=SRV_POD)
    cli = cli_node.kernel.spawn(
        build_program("chaos.pp-client", server=pod_srv.vip, port=9310,
                      rounds=rounds, dirty_rate=25_000_000), pod_id=CLI_POD)

    report = AsyncChaosReport(seed=seed, plan=injector.plan.describe(),
                              trace=injector.trace, fired=injector.fired)
    san_paths: List[Tuple[str, str]] = []

    def surviving_node(pod_id: str):
        for node in cluster.nodes:
            if not node.crashed and pod_id in node.kernel.pods:
                return node
        return None

    def check_resumed(label: str):
        for pod_id in (SRV_POD, CLI_POD):
            node = surviving_node(pod_id)
            if node is None:
                continue
            pod = node.kernel.pods[pod_id]
            if pod.suspended:
                report.violations.append(
                    f"A1 {label}: {pod_id} left suspended on {node.name}")
            if pod.vip in node.kernel.netstack.netfilter._blocked_ips:
                report.violations.append(
                    f"A1 {label}: {pod_id} vip still firewalled on {node.name}")

    def driver():
        for i in range(n_ops):
            use_files = drv_rng.random() < 0.5
            targets = []
            for pod_id in (SRV_POD, CLI_POD):
                node = surviving_node(pod_id)
                if node is None:
                    continue
                if use_files:
                    uri = f"file:/san/async-{pod_id}-{i}.img"
                    san_paths.append((f"/san/async-{pod_id}-{i}.img", pod_id))
                else:
                    uri = "mem"
                targets.append((node.name, pod_id, uri))
            if len(targets) < 2:
                return
            res = yield from manager.checkpoint_task(
                targets, deadline=30.0, timeouts=timeouts,
                filters=[{"name": "delta"}], async_ckpt=True)
            report.ops.append(("checkpoint", res.op_id, res.status))
            if not res.ok:
                yield engine.sleep(grace)
                check_resumed(f"op{res.op_id}")
            yield engine.sleep(drv_rng.uniform(0.5, 2.0))

    engine.spawn(driver(), name="async-chaos-driver")
    engine.run(until=until)

    report.crashed_nodes = [n.name for n in cluster.nodes if n.crashed]

    # ---- A2: nothing partial is visible as restartable on the SAN ----
    home = cluster.node(0)
    for path, pod_id in san_paths:
        sink = resolve_sink(f"file:{path}", cluster, home.kernel.vfs)
        err = restore_error(sink, pod_id) if sink.exists() else None
        if err:
            report.violations.append(f"A2: partial image visible at {path}: {err}")

    # ---- A3: every committed delta chain restores byte-identically ----
    for node in cluster.nodes:
        if node.crashed:
            continue
        agent = manager.agents[node.name]
        for pod_id, chain in sorted(agent.pipeline_state.chains.items()):
            if not chain:
                continue
            try:
                reassembled = ImagePipeline.reassemble(list(chain))
            except Exception as err:  # noqa: BLE001
                report.violations.append(
                    f"A3: chain for {pod_id} on {node.name} unrestorable: {err}")
                continue
            base = agent.pipeline_state.bases.get(pod_id)
            if base is not None and reassembled.raw != base:
                report.violations.append(
                    f"A3: chain for {pod_id} on {node.name} reassembles to "
                    "different bytes than the committed base")

    # ---- A4: end-to-end correctness when the run could complete ----
    if srv is not None and cli is not None:
        sums = final_sums(cluster)
        report.app_finished = None not in sums
        if report.app_finished and sums != expected_sums(rounds):
            report.violations.append(
                f"A4: checksum mismatch: {sums} != {expected_sums(rounds)}")
        if not report.crashed_nodes and not report.app_finished:
            report.violations.append(
                "A4: application did not finish despite no node crash")
    if tracer is not None:
        from ..obs import to_jsonl

        report.span_dump = to_jsonl(tracer)
    return report


# ---------------------------------------------------------------------------
# content-addressed store chaos
# ---------------------------------------------------------------------------

@dataclass
class CasChaosReport:
    """One audited content-addressed-store chaos episode (see
    :func:`run_cas_chaos`)."""

    seed: int
    plan: List[Dict[str, Any]]
    trace: List[Tuple[float, str, Optional[str], Optional[str], Tuple[str, ...]]]
    fired: List[Tuple[float, str, str, Optional[str], Optional[str]]]
    #: (op kind, op_id, status) per driver operation, in order.
    ops: List[Tuple[str, int, str]] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    crashed_nodes: List[str] = field(default_factory=list)
    app_finished: bool = False
    #: final store counters (:meth:`~repro.storage.cas.CasStore.stats`).
    store_stats: Dict[str, Any] = field(default_factory=dict)
    span_dump: Optional[str] = None


def run_cas_chaos(seed: int, n_nodes: int = 4, n_ops: int = 5,
                  rounds: int = 300, until: float = 300.0,
                  trace_spans: bool = False) -> CasChaosReport:
    """One content-addressed-store chaos episode; returns the audited
    report.

    The checksummed ping-pong pair (nonzero dirty rate, so generations
    differ) runs while the driver checkpoints both pods into the CAS at
    *fixed* per-pod paths — every op extends or replaces the same
    generation chain, exercising stage/publish/retire/release — with the
    delta filter and the zero-stall path mixed in at random, and a
    seeded fault plan firing at the checkpoint boundaries plus the CAS
    crossings (chunk write, index commit, tombstone GC).  Audited
    invariants:

    C1  A failed op leaves every surviving pod running (serial
        invariant I1 across the CAS write path).
    C2  A published recipe is never partial: whatever generation the
        store holds for a pod loads completely, and its chain
        reassembles.
    C3  **Generation integrity.**  The chain loaded back from the store
        is byte-identical to a committed prefix of the Agent's
        in-memory ground truth — an aborted op or replayed tombstone
        can never publish bytes nobody committed.
    C4  End-to-end checksums match whenever the application finished.
    C5  **No leaks, no dangles.**  After a final orphan sweep against
        the ledger's live ops, the store has no staged leftovers and
        :meth:`~repro.storage.cas.CasStore.audit` is clean: refcounts
        equal recipe occurrences, every chunk is referenced, and no
        published recipe references data that never hit the SAN.
    """
    from ..core.manager import Manager, PhaseTimeouts
    from ..core.sinks import resolve_sink
    from ..storage.cas import CasStore

    cluster = Cluster.build(n_nodes, seed=seed)
    tracer = None
    if trace_spans:
        from ..obs import SpanTracer

        tracer = SpanTracer(cluster.engine).install(cluster)
    manager = Manager.deploy(cluster)
    plan = FaultPlan.random(seed, [n.name for n in cluster.nodes],
                            phases=CHECKPOINT_PHASES + CAS_PHASES)
    injector = FaultInjector(cluster, plan).install()
    engine = cluster.engine
    drv_rng = random.Random(seed ^ 0x0CA5CA50)
    timeouts = PhaseTimeouts(connect=2.0, meta=5.0, barrier=5.0, done=8.0,
                             flush=20.0, load=5.0, restart_done=15.0, drain=3.0)
    grace = timeouts.barrier + timeouts.done + 2.0

    srv_node, cli_node = cluster.node(1), cluster.node(2 % n_nodes)
    pod_srv = cluster.create_pod(srv_node, SRV_POD)
    pod_cli = cluster.create_pod(cli_node, CLI_POD)
    srv = srv_node.kernel.spawn(
        build_program("chaos.pp-server", port=9320, rounds=rounds,
                      dirty_rate=25_000_000), pod_id=SRV_POD)
    cli = cli_node.kernel.spawn(
        build_program("chaos.pp-client", server=pod_srv.vip, port=9320,
                      rounds=rounds, dirty_rate=25_000_000), pod_id=CLI_POD)

    report = CasChaosReport(seed=seed, plan=injector.plan.describe(),
                            trace=injector.trace, fired=injector.fired)
    store = CasStore.on(cluster.san)
    cas_path = {pod_id: f"/san/cas-{pod_id}.img"
                for pod_id in (SRV_POD, CLI_POD)}
    # original placement: a pod only ever leaves its home host through a
    # crash-triggered restart, so "still on its home host" certifies the
    # local agent witnessed the pod's entire checkpoint history
    origin = {SRV_POD: srv_node.name, CLI_POD: cli_node.name}

    def surviving_node(pod_id: str):
        for node in cluster.nodes:
            if not node.crashed and pod_id in node.kernel.pods:
                return node
        return None

    def check_resumed(label: str):
        for pod_id in (SRV_POD, CLI_POD):
            node = surviving_node(pod_id)
            if node is None:
                continue
            pod = node.kernel.pods[pod_id]
            if pod.suspended:
                report.violations.append(
                    f"C1 {label}: {pod_id} left suspended on {node.name}")
            if pod.vip in node.kernel.netstack.netfilter._blocked_ips:
                report.violations.append(
                    f"C1 {label}: {pod_id} vip still firewalled on {node.name}")

    def driver():
        for _ in range(n_ops):
            use_delta = drv_rng.random() < 0.5
            use_async = drv_rng.random() < 0.3
            targets = []
            for pod_id in (SRV_POD, CLI_POD):
                node = surviving_node(pod_id)
                if node is None:
                    continue
                targets.append((node.name, pod_id, f"cas:{cas_path[pod_id]}"))
            if len(targets) < 2:
                return
            res = yield from manager.checkpoint_task(
                targets, deadline=30.0, timeouts=timeouts,
                filters=[{"name": "delta"}] if use_delta else None,
                async_ckpt=use_async)
            report.ops.append(("checkpoint", res.op_id, res.status))
            if not res.ok:
                yield engine.sleep(grace)
                check_resumed(f"op{res.op_id}")
            yield engine.sleep(drv_rng.uniform(0.5, 2.0))

    engine.spawn(driver(), name="cas-chaos-driver")
    engine.run(until=until)

    report.crashed_nodes = [n.name for n in cluster.nodes if n.crashed]
    home = cluster.node(0)

    # ---- C2 + C3: published generations load and match committed bytes
    for pod_id, path in sorted(cas_path.items()):
        sink = resolve_sink(f"cas:{path}", cluster, home.kernel.vfs)
        if not sink.exists():
            continue
        err = restore_error(sink, pod_id)
        if err:
            report.violations.append(
                f"C2: partial generation visible at {path}: {err}")
            continue
        loaded = sink.load(pod_id)
        node = surviving_node(pod_id)
        if node is None:
            continue
        truth = manager.agents[node.name].mem_sink.load(pod_id)
        if not truth:
            # this agent holds no committed history for the pod at all —
            # no ground truth to diff against
            continue
        if len(truth) < len(loaded):
            if node.name != origin[pod_id]:
                # the pod verifiably restarted here mid-run: this
                # agent's chain starts at the restore point, not at
                # generation zero — no full ground truth to diff against
                continue
            # on the never-crashed home host the in-memory chain commits
            # BEFORE the CAS flush, so a published chain longer than the
            # committed one is exactly the C3 shape: the store holds
            # generation entries nobody committed
            report.violations.append(
                f"C3: published chain at {path} has {len(loaded)} entries "
                f"but the home host committed only {len(truth)}")
            continue
        for i, (img, ref) in enumerate(zip(loaded, truth)):
            if (img.data != ref.data
                    or img.accounted_bytes != ref.accounted_bytes
                    or img.netstate_bytes != ref.netstate_bytes
                    or img.epoch != ref.epoch):
                report.violations.append(
                    f"C3: generation entry {i} at {path} differs from "
                    "the committed in-memory chain")
                break

    # ---- C4: end-to-end correctness when the run could complete ----
    if srv is not None and cli is not None:
        sums = final_sums(cluster)
        report.app_finished = None not in sums
        if report.app_finished and sums != expected_sums(rounds):
            report.violations.append(
                f"C4: checksum mismatch: {sums} != {expected_sums(rounds)}")
        if not report.crashed_nodes and not report.app_finished:
            report.violations.append(
                "C4: application did not finish despite no node crash")

    # ---- C5: orphan sweep, then the index must balance exactly ----
    from ..storage.ledger import TERMINAL_PHASES
    live = [op_id for op_id, op in manager.ledger.replay().items()
            if op.phase not in TERMINAL_PHASES]
    store.sweep_orphans(live)
    for path in sorted(store.pending):
        report.violations.append(f"C5: staged recipe leaked at {path}")
    for problem in store.audit():
        report.violations.append(f"C5: {problem}")
    report.store_stats = store.stats()
    if tracer is not None:
        from ..obs import to_jsonl

        report.span_dump = to_jsonl(tracer)
    return report
