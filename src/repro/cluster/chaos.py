"""Seeded chaos harness: one world, one fault plan, one audit.

One :func:`run` call builds a cluster, starts an application under test
(a checksummed ping-pong pair, or a fleet of idle pods), drives one
*scenario*'s operations — coordinated checkpoints, a crash recovery when
a blade dies, a live migration, a Manager failover, a fleet campaign —
while a seeded :class:`~repro.cluster.faults.FaultPlan` fires faults at
protocol phase boundaries, then audits the world against the protocol's
safety guarantees.

The guarantees are stated once, as *named invariants*
(:data:`INVARIANTS`): each is a plain function ``(world) -> [detail,
...]`` with an ``applies(world)`` predicate, and :func:`run` checks every
invariant whose predicate holds — whatever the scenario.  The scenarios
(:data:`SCENARIOS`) are plain data: what really differs between the
batteries (fault domain, driver, port, dirty rate, URIs, RNG salt,
whether a takeover supervisor runs) and nothing else.

Everything is derived from the one ``seed`` — the cluster RNG, the
fault plan, and the driver's choices — so a failing seed re-runs to the
*identical* event trace (compare :attr:`ChaosReport.trace`, and
``span_dump`` when tracing): determinism is the caller's oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..storage.ledger import CAMPAIGNS, OpLedger
from ..vos import build_program, imm, program
from .builder import Cluster
from .faults import (
    ASYNC_CKPT_PHASES,
    CAS_PHASES,
    CHECKPOINT_PHASES,
    FAULT_KINDS,
    FLEET_PHASES,
    MANAGER_PHASES,
    PRECOPY_PHASES,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)

MOD = (1 << 61) - 1

SRV_POD = "chaos-srv"
CLI_POD = "chaos-cli"

#: how long a ledger record keeps an op owned before a replica may claim it.
LEASE_S = 3.0

DELTA = {"name": "delta"}


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
# the one report, the one world
# ---------------------------------------------------------------------------

@dataclass
class ChaosReport:
    """Everything a failing seed needs to be diagnosed and replayed."""

    scenario: str
    seed: int
    plan: List[Dict[str, Any]]
    #: injector event trace: (time, phase, node, pod, fired_kinds).
    trace: List[Tuple[float, str, Optional[str], Optional[str], Tuple[str, ...]]]
    #: faults that actually fired: (time, kind, phase, node, pod).
    fired: List[Tuple[float, str, str, Optional[str], Optional[str]]]
    #: (op kind, op_id, status) per driver operation, in order.
    ops: List[Tuple[str, int, str]] = field(default_factory=list)
    #: ``"<invariant-name> <label>: <detail>"`` per broken guarantee.
    violations: List[str] = field(default_factory=list)
    crashed_nodes: List[str] = field(default_factory=list)
    manager_crashed: bool = False
    app_finished: bool = False
    #: deterministic JSONL span dump when ``run(..., trace_spans=True)``
    #: — byte-identical across runs of the same seed (the determinism
    #: oracle the chaos tests diff).
    span_dump: Optional[str] = None
    #: what only some scenarios produce.  ``takeover`` / ``resume``: what
    #: the replica's op takeover and campaign resume did, as ``(id,
    #: phase_at_claim, outcome)`` lists (absent: no failover);
    #: ``migration``: (checkpoint status, restart status, bailout,
    #: pre-copy rounds run), with ``migrated_ok``; the fleet's ``kind``
    #: (drain | evacuate | checkpoint), ``targets``, ``max_inflight``,
    #: per-run gate ``peaks`` and ``campaign``: (status, ok, failed,
    #: skipped, threshold_tripped) of the *final* run (the resumed one
    #: when the Manager was crashed); compose's drawn ``features``; the
    #: final ``store_stats``; and, with ``trace_spans`` and a campaign in
    #: the ledger, its ``assembled`` trace (JSONL), ``assembled_chrome``
    #: form and ``slo`` audit.
    outcome: Dict[str, Any] = field(default_factory=dict)


@dataclass
class World:
    """One episode: what the drivers mutate and the invariants read."""

    scenario: "Scenario"
    seed: int
    params: Dict[str, Any]
    #: the driver's RNG (``seed ^ scenario.salt``).
    rng: random.Random
    cluster: Cluster
    #: ``mgr0``; :attr:`replica` is ``mgr1`` once the supervisor took over.
    manager: Any
    timeouts: Any
    tracer: Any
    #: pod id -> the blade it was created on.
    home: Dict[str, str]
    #: pod id -> every blade it plausibly lived on.  ``crash_node``
    #: destroys its pods, so a lost pod is *explained* when any of these
    #: (its home, a migration destination some attempt reached) crashed.
    plausible: Dict[str, set]
    #: filled in once the injector exists (it owns ``trace``/``fired``).
    report: ChaosReport = None
    #: pod id -> (src, dst, ok) of the live migration that last carried it.
    moved: Dict[str, Tuple[str, str, bool]] = field(default_factory=dict)
    replica: Any = None
    #: fleet world: the seeded (kind, target nodes, policy), and every
    #: campaign run — the original first, then the replica's resumed ones.
    campaign: Optional[Tuple[str, List[str], Any]] = None
    runs: List[Any] = field(default_factory=list)
    #: the checkpoint pushed through the surviving Manager after a failover.
    continuity: Any = None
    #: campaign traces stitched from ledger + span dump (tracing only).
    assembled: Optional[List[Any]] = None

    @property
    def engine(self):
        return self.cluster.engine

    @property
    def active(self):
        """Whichever Manager is (or was last) in charge."""
        return self.replica if self.replica is not None else self.manager

    @property
    def grace(self) -> float:
        """The Agents' unilateral-abort window."""
        return self.timeouts.barrier + self.timeouts.done + 2.0

    def hosts(self, pod_id: str):
        """Surviving nodes on which ``pod_id`` is active."""
        return [n for n in self.cluster.nodes
                if not n.crashed and pod_id in n.kernel.pods]

    def crashed(self) -> set:
        return {n.name for n in self.cluster.nodes if n.crashed}

    def ledger(self):
        return OpLedger(self.cluster.san)

    def sink(self, uri: str, node_name: Optional[str] = None):
        """``uri``'s sink as an auditor on blade 0 sees it (``mem`` being
        the in-memory store of ``node_name``'s Agent)."""
        from ..core.sinks import resolve_sink
        vfs = self.cluster.node(0).kernel.vfs
        if node_name is None:
            return resolve_sink(uri, self.cluster, vfs)
        return resolve_sink(uri, self.cluster, vfs,
                            self.manager.agents[node_name].mem_sink)


# ---------------------------------------------------------------------------
# the invariants: each guarantee stated once, applied by predicate
# ---------------------------------------------------------------------------

#: name -> check.  ``check(world)`` returns one detail string per breach;
#: ``check.applies(world)`` says whether the guarantee is meaningful in
#: this world.  Order matters only where noted (``cas-audit-clean``
#: sweeps the store, so it follows the audits that read it).
INVARIANTS: Dict[str, Callable[[World], List[str]]] = {}


def invariant(name: str, applies: Callable[[World], bool] = lambda w: True):
    def register(check):
        check.applies = applies
        INVARIANTS[name] = check
        return check
    return register


def audit(w: World, name: str, label: str = "final") -> None:
    """Check one invariant now (if it applies) and record its breaches."""
    check = INVARIANTS[name]
    if check.applies(w):
        w.report.violations += [f"{name} {label}: {d}" for d in check(w)]


def _fleet(w: World) -> bool:
    return w.campaign is not None


@invariant("resumed")
def _resumed(w: World) -> List[str]:
    """(I1, A1, C1, F3; the resumed half of M1 and FC5.)  Every operation
    either succeeds or leaves all surviving pods running — not
    suspended, network unblocked: "the operation will be gracefully
    aborted, and the application will resume its execution".  Holds
    across the CAS write path, when the zero-stall encoder ran past the
    resume, across a Manager takeover and after an aborted migration.
    Drivers check it after every failed op (once partitioned Agents had
    their unilateral-abort window); :func:`run` checks the end state."""
    out = []
    for pod_id in w.home:
        for node in w.hosts(pod_id):
            pod = node.kernel.pods[pod_id]
            if pod.suspended:
                out.append(f"{pod_id} left suspended on {node.name}")
            if pod.vip in node.kernel.netstack.netfilter._blocked_ips:
                out.append(f"{pod_id} vip still firewalled on {node.name}")
    return out


@invariant("exactly-one-copy")
def _exactly_one_copy(w: World) -> List[str]:
    """(M1; "on exactly one node" of F3; the duplicate half of FC1.)  At
    no surviving node pair does a pod end up active twice.  After a
    migration: on success the destination runs it and the source copy is
    destroyed; on abort the source resumes (unless its blade crashed);
    never both."""
    out, crashed = [], w.crashed()
    for pod_id in w.home:
        names = [n.name for n in w.hosts(pod_id)]
        if len(names) > 1:
            out.append(f"{pod_id} active on multiple nodes: {names}")
        elif pod_id in w.moved:
            src, dst, ok = w.moved[pod_id]
            # a pod on a crashed blade is lost with it, not misplaced
            want = dst if ok else src
            if want not in crashed and names != [want]:
                out.append(
                    f"migration {'succeeded' if ok else 'aborted'} but "
                    f"{pod_id} lives on {names or 'no node'}, not {want}")
    return out


@invariant("no-pod-lost")
def _no_pod_lost(w: World) -> List[str]:
    """(FC1; "no node" of F3; "ok pod vanished" of FC5.)  Every pod is
    active on surviving hardware; a missing pod is explained only by a
    crashed blade that plausibly still held it — its home, or a
    migration destination some attempt reached."""
    where = {pod_id: set(nodes) for pod_id, nodes in w.plausible.items()}
    for r in w.runs:
        for pod_id, res in r.pods.items():
            where[pod_id] |= {res.node, res.dest}
    crashed = w.crashed()
    return [f"{pod_id} lost with no crashed blade to explain it"
            for pod_id in w.home
            if not w.hosts(pod_id) and not where[pod_id] & crashed]


def _shared_images(w: World) -> List[Tuple[str, str]]:
    """``(uri, pod)`` of every shared-storage image the episode could
    have written: a checkpoint's ``begin`` record is durable before any
    Agent hears of the op, so the ledger knows every target."""
    return sorted({(uri, pod_id) for op in w.ledger().replay().values()
                   if op.kind == "checkpoint"
                   for _node, pod_id, uri in op.targets if w.sink(uri).shared})


@invariant("no-partial-image")
def _no_partial_image(w: World) -> List[str]:
    """(I2, F2, A2, C2.)  No partial checkpoint image is ever visible as
    restartable: every container on the SAN — plain file, delta-chain
    container or published CAS recipe — either loads completely and its
    chain reassembles, or does not exist."""
    out = []
    for uri, pod_id in _shared_images(w):
        sink = w.sink(uri)
        err = restore_error(sink, pod_id) if sink.exists() else None
        if err:
            out.append(f"partial image visible at {uri}: {err}")
    return out


@invariant("last-checkpoint-restorable")
def _last_checkpoint_restorable(w: World) -> List[str]:
    """(I3.)  ``last_checkpoint`` is never corrupted: every image it
    points at (on surviving hardware) remains loadable — and, where the
    sink records owners, is still the generation that op published, not
    an older one a later failed op's rollback left in its place."""
    out = []
    last = w.active.last_checkpoint
    if last is None or not last.ok:
        return out
    for node_name, pod_id, uri in last.targets:
        sink = w.sink(uri, node_name)
        if sink.dest is not None:
            # a migration stream lands in the destination Agent's memory
            # and the restart that follows consumes it: nothing to restore
            continue
        if not sink.shared and w.cluster.node_by_name(node_name).crashed:
            continue  # lost with the blade, not corrupted
        err = restore_error(sink, pod_id)
        if not err and sink.tracks_ops and not sink.exists(last.op_id):
            err = f"no longer the generation op{last.op_id} published"
        if err:
            out.append(f"last_checkpoint {uri} of {pod_id} on {node_name} "
                       f"unrestorable: {err}")
    return out


@invariant("sync-point")
def _sync_point(w: World) -> List[str]:
    """(I4.)  The single synchronization point is preserved: within each
    checkpoint, every Agent's meta-data arrives before any Agent is sent
    ``continue``.  Audited per op the ledger knows, over the op's own
    pods (fleet units overlap in time), in every window the driving
    Manager lived to close."""
    out, trace = [], w.report.trace
    for op_id, op in sorted(w.ledger().replay().items()):
        if op.kind != "checkpoint":
            continue
        idx = [i for i, ev in enumerate(trace)
               if ev[1] in ("manager.op_start", "manager.op_end")
               and ev[3] == f"op{op_id}"]
        if len(idx) != 2:
            continue
        pods = {pod_id for _node, pod_id, _uri in op.targets}
        reported = set()
        for _t, phase, _node, pod_id, _fired in trace[idx[0]:idx[1] + 1]:
            if pod_id not in pods:
                continue
            if phase == "manager.meta_recv":
                reported.add(pod_id)
            elif phase == "manager.continue_sent" and reported != pods:
                out.append(f"op{op_id} sent continue before all meta-data "
                           f"arrived (missing {sorted(pods - reported)})")
                break
    return out


@invariant("checksums", applies=lambda w: not _fleet(w))
def _checksums(w: World) -> List[str]:
    """(F5, M2, A4, C4; the serial battery's end-to-end check.)  The
    application's rolling checksums are exact whenever it finished, and
    it does finish unless a blade crashed."""
    sums, want = final_sums(w.cluster), expected_sums(w.params["rounds"])
    if None not in sums:
        return [f"checksum mismatch: {sums} != {want}"] if sums != want else []
    if not w.crashed():
        return ["application did not finish despite no node crash"]
    return []


@invariant("ledger-terminal", applies=lambda w: (
    not w.manager.crashed or "resume" in w.report.outcome))
def _ledger_terminal(w: World) -> List[str]:
    """(F1; the ledger clause of FC5.)  With a Manager alive at the end
    — ``mgr0`` never crashed, or the replica finished its op takeover
    and its campaign resume — every ledger op ends terminal (``commit``
    or ``aborted``) and every ledger campaign too: a takeover leaves
    nothing in flight."""
    ledger = w.ledger()
    out = []
    orphans = {op_id: op.phase for op_id, op in ledger.replay().items()
               if not op.terminal}
    if orphans:
        out.append(f"non-terminal ledger ops: {orphans}")
    open_camps = {cid: lc.phase
                  for cid, lc in ledger.replay(CAMPAIGNS).items()
                  if not lc.terminal}
    if open_camps:
        out.append(f"non-terminal ledger campaigns: {open_camps}")
    return out


@invariant("takeover-resolved",
           applies=lambda w: w.scenario.supervise is not None)
def _takeover_resolved(w: World) -> List[str]:
    """(F4, F6, FC0.)  If the Manager crashed, the replica claimed every
    non-terminal op and resolved it (resumed / re-driven / aborted), ran
    the campaign resume, and drives new ops: the continuity checkpoint
    through it succeeds.  A requested crash point must really fire."""
    got, want, res = w.report.outcome, w.params.get("crash_phase"), w.continuity
    out = [f"op{op_id} takeover outcome {outcome!r}"
           for op_id, _phase, outcome in got.get("takeover", [])
           if outcome not in ("resumed", "redriven", "aborted")]
    if w.manager.crashed and "resume" not in got:
        out.append("Manager crashed but " + (
            "no replica deployed" if w.replica is None
            else "takeover never completed" if "takeover" not in got
            else "no campaign resume ran"))
    if want and not any(kind == "crash_manager" and phase == want
                        for _t, kind, phase, _n, _p in w.report.fired):
        out.append(f"crash_manager did not fire at {want}" if w.manager.crashed
                   else f"Manager never crashed (no {want} crossing?)")
    if res is not None and not res.ok:
        out.append(f"continuity checkpoint via {w.active.name} ended "
                   f"{res.status}: {res.errors}")
    return out


@invariant("fail-stop")
def _fail_stop(w: World) -> List[str]:
    """(F7, generalised.)  A dead Manager appends nothing: no ledger
    record it owns is newer than its crash instant — and when a ledger
    crossing killed it, the record behind that crossing is the last one
    it owns, same instant included."""
    out, dead = [], w.manager.name
    mine = [rec for rec in w.ledger().records() if rec.get("owner") == dead]
    for t_crash, kind, phase, _node, victim in w.report.fired:
        if kind != "crash_manager":
            continue
        late = [rec for rec in mine if rec.get("t", 0.0) > t_crash]
        if phase.startswith("manager.ledger."):
            crossed = [i for i, rec in enumerate(mine)
                       if f"op{rec.get('op')}" == victim
                       and f"manager.ledger.{rec.get('phase')}" == phase]
            if not crossed:
                out.append(f"no {phase} record of {victim} owned by {dead}")
            late = mine[crossed[0] + 1:] if crossed else late
        if late:
            out.append(f"{dead} appended after its crash: {late}")
    return out


@invariant("chain-reassembles")
def _chain_reassembles(w: World) -> List[str]:
    """(A3.)  Chain integrity: every committed in-memory delta chain
    reassembles, and the reassembled payload is byte-identical to the
    full base the Agent's pipeline state holds — an aborted or faulted
    epoch can never leave a chain that restores to different bytes."""
    from ..core.pipeline import ImagePipeline, image_extends_chain
    out = []
    restored = any(kind == "recover" and status == "ok"
                   for kind, _op_id, status in w.report.ops)
    for node in w.cluster.nodes:
        if node.crashed:
            continue
        tips = w.manager.agents[node.name].pipeline_state.tips()
        for pod_id in sorted(tips):
            chain, base = tips[pod_id].chain, tips[pod_id].base
            if not chain or restored and image_extends_chain(chain[0]):
                # a recover restarted the pod from shared storage: this
                # Agent's mirror of the deltas it took since starts at
                # the restore point, and the base they patch lives in
                # the sink the restart loaded (no-partial-image's beat)
                continue
            try:
                reassembled = ImagePipeline.reassemble(list(chain))
            except Exception as err:  # noqa: BLE001 - the finding
                out.append(f"chain for {pod_id} on {node.name} unrestorable: {err}")
                continue
            if base is not None and reassembled.raw != base:
                out.append(f"chain for {pod_id} on {node.name} reassembles to "
                           "different bytes than the committed base")
    return out


@invariant("generation-integrity")
def _generation_integrity(w: World) -> List[str]:
    """(C3.)  The chain loaded back from the content-addressed store is
    byte-identical to a committed prefix of the Agent's in-memory
    ground truth — an aborted op or replayed tombstone can never publish
    bytes nobody committed."""
    from ..core.pipeline import chain_entry
    out = []
    for uri, pod_id in _shared_images(w):
        sink = w.sink(uri)
        hosts = w.hosts(pod_id)
        if (not uri.startswith("cas:") or not sink.exists() or not hosts
                or restore_error(sink, pod_id)):
            continue  # not a generation; or no-partial-image's finding
        loaded = sink.load(pod_id)
        truth = w.manager.agents[hosts[0].name].mem_sink.load(pod_id)
        if not truth:
            # this agent holds no committed history for the pod at all —
            # no ground truth to diff against
            continue
        if len(truth) < len(loaded):
            # a pod only ever leaves its home host through a restart or
            # a migration, so "still on its home host" certifies the
            # local agent witnessed the pod's entire checkpoint history
            if hosts[0].name != w.home[pod_id]:
                # the pod verifiably restarted here mid-run: this
                # agent's chain starts at the restore point, not at
                # generation zero — no full ground truth to diff against
                continue
            # on the never-crashed home host the in-memory chain commits
            # BEFORE the CAS flush, so a published chain longer than the
            # committed one is exactly the C3 shape: the store holds
            # generation entries nobody committed
            out.append(f"published chain at {uri} has {len(loaded)} entries "
                       f"but the home host committed only {len(truth)}")
            continue
        for i, (img, ref) in enumerate(zip(loaded, truth)):
            if chain_entry(img) != chain_entry(ref):
                out.append(f"generation entry {i} at {uri} differs from "
                           "the committed in-memory chain")
                break
    return out


@invariant("cas-audit-clean")
def _cas_audit_clean(w: World) -> List[str]:
    """(C5.)  No leaks, no dangles.  After a final orphan sweep against
    the ledger's live ops, the store has no staged leftovers and
    :meth:`~repro.storage.cas.CasStore.audit` is clean: refcounts equal
    recipe occurrences, every chunk is referenced, and no published
    recipe references data that never hit the SAN."""
    from ..storage.cas import CasStore
    store = CasStore.on(w.cluster.san)
    store.sweep_orphans([op_id for op_id, op in w.ledger().replay().items()
                         if not op.terminal])
    return ([f"staged recipe leaked at {path}" for path in sorted(store.pending)]
            + list(store.audit()))


@invariant("connections-released")
def _connections_released(w: World) -> List[str]:
    """(N1.)  A closed connection leaves the stack: no node's demux
    tables still hold a TCP pair that neither end can ever again send or
    receive on (:meth:`~repro.net.tcp.TcpConn.reapable`) — whatever
    control sessions the scenario's ops opened, and whatever the faults
    did to them."""
    return [f"{node.name} {name} holds finished {sock!r}"
            for node in w.cluster.nodes
            for name, table in (("bound", node.stack.bound),
                                ("established", node.stack.established))
            for sock in table.values()
            if sock.proto == "tcp" and sock.conn.reapable()]


@invariant("corpses-released")
def _corpses_released(w: World) -> List[str]:
    """(N2.)  A killed process keeps only its exit record: no SIGKILLed
    process on any node — a destroyed pod's, a crashed blade's, a
    migration's source copy — still holds registers, a call stack, a
    blocked syscall or a parked result
    (:meth:`~repro.vos.process.Process.keep_exit_record`)."""
    out = []
    for node in w.cluster.nodes:
        for proc in node.kernel.procs.values():
            held = [name for name in ("regs", "callstack", "blocked_on", "pending_result")
                    if getattr(proc, name)]
            if proc.exit_code == -9 and held:
                out.append(f"{node.name} pid {proc.pid} ({proc.program.name}) "
                           f"killed but holds {', '.join(held)}")
    return out


@invariant("threshold-respected", applies=_fleet)
def _threshold_respected(w: World) -> List[str]:
    """(FC2.)  Once the failed fraction trips the threshold, no retry
    attempt starts, at most ``max_inflight`` already-admitted units run
    their first attempt, and the halted campaign really does exceed its
    threshold."""
    out, policy = [], w.campaign[2]
    for run_idx, r in enumerate(w.runs):
        if not r.threshold_tripped:
            continue
        total = max(1, len(r.pods))
        # failures counted at each unit's *final* attempt
        last_attempt = {pod: (t1, status)
                        for pod, _wave, _attempt, _t0, t1, status in r.events}
        fail_times = sorted(t1 for t1, status in last_attempt.values()
                            if status == "failed")
        trip_t = next((t1 for k, t1 in enumerate(fail_times, start=1)
                       if k / total > policy.failure_threshold), None)
        if trip_t is None:
            out.append(f"run{run_idx} halted but failures never exceeded "
                       f"threshold ({len(fail_times)}/{total})")
            continue
        late_first = set()
        for pod, _wave, attempt, t0, _t1, _status in r.events:
            if t0 <= trip_t:
                continue
            if attempt > 1:
                out.append(f"run{run_idx} retry of {pod} (attempt {attempt}) "
                           "started after the threshold tripped")
            else:
                late_first.add(pod)
        if len(late_first) > policy.max_inflight:
            out.append(f"run{run_idx} admitted {len(late_first)} first attempts "
                       f"after the trip (> max_inflight {policy.max_inflight})")
    return out


@invariant("bounded-concurrency", applies=_fleet)
def _bounded_concurrency(w: World) -> List[str]:
    """(FC3.)  Across all runs (original and resumed), overlapping unit
    attempts never exceed ``max_inflight``; each run's gate high-water
    mark agrees."""
    cap = w.campaign[2].max_inflight
    out = [f"gate peak {r.peak_inflight} > max_inflight {cap}"
           for r in w.runs if r.peak_inflight > cap]
    deltas = [d for r in w.runs for _p, _w, _a, t0, t1, _s in r.events
              for d in ((t0, +1), (t1, -1))]
    deltas.sort()  # releases before acquires
    live = peak = 0
    for _t, d in deltas:
        live += d
        peak = max(peak, live)
    if peak > cap:
        out.append(f"{peak} overlapping unit attempts > max_inflight {cap}")
    return out


@invariant("clean-end-state", applies=_fleet)
def _clean_end_state(w: World) -> List[str]:
    """(FC5.)  Every ok pod runs off the evacuated set; every
    failed/skipped migration leaves its pod on the source blade (unless
    that blade crashed); a fully-ok drain leaves the node empty.  (Pods
    unsuspended and unfirewalled: ``resumed``; none vanished:
    ``no-pod-lost``; campaigns terminal: ``ledger-terminal``.)"""
    kind, targets, _policy = w.campaign
    if not w.runs:
        return ["no campaign result from any run"]
    if kind == "checkpoint":
        return []  # nothing moves
    out, crashed = [], w.crashed()
    # the authoritative per-pod end state: later runs override earlier
    outcomes: Dict[str, Any] = {}
    for r in w.runs:
        outcomes.update(r.pods)
    for pod_id, res in sorted(outcomes.items()):
        names = [n.name for n in w.hosts(pod_id)]
        if res.status == "ok":
            if names and names[0] in targets:
                out.append(f"ok pod {pod_id} still on evacuated {names[0]}")
        # failed/skipped moves leave the pod home (M1), unless home died
        elif res.node not in crashed and names != [res.node]:
            out.append(f"{res.status} pod {pod_id} not on its source "
                       f"{res.node}: {names or 'gone'}")
    if w.runs[-1].status == "ok":
        for name in targets:
            node = w.cluster.node_by_name(name)
            if not node.crashed and node.kernel.pods:
                out.append(f"campaign ok but {name} still hosts "
                           f"{sorted(node.kernel.pods)}")
    return out


@invariant("assembled-complete",
           applies=lambda w: _fleet(w) and w.assembled is not None)
def _assembled_complete(w: World) -> List[str]:
    """(FC6, ``trace_spans`` only.)  The ledger + span dump stitch into
    exactly one campaign tree whose coverage accounts for every pod-unit
    the ledger knows about — including ops adopted after takeover — and
    the tree passes the SLO audit implied by the campaign's own
    journaled policy."""
    out = []
    if len(w.assembled) != 1:
        out.append(f"expected one assembled campaign, got {len(w.assembled)}")
    if w.assembled:
        cov = w.assembled[-1].coverage()
        if not cov["complete"]:
            out.append("assembled trace missing pod-units: "
                       + ",".join(cov["missing"]))
        out += [f"SLO {v['rule']}: {v['detail']}"
                for v in w.report.outcome["slo"]["verdicts"] if not v["ok"]]
    return out


# ---------------------------------------------------------------------------
# driver pieces
# ---------------------------------------------------------------------------

def _chance(rng: random.Random, p: float) -> bool:
    """Draws only when the outcome is open, so a feature a scenario
    fixes on or off costs no RNG state."""
    return rng.random() < p if 0.0 < p < 1.0 else p >= 1.0


def _targets(w: World, uri: str, i: int = 0) -> List[Tuple[str, str, str]]:
    """``(node, pod, uri)`` for every application pod that survives."""
    return [(hosts[0].name, pod_id, uri.format(pod=pod_id, i=i))
            for pod_id in w.home for hosts in [w.hosts(pod_id)] if hosts]


def _checkpoint(w: World, targets, **kw):
    """The one place a driver takes a coordinated checkpoint."""
    res = yield from w.active.checkpoint_task(
        targets, deadline=30.0, timeouts=w.timeouts, **kw)
    w.report.ops.append(("checkpoint", res.op_id, res.status))
    if not res.ok:
        # give partitioned Agents their unilateral-abort window (past the
        # takeover, when the op failed because its Manager died), then
        # audit that the application is running again
        yield from _await_takeover(w)
        yield w.engine.sleep(w.grace)
        audit(w, "resumed", f"op{res.op_id}")
    return res


def _recover(w: World):
    """A blade died and took a pod with it: recover from the last good
    checkpoint (the motivating use case).  Returns whether the episode
    can go on."""
    mgr = w.active
    if mgr.last_checkpoint is None or not mgr.last_checkpoint.ok:
        return False
    res = yield from mgr.recover_task(timeouts=w.timeouts)
    w.report.ops.append(("recover", res.op_id, res.status))
    # the whole application rolled back: a recover that fails half-way
    # loses every pod to the blade crash that triggered it, and pods
    # restart wherever placement put them
    for pod_id in w.home:
        w.plausible[pod_id] |= w.crashed()
    w.moved.clear()
    if res.ok:
        yield w.engine.sleep(1.0)
    return res.ok


def _await_takeover(w: World):
    """Wait out the supervisor's takeover when the Manager died."""
    while w.manager.crashed and "resume" not in w.report.outcome:
        yield w.engine.sleep(0.25)


def _migrate(w: World):
    """Live-migrate every application pod onto a spare blade (not the
    Manager's, not one already hosting the application)."""
    from ..core.streaming import migrate_task
    spare = [n.name for n in w.cluster.nodes[1:]
             if not n.crashed and not set(n.kernel.pods) & set(w.home)]
    moves = [(src, pod_id, dst) for (src, pod_id, _uri), dst
             in zip(_targets(w, "mem"), spare)]
    if len(moves) < len(w.home):
        return
    mig = yield from migrate_task(w.active, moves, live=True,
                                  precopy_rounds=4, dirty_threshold=4096,
                                  deadline=30.0, timeouts=w.timeouts)
    w.report.outcome.update(
        migration=(mig.checkpoint.status, mig.restart.status, mig.bailout,
                   len(mig.rounds)), migrated_ok=mig.ok)
    for src, pod_id, dst in moves:
        w.moved[pod_id] = (src, dst, mig.ok)
        w.plausible[pod_id].add(dst)
    if not mig.ok:
        # partitioned agents get their unilateral-abort window (past the
        # takeover, when the Manager died under the migration) before
        # the end-state audit expects the source resumed
        yield from _await_takeover(w)
        yield w.engine.sleep(w.grace)


def _supervisor(w: World):
    """The Manager's own failure detector: poll the process, wait out
    its lease, then take over against the shared ledger."""
    from ..core.manager import Manager
    from ..fleet import resume_campaigns_task
    engine, got = w.engine, w.report.outcome
    while not w.manager.crashed:
        if engine.now >= w.params["until"] - w.scenario.supervise:
            return
        yield engine.sleep(0.25)
    # the drivers lease their ops for LEASE_S; an op that carries a longer
    # lease (a migration's, the Manager default) is waited out too —
    # takeover only claims what has expired
    leases = [op.lease_until for op in w.ledger().replay().values()
              if not op.terminal]
    yield engine.sleep(LEASE_S + 1.0
                       + max(0.0, max(leases, default=0.0) - engine.now - LEASE_S))
    w.replica = Manager.deploy_replica(w.cluster, w.manager.agents, name="mgr1")
    # op-level first: resolve any orphaned checkpoint/migration op
    # (resume suspended pods, abort torn streams) before re-driving
    # a campaign's unfinished units on clean pods
    took = yield from w.replica.takeover_task(timeouts=w.timeouts,
                                              lease_s=LEASE_S)
    got["takeover"] = [tuple(a) for a in took]
    acts = yield from resume_campaigns_task(w.replica, timeouts=w.timeouts,
                                            lease_s=LEASE_S, collect=w.runs)
    got["resume"] = [tuple(a) for a in acts]


# ---------------------------------------------------------------------------
# the drivers
# ---------------------------------------------------------------------------

def _checkpoint_loop(w: World):
    """``n_ops`` coordinated checkpoints of the pair (serial / async /
    cas): per op, the scenario's features are drawn — SAN container or
    Agent memory, delta filter, zero-stall path — in that order, before
    the targets are built."""
    sc, rng = w.scenario, w.rng
    for i in range(w.params["n_ops"]):
        uri = sc.uri if _chance(rng, sc.san_p) else "mem"
        delta, zero_stall = _chance(rng, sc.delta_p), _chance(rng, sc.async_p)
        targets = _targets(w, uri, i)
        if len(targets) < 2:
            if sc.recovers and (yield from _recover(w)):
                continue
            return
        yield from _checkpoint(w, targets, filters=[DELTA] if delta else None,
                               async_ckpt=zero_stall)
        yield w.engine.sleep(rng.uniform(0.5, 2.0))


def _failover_driver(w: World):
    """The victim checkpoint ``mgr0`` dies under, then — once the
    supervisor's takeover settled — a *continuity* checkpoint through
    whichever Manager is alive."""
    engine, rng = w.engine, w.rng
    yield engine.sleep(round(rng.uniform(0.05, 0.3), 4))
    # the victim op: always file targets so every MANAGER_PHASES
    # crossing (including flush) exists on the success path
    targets = _targets(w, "file:/san/fo-{pod}.img")
    task = w.manager.checkpoint(targets, deadline=30.0, timeouts=w.timeouts,
                                lease_s=LEASE_S)
    _ok, res = yield engine.timeout(task.finished, 60.0)
    w.report.ops.append(("checkpoint", res.op_id, res.status) if res is not None
                        else ("checkpoint", 0, "crashed"))
    yield from _await_takeover(w)
    yield engine.sleep(w.grace)  # parked sessions settle (abort/flush)
    for name in ("resumed", "exactly-one-copy", "no-pod-lost"):
        audit(w, name, "post-takeover")
    # continuity: the surviving Manager must drive new ops
    uri = "file:/san/fo-cont-{pod}.img" if rng.random() < 0.5 else "mem"
    w.continuity = yield from _checkpoint(w, _targets(w, uri), lease_s=LEASE_S)


def _migration_driver(w: World):
    """Live-migrate both pods onto spare blades mid-run."""
    yield w.engine.sleep(round(w.rng.uniform(0.05, 0.35), 4))
    yield from _migrate(w)


def _compose_driver(w: World):
    """One seed draws *features* as well as faults: the sink (SAN file,
    Agent memory or the content-addressed store), the delta filter and
    the zero-stall path hold for the episode, one live migration lands
    between two checkpoints, a lost pod is recovered, and every op goes
    through whichever Manager is alive."""
    rng, n_ops = w.rng, w.params["n_ops"]
    uri = rng.choice(("file:/san/compose-{pod}-{i}.img", "mem",
                      "cas:/san/compose-{pod}.img"))
    delta, zero_stall = rng.random() < 0.5, rng.random() < 0.5
    migrate_at = rng.randrange(1, n_ops)
    w.report.outcome["features"] = (uri.split(":")[0], delta, zero_stall)
    for i in range(n_ops):
        if i == migrate_at:
            yield from _migrate(w)
        targets = _targets(w, uri, i)
        if len(targets) < 2:
            if (yield from _recover(w)):
                continue
            return
        yield from _checkpoint(w, targets, filters=[DELTA] if delta else None,
                               async_ckpt=zero_stall, lease_s=LEASE_S)
        yield w.engine.sleep(rng.uniform(0.5, 2.0))


def _draw_campaign(rng: random.Random):
    """The fleet world's seeded (kind, target nodes, policy)."""
    from ..fleet import FleetPolicy
    kind = rng.choice(("drain", "evacuate", "checkpoint"))
    populated = [f"blade{i}" for i in range(1, 6)]
    if kind == "drain":
        targets = [rng.choice(populated)]
    elif kind == "evacuate":
        targets = sorted(rng.sample(populated, 2))
    else:
        targets = []
    return kind, targets, FleetPolicy(
        max_inflight=rng.choice((2, 3, 4)), wave_barrier=rng.random() < 0.5,
        failure_threshold=0.5, retries=1, deadline=30.0, lease_s=LEASE_S)


def _fleet_driver(w: World):
    """Run the seeded campaign: drain a blade, evacuate two, or
    checkpoint the whole fleet."""
    from ..fleet import checkpoint_fleet_task, drain_campaign, evacuate_campaign
    kind, targets, policy = w.campaign
    yield w.engine.sleep(round(w.rng.uniform(0.05, 0.3), 4))
    if kind == "drain":
        task = drain_campaign(w.manager, targets[0], policy=policy,
                              timeouts=w.timeouts).run()
    elif kind == "evacuate":
        task = evacuate_campaign(w.manager, targets, policy=policy,
                                 timeouts=w.timeouts).run()
    else:
        task = w.manager._spawn(
            checkpoint_fleet_task(w.manager, policy=policy,
                                  timeouts=w.timeouts),
            name="fleet-chaos-ckpt")
    _ok, res = yield w.engine.timeout(task.finished, w.params["until"] - 120.0)
    if res is not None:
        w.runs.insert(0, res)


# ---------------------------------------------------------------------------
# the scenarios
# ---------------------------------------------------------------------------

#: fault kinds that make sense where no SAN traffic happens — inside
#: pre-copy rounds, and at fleet wave boundaries (SAN faults are covered
#: by the per-op batteries; there the interesting failures are blades
#: dying and links misbehaving *between* units).
NO_SAN_FAULT_KINDS = ("crash_node", "link_drop", "link_delay", "hang")


@dataclass(frozen=True)
class Scenario:
    """What really differs between two chaos batteries."""

    #: XORed into the seed for the driver's RNG (kept per battery so
    #: every seeded schedule replays as it always did).
    salt: int
    driver: Callable[[World], Any]
    #: :func:`run`'s settable parameters and their defaults.
    defaults: Mapping[str, Any]
    #: the random fault plan's phase and kind domains.
    phases: Tuple[str, ...] = CHECKPOINT_PHASES
    kinds: Tuple[str, ...] = FAULT_KINDS
    #: phases a drawn ``crash_manager`` may land on (empty: none drawn).
    manager_crash_at: Tuple[str, ...] = ()
    #: seconds before ``until`` at which the takeover supervisor stops
    #: watching (None: no supervisor — nothing kills this Manager).
    supervise: Optional[float] = None
    #: the ping-pong pair's port and dirty rate (a nonzero rate gives
    #: pre-copy a moving working set, the copy-on-write window writes to
    #: catch, and successive generations different bytes).
    port: int = 9300
    dirty_rate: int = 0
    #: checkpoint loop: shared-storage URI template, the chance an op
    #: uses it rather than Agent memory, the chance of the delta filter
    #: and of the zero-stall path, and whether a lost pod is recovered.
    uri: str = "mem"
    san_p: float = 0.0
    delta_p: float = 0.0
    async_p: float = 0.0
    recovers: bool = False


_PAIR = {"n_nodes": 4, "rounds": 300, "until": 300.0}

SCENARIOS: Dict[str, Scenario] = {
    # coordinated checkpoints, plain images, crash recovery
    "serial": Scenario(
        salt=0x5DEECE66D, driver=_checkpoint_loop,
        defaults={**_PAIR, "n_ops": 4},
        uri="file:/san/chaos-{pod}-{i}.img", san_p=0.7, recovers=True),
    # mgr0 killed exactly at the ``crash_phase`` ledger crossing —
    # between "this phase's record is durable" and "the next phase's
    # actions run", the worst case for the op left in flight
    "failover": Scenario(
        salt=0x9E3779B9, driver=_failover_driver, supervise=45.0,
        defaults={"n_nodes": 4, "rounds": 220, "until": 120.0,
                  "crash_phase": None}),
    # faults inside live-migration pre-copy rounds
    "migration": Scenario(
        salt=0x3C6EF372, driver=_migration_driver,
        defaults={"n_nodes": 5, "rounds": 2500, "until": 300.0},
        phases=PRECOPY_PHASES, kinds=NO_SAN_FAULT_KINDS,
        dirty_rate=64_000_000),
    # a campaign over idle pods (blades 1..5 populated, the rest spare),
    # faults at the wave boundaries, possibly a Manager crash mid-campaign
    "fleet": Scenario(
        salt=0x51EE7F1E, driver=_fleet_driver, supervise=90.0,
        defaults={"n_nodes": 8, "n_pods": 24, "until": 900.0},
        phases=FLEET_PHASES, kinds=NO_SAN_FAULT_KINDS,
        manager_crash_at=("fleet.pod_start", "fleet.pod_done",
                          "fleet.wave_done")),
    # zero-stall incremental checkpoints; faults also at the async
    # crossings (capture end, post-resume encode, overlapped write-out)
    "async": Scenario(
        salt=0x1F123BB5, driver=_checkpoint_loop,
        defaults={**_PAIR, "n_ops": 5},
        phases=CHECKPOINT_PHASES + ASYNC_CKPT_PHASES,
        port=9310, dirty_rate=25_000_000,
        uri="file:/san/async-{pod}-{i}.img", san_p=0.5,
        delta_p=1.0, async_p=1.0),
    # the content-addressed store at *fixed* per-pod paths — every op
    # extends or replaces the same generation chain, exercising
    # stage/publish/retire/release — delta and zero-stall mixed in;
    # faults also at the CAS crossings (chunk write, index commit,
    # tombstone GC)
    "cas": Scenario(
        salt=0x0CA5CA50, driver=_checkpoint_loop,
        defaults={**_PAIR, "n_ops": 5},
        phases=CHECKPOINT_PHASES + CAS_PHASES,
        port=9320, dirty_rate=25_000_000,
        uri="cas:/san/cas-{pod}.img", san_p=1.0, delta_p=0.5, async_p=0.3),
    # all of it in one episode: the union fault domain, features drawn
    # per seed, a live migration mid-run, possibly a Manager crash at a
    # ledger crossing
    "compose": Scenario(
        salt=0x2C0390E5, driver=_compose_driver, supervise=45.0,
        defaults={"n_nodes": 6, "rounds": 600, "until": 300.0, "n_ops": 5},
        phases=(CHECKPOINT_PHASES + ASYNC_CKPT_PHASES + CAS_PHASES
                + PRECOPY_PHASES),
        manager_crash_at=MANAGER_PHASES, port=9330, dirty_rate=25_000_000),
}


# ---------------------------------------------------------------------------
# the one runner
# ---------------------------------------------------------------------------

def _plan(w: World) -> FaultPlan:
    """The episode's fault plan: a Manager crash at the requested ledger
    crossing, or a seeded random draw over the scenario's domain —
    possibly plus a ``crash_manager`` drawn from the driver's RNG."""
    sc, rng = w.scenario, w.rng
    if "crash_phase" in w.params:
        crash_phase = w.params["crash_phase"]
        if crash_phase is None:
            raise TypeError("this scenario needs crash_phase=<manager.ledger.*>")
        faults = [FaultSpec(kind="crash_manager", phase=crash_phase)]
        if crash_phase == "manager.ledger.abort":
            # the abort crossing only exists on a failed op: stall the
            # server Agent at suspend past the Manager's meta deadline
            faults.insert(0, FaultSpec(kind="hang", phase="agent.suspend",
                                       node=w.home[SRV_POD], seconds=9.0))
        return FaultPlan(seed=w.seed, faults=faults)
    plan = FaultPlan.random(w.seed, [n.name for n in w.cluster.nodes],
                            phases=sc.phases, kinds=sc.kinds)
    if sc.manager_crash_at and rng.random() < 0.4:
        plan.faults.append(FaultSpec(
            kind="crash_manager", phase=rng.choice(sc.manager_crash_at),
            after=rng.randint(1, 8)))
    return plan


def _build_world(name: str, seed: int, trace_spans: bool,
                 params: Dict[str, Any]) -> World:
    """Cluster → tracer → Manager → fault plan + injector → driver RNG →
    the one set of phase deadlines → the application under test."""
    from ..core.manager import Manager, PhaseTimeouts
    sc = SCENARIOS[name]
    rng = random.Random(seed ^ sc.salt)
    manager = campaign = None
    if "n_pods" in params:  # only the fleet scenario takes (and needs) it
        from ..fleet import FLEET_TIMEOUTS as timeouts, build_fleet_world
        campaign = _draw_campaign(rng)
        cluster, manager, placed = build_fleet_world(
            params["n_nodes"], params["n_pods"], seed=seed,
            first_node=1, last_node=5)
        home = {pod_id: node for node, pod_id in placed}
    else:
        cluster = Cluster.build(params["n_nodes"], seed=seed)
        # tight per-phase deadlines: faults inject multi-second stalls,
        # and the episode has to detect and clean them up well inside
        # `until`
        timeouts = PhaseTimeouts(connect=2.0, meta=5.0, barrier=5.0, done=8.0,
                                 flush=20.0, load=5.0, restart_done=15.0,
                                 drain=3.0)
        # the application under test (kept off blade0, where the Manager
        # lives)
        home = {SRV_POD: cluster.node(1).name,
                CLI_POD: cluster.node(2 % params["n_nodes"]).name}
    tracer = None
    if trace_spans:
        from ..obs import SpanTracer
        tracer = SpanTracer(cluster.engine).install(cluster)
    if manager is None:
        manager = Manager.deploy(cluster)
    w = World(scenario=sc, seed=seed, params=params, rng=rng, cluster=cluster,
              manager=manager, timeouts=timeouts, tracer=tracer, home=home,
              plausible={p: {n} for p, n in home.items()},
              campaign=campaign)
    injector = FaultInjector(cluster, _plan(w)).install()
    w.report = ChaosReport(scenario=name, seed=seed,
                           plan=injector.plan.describe(),
                           trace=injector.trace, fired=injector.fired)
    if campaign is None:
        rate = {"dirty_rate": sc.dirty_rate} if sc.dirty_rate else {}
        srv_node, cli_node = (cluster.node_by_name(home[p])
                              for p in (SRV_POD, CLI_POD))
        pod_srv = cluster.create_pod(srv_node, SRV_POD)
        cluster.create_pod(cli_node, CLI_POD)
        srv_node.kernel.spawn(
            build_program("chaos.pp-server", port=sc.port,
                          rounds=params["rounds"], **rate), pod_id=SRV_POD)
        cli_node.kernel.spawn(
            build_program("chaos.pp-client", server=pod_srv.vip, port=sc.port,
                          rounds=params["rounds"], **rate), pod_id=CLI_POD)
    return w


def run(scenario: str, seed: int, *, trace_spans: bool = False,
        **params) -> ChaosReport:
    """One chaos episode of ``SCENARIOS[scenario]``; returns the audited
    :class:`ChaosReport`.  ``params`` override the scenario's
    ``defaults`` (``n_nodes``, ``rounds``, ``until``, and per scenario
    ``n_ops``, ``n_pods``, ``crash_phase``)."""
    from ..storage.cas import CasStore
    sc = SCENARIOS[scenario]
    unknown = set(params) - set(sc.defaults)
    if unknown:
        raise TypeError(f"{scenario} takes no {sorted(unknown)} "
                        f"(settable: {sorted(sc.defaults)})")
    w = _build_world(scenario, seed, trace_spans, {**sc.defaults, **params})
    if sc.supervise is not None:
        w.engine.spawn(_supervisor(w), name=f"chaos-{scenario}-supervisor")
    w.engine.spawn(sc.driver(w), name=f"chaos-{scenario}-driver")
    w.engine.run(until=w.params["until"])

    report, got = w.report, w.report.outcome
    report.crashed_nodes = sorted(w.crashed())
    report.manager_crashed = w.manager.crashed
    report.app_finished = not _fleet(w) and None not in final_sums(w.cluster)
    if _fleet(w):
        kind, targets, policy = w.campaign
        got.update(kind=kind, targets=targets, max_inflight=policy.max_inflight,
                   peaks=[r.peak_inflight for r in w.runs])
        if w.runs:
            c = w.runs[-1].counts()
            got["campaign"] = (w.runs[-1].status, c["ok"], c["failed"],
                               c["skipped"], w.runs[-1].threshold_tripped)
    if w.tracer is not None:
        from ..obs import assemble_campaigns, audit_campaign, to_jsonl
        report.span_dump = to_jsonl(w.tracer)
        # one tracer spans all Manager incarnations of the episode, so
        # the ledger + one dump must stitch into one complete tree
        w.assembled = assemble_campaigns(w.ledger(), dumps=(report.span_dump,))
        if w.assembled:
            tree = w.assembled[-1]
            got.update(assembled=tree.to_jsonl(),
                       assembled_chrome=tree.dumps_chrome(),
                       slo=audit_campaign(tree).to_dict())
    for name in INVARIANTS:
        audit(w, name)
    got["store_stats"] = CasStore.on(w.cluster.san).stats()
    return report
