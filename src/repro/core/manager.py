"""The ZapC Manager: the coordination front-end.

"Our coordinated checkpointing scheme consists of a Manager client that
orchestrates the operation and a set of Agents, one on each node. ...
It accepts a user's checkpoint or restart request and translates it into
a set of commands to the Agents."  Requests are lists of
``«node, pod, URI»`` tuples.

The Manager enforces the protocol's **single synchronization point**: it
broadcasts ``checkpoint``, collects every Agent's meta-data, and only
then broadcasts ``continue`` — the sync that prevents any pod from
resuming network activity before every pod has frozen its state.  On
restart there is no barrier at all: each Agent proceeds as soon as it
has the merged connectivity plan; synchronization is induced only by
connection establishment itself.

Failure semantics (DESIGN §6): each protocol phase carries its own
timeout (:class:`PhaseTimeouts`); a failed operation is aborted
gracefully — every reachable Agent resumes its pod, partial images are
garbage collected, and the pods are verified to have resumed.
:meth:`Manager.recover` restarts a crashed node's pods elsewhere from the
last good checkpoint.

**HA Manager** (DESIGN §9): each operation is an :class:`OpMachine`
whose phase transitions are appended to the durable op ledger on the
SAN *before* the phase's actions run, so a replica
(:meth:`Manager.deploy_replica`) can claim an orphaned op once its
owner's lease expires and finish or abort it from the last durable
phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..cluster.builder import Cluster
from ..cluster.node import Node
from ..obs.tracer import NULL_SPAN
from ..sim.tasks import Future, Task, all_of
from ..storage.cas import CasStore
from ..storage.ledger import OPS, OpLedger
from ..vos.syscalls import Errno
from . import codec
from .agent import AGENT_PORT, Agent, deploy_agents
from .meta import derive_restart_plan
from .sinks import resolve_sink
from .wire import recv_msg, send_msg

#: «node, pod, URI» — the request tuple of Section 4.
Target = Tuple[str, str, str]

#: the acknowledgement a sink promises after ``done`` (``Sink.ack``) ->
#: the post-phase span it runs under and what its absence means.
_POST_ACKS = {
    "streamed": ("stream", "image streaming failed"),
    "flushed": ("flush", "image flush failed or timed out"),
}


#: retries of an idempotent step (connect, the restart image load) after
#: its first failed try; the checkpoint command suspends the pod and is
#: never retried.
RETRIES = 2


def backoff(attempt: int) -> float:
    """The pause after failed try ``attempt`` (from 0): exponential."""
    return 0.2 * 2.0 ** attempt


@dataclass
class PhaseTimeouts:
    """Per-phase failure-detection deadlines.

    The global ``deadline`` argument of the operations remains a hard
    cap; these bound each protocol phase individually so a hang is
    detected at the phase where it happens.  ``drain`` bounds how long a
    failed operation waits for its remaining protocol tasks (and abort
    acknowledgements) before reaping them.
    """

    connect: float = 5.0
    meta: float = 15.0
    barrier: float = 15.0
    done: float = 30.0
    flush: float = 120.0
    load: float = 20.0
    restart_done: float = 60.0
    drain: float = 10.0


@dataclass
class OpResult:
    """Outcome of one coordinated operation, as measured by the Manager.

    ``duration`` is invocation → all pods reported done — the quantity
    Figures 6(a)/6(b) plot.
    """

    kind: str
    status: str
    t_start: float
    t_end: float
    pods: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    metas: Dict[str, List[dict]] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    #: per-pod filter chain the Agents actually applied (negotiation
    #: outcome — may be shorter than the requested chain).
    filters: Dict[str, List[dict]] = field(default_factory=dict)
    #: per-pod filter specs the Agents rejected during negotiation;
    #: informational, not an operation failure.
    filters_rejected: Dict[str, List[dict]] = field(default_factory=dict)
    #: the request this operation served (recorded so recovery can
    #: replay it from the last good checkpoint).
    targets: List[Target] = field(default_factory=list)
    #: operation sequence number (stamps Agent-side stores so a
    #: garbage-collected op cannot publish a late image).
    op_id: int = 0
    #: abort-path bookkeeping: SAN paths garbage-collected, and the
    #: per-pod "is it running again?" verification outcome.
    gc_paths: List[str] = field(default_factory=list)
    resumed: Dict[str, bool] = field(default_factory=dict)
    #: last durable state-machine phase this op reached (ledger mirror).
    phase: str = "begin"

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def max_stat(self, name: str) -> float:
        """Max of a per-pod stat (pods proceed in parallel, so the max
        is what the end-to-end time reflects)."""
        return max((stats.get(name, 0) for stats in self.pods.values()), default=0)

    def max_image_bytes(self) -> int:
        """The largest pod image — the Figure 6(c) metric."""
        return int(self.max_stat("image_bytes"))


class OpMachine:
    """One op as the Manager driving it sees it: the durable state
    machine plus the in-flight state every phase of the op shares.

    Every transition appends a ledger record *first* and then crosses
    the matching ``manager.ledger.<phase>`` trace point, followed by an
    explicit scheduling boundary (``yield None``).  The boundary is the
    point of the design: a ``crash_manager`` fault scheduled at the
    crossing lands exactly between "the record is durable" and "the
    next phase's actions run" — the worst case a takeover replica must
    handle, and the case :data:`repro.cluster.faults.MANAGER_PHASES`
    enumerates.  Each record also renews the owner's lease.

    Built only by :meth:`Manager._open_op` — for a fresh op and for an
    orphan ``adopted`` from a dead Manager's ledger alike.
    """

    def __init__(self, manager: "Manager", result: OpResult,
                 timeouts: PhaseTimeouts, lease_s: Optional[float],
                 span, adopted: bool) -> None:
        self.manager = manager
        self.result = result
        self.timeouts = timeouts
        #: the lease each record renews (None = the ledger default).
        self.lease_s = lease_s
        #: the driving incarnation's op span; its id rides every ledger
        #: record so the campaign-trace assembler can join durable facts
        #: back to the span dump that timed them.
        self.span = span
        #: claimed from the ledger rather than begun here: there are no
        #: live connections to tell and no tasks to reap on abort.
        self.adopted = adopted
        #: awaited by every pod session until the op's sync record is
        #: durable (a restart's holds the plan); :meth:`fail` raises it.
        self.barrier = Future(f"op{result.op_id}-barrier")
        self.failed = Future(f"op{result.op_id}-failed")
        #: pod -> (chan, fd) of the sessions that must hear ``abort``.
        self.conns: Dict[str, Tuple[Any, int]] = {}
        #: the pods told ``abort`` already: each hears it once.
        self.told: set = set()
        #: the per-pod session tasks (reaped on abort).
        self.tasks: List[Task] = []

    # -- the in-flight half ------------------------------------------------
    def phase(self, name: str, node: Optional[str] = None,
              pod: Optional[str] = None, ns: str = "phase"):
        """Open ``manager.<ns>.<name>`` under the op span."""
        return self.manager.cluster.span(f"manager.{ns}.{name}", node=node,
                                         pod=pod, parent=self.span,
                                         category=ns)

    def fail(self, reason: str, phase=NULL_SPAN) -> None:
        """Fail the op from a pod session (``return op.fail(...)``):
        close ``phase`` as failed, record the reason, release the
        barrier with an exception (so sibling sessions resume their pods
        instead of waiting out the phase timeout), and trip the
        op-failed race."""
        phase.end(status="failed")
        self.result.errors.append(reason)
        if not self.barrier.done:
            self.barrier.set_exception(RuntimeError(reason))
        if not self.failed.done:
            self.failed.set_result(reason)

    def dead(self) -> bool:
        """The one fail-stop check.  A Manager that crashed under this op
        neither cleans up, nor commits, nor releases anything —
        finishing the op is the takeover replica's job, driven by
        whatever the ledger durably recorded before the crash."""
        if not self.manager.crashed:
            return False
        self.result.status = "crashed"
        self.span.end(status="crashed")
        return True

    def refuse(self, reason: str) -> OpResult:
        """End an op refused before its begin record: nothing durable,
        nothing sent (``return op.refuse(...)``)."""
        result = self.result
        result.status = "failed"
        result.errors.append(reason)
        result.t_end = self.manager.cluster.engine.now
        self.span.end(status=result.status, duration_s=result.duration)
        return result

    # -- the durable half --------------------------------------------------
    def _append(self, phase: str, rec: str = "phase", **fields) -> None:
        mgr = self.manager
        self.result.phase = phase
        mgr.ledger.write(OPS, self.result.op_id, mgr.name,
                         mgr.cluster.engine.now, self.lease_s,
                         self.span.span_id, rec=rec, phase=phase, **fields)

    def advance(self, phase: str, rec: str = "phase", **fields):
        """One phase boundary: durable record, crossing, boundary."""
        self._append(phase, rec=rec, **fields)
        yield from self.manager.cluster.trace(f"manager.ledger.{phase}",
                                              pod=f"op{self.result.op_id}")
        yield None  # let a crash scheduled at the crossing land here

    def begin(self, **fields):
        """Open the op: the full request, durable before any Agent hears
        about it."""
        yield from self.advance(
            "begin", rec="op", kind=self.result.kind,
            targets=[list(t) for t in self.result.targets], **fields)

    def commit(self, **fields):
        """Terminal success (also re-records the targets, so a replica
        can reconstruct ``last_checkpoint`` from the commit alone)."""
        yield from self.advance(
            "commit", targets=[list(t) for t in self.result.targets], **fields)

    def aborted(self, reason: str = "") -> None:
        """Terminal failure — synchronous: the abort path just finished
        and there is nothing after this record to crash before."""
        self._append("aborted", reason=reason)


def _redirect_out(metas: Dict[str, List[dict]],
                  redirect_moves: Optional[Dict[str, str]],
                  pod_id: str) -> List[dict]:
    """The §5 send-queue redirects riding ``pod_id``'s ``continue``: one
    entry per connection whose peer pod is itself migrating."""
    if not redirect_moves:
        return []
    plan = derive_restart_plan(metas)
    out = []
    for entry in plan.get(pod_id, {}).get("schedule", []):
        peer_pod = entry.get("peer_pod")
        if peer_pod is None or peer_pod not in redirect_moves:
            continue
        out.append({
            "sock_id": entry["sock_id"],
            "discard": entry["send_discard"],
            "peer_pod": peer_pod,
            "peer_sock_id": entry["peer_sock_id"],
            "dst_node": redirect_moves[peer_pod],
        })
    return out


class Manager:
    """Front-end client for coordinated checkpoint-restart."""

    def __init__(self, cluster: Cluster, agents: Dict[str, Agent],
                 home: Optional[Node] = None, name: str = "mgr0",
                 ledger: Optional[OpLedger] = None) -> None:
        self.cluster = cluster
        self.agents = agents
        #: the node the Manager runs on ("can be run from anywhere,
        #: inside or outside the cluster" — we put it on blade 0, as the
        #: paper's evaluation does).
        self.home = home if home is not None else cluster.node(0)
        self.name = name
        #: the durable op ledger on the SAN — shared by construction
        #: with every other Manager of this cluster.
        self.ledger = ledger if ledger is not None else OpLedger(cluster.san)
        self.last_checkpoint: Optional[OpResult] = None
        #: fail-stop flag: a crashed Manager drives nothing ever again.
        self.crashed = False
        #: live protocol tasks this Manager spawned (reaped on crash).
        self._tracked: List[Task] = []
        #: per-node op exclusion: node name -> label of the op holding
        #: it.  A recover and a drain racing over one node's pods would
        #: destroy what the other is migrating; the claim table makes
        #: the loser fail fast instead (see claim_nodes).
        self._node_claims: Dict[str, str] = {}
        cluster.manager = self

    @classmethod
    def deploy(cls, cluster: Cluster, name: str = "mgr0") -> "Manager":
        """Start an Agent on every node and return a Manager."""
        return cls(cluster, deploy_agents(cluster), name=name)

    @classmethod
    def deploy_replica(cls, cluster: Cluster, agents: Dict[str, Agent],
                       home: Optional[Node] = None,
                       name: str = "mgr1") -> "Manager":
        """A fresh Manager against the *existing* Agents and ledger.

        The replica starts stateless: its ``last_checkpoint`` is
        reconstructed from the newest durable commit record, and
        :meth:`takeover_task` then claims whatever the dead Manager
        left in flight.
        """
        replica = cls(cluster, agents, home=home, name=name)
        last = replica.ledger.last_committed("checkpoint")
        if last is not None:
            rebuilt = OpResult("checkpoint", "ok", last.t_last, last.t_last,
                               targets=[tuple(t) for t in last.targets],
                               op_id=last.op_id, phase="commit")
            replica.last_checkpoint = rebuilt
        return replica

    def _spawn(self, gen, name: str) -> Task:
        """Spawn a protocol task and track it for fail-stop reaping."""
        task = self.cluster.engine.spawn(gen, name=name)
        if len(self._tracked) > 64:
            self._tracked = [t for t in self._tracked if not t.done]
        self._tracked.append(task)
        return task

    def crash(self) -> None:
        """Fail-stop crash of this Manager (the process, not its node).

        Every in-flight protocol task dies mid-phase; connections to
        Agents go dead (their sessions see EOF or wait out the barrier
        deadline, unless a replica re-attaches first).  The ledger is
        the only thing that survives.
        """
        if self.crashed:
            return
        self.crashed = True
        if getattr(self.cluster, "manager", None) is self:
            self.cluster.manager = None
        tracked, self._tracked = self._tracked, []
        for task in tracked:
            if not task.done:
                task.cancel()
        self._node_claims.clear()
        self.cluster.count("manager.crashes")

    # ------------------------------------------------------------------
    # per-node op exclusion
    # ------------------------------------------------------------------
    def claim_nodes(self, nodes, label: str) -> bool:
        """Claim every node in ``nodes`` for the op tagged ``label``.

        All-or-nothing: if any node is already held by a *different*
        label, nothing is claimed and the caller must fail fast — this
        is what keeps a ``recover()`` from destroying pods a concurrent
        ``drain()`` is mid-migrating (and vice versa).  Re-claiming your
        own label is a no-op success.  Synchronous (no yield), so the
        check-then-claim is atomic in the single-threaded simulation.
        """
        names = list(nodes)
        for name in names:
            holder = self._node_claims.get(name)
            if holder is not None and holder != label:
                self.cluster.count("manager.node_claim_conflicts")
                return False
        for name in names:
            self._node_claims[name] = label
        return True

    def release_nodes(self, nodes, label: str) -> None:
        """Release claims held by ``label`` (foreign claims untouched)."""
        for name in nodes:
            if self._node_claims.get(name) == label:
                del self._node_claims[name]

    def node_claim_holder(self, node_name: str):
        """The label holding ``node_name``, or None when unclaimed."""
        return self._node_claims.get(node_name)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _reset_chan(self, chan) -> None:
        """Abandon a channel's in-flight syscall so it can be reused.

        A phase timeout leaves the channel mid-recv; the kernel's late
        completion resolves into nothing (the abandoned future), and the
        channel is free to carry the abort message.
        """
        chan.waiting = None
        chan.blocked_on = None

    def _open_attempt(self, node_name: str, connect_timeout: float):
        """One connection attempt to a node's Agent; yields (chan, fd)
        or None on refusal/timeout."""
        kernel = self.home.kernel
        node = self.cluster.node_by_name(node_name)
        chan = kernel.host_channel(f"mgr->{node_name}")
        fd = yield kernel.host_call(chan, "socket", "tcp")
        ok, rc = yield self.cluster.engine.timeout(
            kernel.host_call(chan, "connect", fd, (node.ip, AGENT_PORT)),
            connect_timeout)
        if not ok:
            # abandon the stuck connect; the socket (if it ever
            # completes) is simply never used
            self._reset_chan(chan)
            return None
        if isinstance(rc, Errno):
            return None
        return chan, fd

    def _retry(self, counter: str, attempts: int, try_once):
        """The one retry loop: run the generator ``try_once()`` up to
        ``attempts`` times until it yields something other than None; a
        :func:`backoff` pause, counted as ``manager.<counter>_retries``,
        follows each failed try but the last."""
        for attempt in range(attempts):
            got = yield from try_once()
            if got is not None:
                return got
            if attempt + 1 < attempts:
                self.cluster.count(f"manager.{counter}_retries")
                self.cluster.observe("manager.backoff_s", backoff(attempt))
                yield self.cluster.engine.sleep(backoff(attempt))
        return None

    def _open_retry(self, node_name: str, timeouts: PhaseTimeouts,
                    attempts: int = RETRIES + 1):
        """Connect, retried (connect is idempotent); (chan, fd) or None."""
        return (yield from self._retry(
            "connect", attempts,
            lambda: self._open_attempt(node_name, timeouts.connect)))

    def _recv_timed(self, chan, fd, timeout_s: float):
        """recv_msg bounded by a phase timeout; None on timeout/EOF/error."""
        engine = self.cluster.engine
        kernel = self.home.kernel
        task = self._spawn(recv_msg(kernel, chan, fd), name="mgr-recv")
        try:
            ok, msg = yield engine.timeout(task.finished, timeout_s)
        except Exception:
            return None
        if not ok:
            task.cancel()
            self._reset_chan(chan)
            return None
        return msg

    def _close_conn(self, chan, fd):
        kernel = self.home.kernel
        self._reset_chan(chan)
        try:
            yield kernel.host_call(chan, "close", fd)
        except Exception:
            pass

    def _send_simple(self, node_name: str, msg: Dict[str, Any],
                     timeouts: PhaseTimeouts, reply_s: Optional[float] = None,
                     attempts: int = 1):
        """One-shot request/reply to a node's Agent (best effort): connect
        (``attempts`` tries), send, await the reply for ``reply_s``
        (default: the drain window) unless the send failed, close."""
        opened = yield from self._open_retry(node_name, timeouts, attempts)
        if opened is None:
            return None
        chan, fd = opened
        reply = None
        if (yield from send_msg(self.home.kernel, chan, fd, msg)):
            reply = yield from self._recv_timed(
                chan, fd, timeouts.drain if reply_s is None else reply_s)
        yield from self._close_conn(chan, fd)
        return reply

    # ------------------------------------------------------------------
    # the op lifecycle: one open, one drive, one abort
    # ------------------------------------------------------------------
    def _open_op(self, kind: str, targets, timeouts: Optional[PhaseTimeouts],
                 lease_s: Optional[float] = None, orphan=None,
                 verb: Optional[str] = None, **attrs) -> OpMachine:
        """The one way an op comes under this Manager's control.

        A fresh op allocates its id and opens ``manager.<kind>``,
        registered under ``("op", id)`` so Agent-side spans on other
        nodes can attach themselves as children.  Adopting an ``orphan``
        (a ledger op claimed from a dead Manager) keeps its id and opens
        ``manager.<verb>`` parented on that same key instead.
        """
        engine = self.cluster.engine
        if orphan is None:
            op_id, t_start = self.ledger.new_id(), engine.now
            link = {"key": ("op", op_id)}
        else:
            op_id, t_start = orphan.op_id, orphan.t_last
            link = {"parent": ("op", op_id)}
        span = self.cluster.span(f"manager.{verb or kind}", category="op",
                                 op=op_id, owner=self.name, **link, **attrs)
        # span context for the Agents: in a real deployment the span id
        # would ride the checkpoint command; here message bytes are
        # timing-bearing, so context propagates through the shared
        # tracer's key registry instead (same joinability, zero bytes)
        self.cluster.span_context(("op", op_id), mspan=span.span_id,
                                  owner=self.name)
        result = OpResult(kind, "ok", t_start, engine.now,
                          targets=list(targets), op_id=op_id)
        if timeouts is None:
            timeouts = PhaseTimeouts()
        return OpMachine(self, result, timeouts, lease_s, span,
                         adopted=orphan is not None)

    @staticmethod
    def _session(op: OpMachine, gen):
        """A pod session as :meth:`_drive` runs it: one that raises fails
        the op with the exception as the reason (so the op aborts)."""
        try:
            return (yield from gen)
        except Exception as exc:  # noqa: BLE001 - any raise fails the op
            op.fail(f"{type(exc).__name__}: {exc}")

    def _drive(self, op: OpMachine, sessions, deadline: float, expired: str,
               **begin):
        """The one way an op is driven to its terminal record.

        Refuse a request naming a node the cluster lacks, make it
        durable (an adopted op's begin already is), spawn the per-pod
        ``sessions`` (``(task name, generator)`` pairs), race *all done*
        / *op failed* (a session that raises fails it) / ``deadline``,
        and then — unless this Manager died in the meantime — drain,
        abort or commit, and close the op span.  Sessions stamp
        ``result.t_end`` when their pod is done; an op that did not get
        every pod that far reports full elapsed time.
        """
        engine = self.cluster.engine
        result = op.result
        if op.dead():
            # opened on an already-dead Manager (an untracked driver kept
            # calling it): no record, no message, no task
            return result
        # every node the request names must exist: an Agent told to stream
        # its pod to a missing node destroys the pod before the stream fails
        named = {name for node_name, _pod_id, uri in result.targets for name in
                 (node_name, resolve_sink(uri, self.cluster, self.home.kernel.vfs).dest)}
        missing = sorted(named - {None} - {node.name for node in self.cluster.nodes})
        if missing:
            return op.refuse(f"no node named {missing[0]!r}")
        marker = f"op{result.op_id}"
        if not op.adopted:
            yield from self.cluster.trace("manager.op_start", pod=marker)
            yield from op.begin(**begin)
            if op.dead():
                return result
        op.tasks = [self._spawn(self._session(op, gen), name=name)
                    for name, gen in sessions]
        all_done = all_of([t.finished for t in op.tasks])
        race = Future(f"{marker}-race")
        all_done.add_done_callback(
            lambda _f: race.set_result("done") if not race.done else None)
        op.failed.add_done_callback(
            lambda _f: race.set_result("failed") if not race.done else None)
        ok, outcome = yield engine.timeout(race, deadline)
        if op.dead():
            return result
        if not ok:
            result.status = "timeout"
            result.errors.append(expired)
        elif outcome == "failed":
            result.status = "failed"
            # give in-flight pod sessions a bounded window to run their
            # own graceful aborts before reaping them
            yield engine.timeout(all_done, op.timeouts.drain)
        elif result.errors:
            result.status = "failed"
        if result.status != "ok":
            yield from self._abort_op(op)
        for chan, fd in op.conns.values():
            yield from self._close_conn(chan, fd)
        if len(result.pods) != len(result.targets):
            result.t_end = engine.now  # failed/partial ops report full elapsed time
        if result.ok:
            yield from op.commit(duration_s=result.duration)
        yield from self.cluster.trace("manager.op_end", pod=marker)
        # the span closes after cleanup; the protocol latency the paper
        # plots travels in ``duration_s`` (invocation → last pod done)
        op.span.end(status=result.status, duration_s=result.duration)
        return result

    def _abort_op(self, op: OpMachine):
        """The one abort path every failed op — driven here or adopted
        from a dead Manager — funnels through: reap, record the intent,
        abort, garbage-collect, verify, then the terminal record.

        The ``manager.ledger.abort`` crossing sits between the durable
        abort intent and the cleanup actions, so a Manager that crashes
        mid-abort leaves an op a takeover replica re-aborts through this
        same path.  Aborting is idempotent: re-running it after a
        half-done abort rolls nothing back twice (every store's rollback
        is keyed on the op — the Agents' in-memory one included) and
        re-unlinking a gone SAN container is a no-op.
        """
        result, timeouts = op.result, op.timeouts
        reason = result.errors[-1] if result.errors else result.status
        # 1. no orphaned protocol tasks: reap whatever is still in flight
        for task in op.tasks:
            if not task.done:
                task.cancel()
        yield from op.advance("abort", reason=reason)
        if result.kind == "checkpoint" and result.targets:
            # 2. tell every connected-but-incomplete Agent to abort
            #    (resume its pod) that its lane did not tell already;
            #    completed pods resumed on 'continue'
            for pod_id in op.conns:
                if pod_id not in result.pods:
                    yield from self._tell_abort(op, pod_id)
            # 3. garbage-collect partial images: a failed coordinated
            #    checkpoint must leave nothing restartable behind.  The
            #    gc broadcast doubles as the re-attach for sessions still
            #    parked on a dead Manager's connection (the Agent signals
            #    their barrier futures with an abort), and the tombstone
            #    suppresses any late store.
            yield from self._gc_partial_images(op)
            if op.adopted:
                # signalled sessions resume their pods within a few
                # events; the drain window bounds the wait before the
                # verify probe
                yield self.cluster.engine.sleep(timeouts.drain)
            # 4. verify the pods the operation touched are running again
            yield from self._probe_resumed(op)
        op.aborted(reason)

    def _tell_abort(self, op: OpMachine, pod_id: str):
        """Tell ``pod_id``'s Agent ``abort`` (resume its pod) — once per
        op, whether its lane or the abort path gets there first."""
        if pod_id in op.told:
            return
        op.told.add(pod_id)
        chan, fd = op.conns[pod_id]
        self._reset_chan(chan)
        if (yield from send_msg(self.home.kernel, chan, fd, {"cmd": "abort"})):
            yield from self._recv_timed(chan, fd, op.timeouts.drain)

    def _gc_partial_images(self, op: OpMachine):
        """Remove every image this failed operation may have written.

        Even a *complete* per-pod image from a failed operation is one
        half of an inconsistent cut and must not be restartable.  Shared
        sinks are rolled back (never under the last good checkpoint);
        Agents are told to undo what the op wrote to their stores
        (nothing, where it wrote nothing) and to suppress any late store
        by a still-hung session (the op-id tombstone).
        """
        result = op.result
        protected = set()
        if self.last_checkpoint is not None:
            protected = {uri for (_n, _p, uri) in self.last_checkpoint.targets}
        by_node: Dict[str, List[str]] = {}
        for node_name, pod_id, uri in result.targets:
            sink = resolve_sink(uri, self.cluster, self.home.kernel.vfs)
            # an op-keyed rollback restores the previous generation and
            # can never touch a committed one (it carries another op's
            # id); a container that records no owner is only removed
            # when the last good checkpoint does not point at it
            if sink.shared and (sink.tracks_ops or uri not in protected):
                span = NULL_SPAN
                if "gc" in sink.crossings:
                    yield from self.cluster.trace(sink.crossings["gc"],
                                                  node=node_name, pod=pod_id)
                    span = self.cluster.span(f"{sink.span_ns}.gc",
                                             node=node_name, pod=pod_id,
                                             category=sink.span_ns,
                                             parent=("op", result.op_id))
                acted = sink.rollback(result.op_id)
                span.end(status="rolled-back" if acted else "clean")
                if acted:
                    result.gc_paths.append(sink.path)
                    self.cluster.count("manager.gc_partial_images")
            by_node.setdefault(sink.dest or node_name, []).append(pod_id)
        for node_name, pods in by_node.items():
            node = self.cluster.node_by_name(node_name)
            if node.crashed:
                continue
            yield from self._send_simple(node_name, {
                "cmd": "gc", "op_id": result.op_id, "pods": pods,
            }, op.timeouts)

    def _probe_resumed(self, op: OpMachine):
        """Ask each surviving Agent whether the pod is running again."""
        for node_name, pod_id, _uri in op.result.targets:
            node = self.cluster.node_by_name(node_name)
            if node.crashed:
                continue
            reply = yield from self._send_simple(node_name, {
                "cmd": "query_pod", "pod": pod_id,
            }, op.timeouts)
            if reply is not None and reply.get("type") == "pod_status":
                op.result.resumed[pod_id] = bool(reply.get("running"))

    # ------------------------------------------------------------------
    # checkpoint
    # ------------------------------------------------------------------
    def checkpoint(self, targets: List[Target], **kw) -> Task:
        """Spawn a coordinated checkpoint; returns the Task (its
        ``finished`` future resolves to an :class:`OpResult`)."""
        return self._spawn(self.checkpoint_task(targets, **kw),
                           name="manager-checkpoint")

    def checkpoint_task(self, targets: List[Target], context: str = "snapshot",
                        deadline: float = 60.0, order: str = "net-first",
                        redirect_moves: Optional[Dict[str, str]] = None,
                        fs_snapshot: bool = False,
                        filters: Optional[List[Dict[str, Any]]] = None,
                        timeouts: Optional[PhaseTimeouts] = None,
                        live: bool = False,
                        async_ckpt: bool = False,
                        lease_s: Optional[float] = None):
        """The Manager side of Figure 1 (generator; run as a host task).

        ``redirect_moves`` (pod → destination node) activates the §5
        send-queue redirect during a migration: the Manager, which alone
        knows where every pod is headed, attaches per-connection redirect
        destinations to each Agent's ``continue`` message.

        ``filters`` requests an image-pipeline chain (e.g.
        ``[{"name": "delta"}, {"name": "compress", "level": 6}]``); each
        Agent negotiates it down to the stages it supports and reports
        the applied chain back with its meta-data (recorded per pod in
        ``OpResult.filters`` / ``filters_rejected``).

        ``timeouts`` bounds each protocol phase; ``deadline`` stays the
        global cap.  On failure the abort path garbage-collects partial
        images and verifies pods resumed (:meth:`_abort_op`).

        ``live`` marks the final stop-and-copy pass of a live migration:
        Agents then charge the stream for the pre-copy *residual* only
        and report suspend-instant / residual stats for downtime
        accounting (see :mod:`repro.core.streaming`).

        ``async_ckpt`` requests the zero-stall pipelined path: each
        Agent resumes its pod right after the continue barrier and runs
        serialize/filter/write-out against the frozen capture tables
        while the application runs on (snapshot context only; direct
        migration falls back to serial).  Per-pod suspend windows come
        back as ``t_suspend_window`` in the done stats.

        ``lease_s`` bounds how long each ledger record keeps the op
        owned by this Manager before a takeover replica may claim it.
        """
        op = self._open_op("checkpoint", targets, timeouts, lease_s,
                           pods=len(targets), context=context)
        request = {
            "context": context, "order": order,
            "fs_snapshot": fs_snapshot,
            "filters": list(filters or []),
            "op_id": op.result.op_id,
            # the Agent's own unilateral-abort deadline while it
            # waits for 'continue' (covers a dead/partitioned
            # Manager that can never deliver abort either)
            "wait_timeout": op.timeouts.barrier + op.timeouts.done,
        }
        if live:
            # key present only for live migration so the non-live
            # wire traffic (and every existing schedule) is unchanged
            request["live"] = True
        if async_ckpt:
            # same conditional-key discipline for the zero-stall path
            request["async_ckpt"] = True
        # pods whose image still has a journey to acknowledge after
        # 'done' (direct-migration stream, shared-storage flush)
        acks = {}
        for _n, pod_id, uri in targets:
            ack = resolve_sink(uri, self.cluster, self.home.kernel.vfs).ack
            if ack is not None:
                acks[pod_id] = ack
        sessions = [(f"ckpt-{p}", self._checkpoint_pod(
            op, n, p, u, request, acks, redirect_moves)) for n, p, u in targets]
        result = yield from self._drive(
            op, sessions, deadline, "deadline expired; aborted",
            context=context, filters_requested=list(filters or []))
        if result.ok:
            self.last_checkpoint = result
        return result

    def _checkpoint_pod(self, op: OpMachine, node_name: str, pod_id: str,
                        uri: str, request: Dict[str, Any],
                        acks: Dict[str, str],
                        redirect_moves: Optional[Dict[str, str]]):
        """One pod's lane of a checkpoint: connect, command, meta-data,
        the single synchronization point, done, and the image's ack."""
        engine = self.cluster.engine
        kernel = self.home.kernel
        result, timeouts = op.result, op.timeouts
        phase = op.phase("connect", node_name, pod_id)
        yield from self.cluster.trace("manager.connect", node=node_name, pod=pod_id)
        opened = yield from self._open_retry(node_name, timeouts)
        if opened is None:
            return op.fail(f"{pod_id}: cannot reach agent on {node_name}", phase)
        chan, fd = opened
        op.conns[pod_id] = (chan, fd)
        # 1. broadcast checkpoint command
        sent = yield from send_msg(kernel, chan, fd, {
            "cmd": "checkpoint", "pod": pod_id, "uri": uri, **request})
        if not sent:
            return op.fail(f"{pod_id}: agent connection lost", phase)
        phase.end()
        # 2. receive meta-data (plus the negotiated filter chain)
        phase = op.phase("meta", node_name, pod_id)
        msg = yield from self._recv_timed(chan, fd, timeouts.meta)
        if msg is None or msg.get("type") != "meta":
            detail = msg.get("error") if msg else "meta phase timed out or connection lost"
            return op.fail(f"{pod_id}: {detail}", phase)
        result.metas[pod_id] = msg["meta"]
        result.filters[pod_id] = list(msg.get("filters") or [])
        if msg.get("filters_rejected"):
            result.filters_rejected[pod_id] = list(msg["filters_rejected"])
        yield from self.cluster.trace("manager.meta_recv", node=node_name, pod=pod_id)
        phase.end()
        if len(result.metas) == len(result.targets) and not op.barrier.done:
            # the durable sync point: every pod froze and reported.
            # Both records land *before* the barrier is released, so
            # once "continue" is in the ledger the broadcast is
            # inevitable — a Manager that dies after this instant
            # leaves an op a replica can finish, not only abort.
            yield from op.advance("meta", pods=sorted(result.metas))
            yield from op.advance("continue")
            if not op.barrier.done:
                op.barrier.set_result(True)
        # 3. the single synchronization point (bounded per phase)
        t_wait = engine.now
        phase = op.phase("barrier", node_name, pod_id)
        try:
            barrier_ok, _ = yield engine.timeout(op.barrier, timeouts.barrier)
        except RuntimeError:
            barrier_ok = False   # a sibling failed; op already marked
        else:
            if not barrier_ok:
                op.fail(f"{pod_id}: continue-barrier timed out")
        self.cluster.observe("manager.barrier_wait_s", engine.now - t_wait)
        if not barrier_ok:
            phase.end(status="aborted")
            return (yield from self._tell_abort(op, pod_id))
        yield from self.cluster.trace("manager.continue_sent", node=node_name, pod=pod_id)
        yield from send_msg(kernel, chan, fd, {
            "cmd": "continue",
            "redirect_out": _redirect_out(result.metas, redirect_moves, pod_id),
        })
        phase.end()
        # 4. receive status
        phase = op.phase("commit", node_name, pod_id)
        done = yield from self._recv_timed(chan, fd, timeouts.done)
        if done is None or done.get("status") != "ok":
            return op.fail(f"{pod_id}: checkpoint failed", phase)
        result.pods[pod_id] = done["stats"]
        # checkpoint time is measured to the last 'done' — the flush
        # to storage (below) happens after the application resumed
        result.t_end = max(result.t_end, engine.now)
        phase.end()
        yield from self.cluster.trace("manager.done_recv", node=node_name, pod=pod_id)
        if len(result.pods) == len(result.targets):
            yield from op.advance("done", pods=sorted(result.pods))
        # the image's journey to its destination is acknowledged
        # separately, after the application resumed
        if pod_id not in acks:
            return
        kind, failure = _POST_ACKS[acks[pod_id]]
        post = op.phase(kind, node_name, pod_id, ns="post")
        ack = yield from self._recv_timed(chan, fd, timeouts.flush)
        if ack is None or ack.get("type") != acks[pod_id]:
            return op.fail(f"{pod_id}: {failure}", post)
        post.end()
        del acks[pod_id]
        if not acks:
            yield from op.advance("flush")

    # ------------------------------------------------------------------
    # pre-copy live migration
    # ------------------------------------------------------------------
    def precopy_round(self, moves: List[Target], round_no: int, op_id: int = 0,
                      timeouts: Optional[PhaseTimeouts] = None,
                      deadline: float = 120.0):
        """Drive one pre-copy round across every migrating pod.

        ``moves`` is ``(src_node, pod_id, dst_node)`` triples.  Each
        source Agent ships the pod's current dirty working set to the
        destination Agent while the pod keeps running; the reply wait
        uses the flush-scale timeout because a round-1 transfer moves
        the full resident set.  Returns ``(stats, errors)`` where
        ``stats`` maps pod → per-round byte accounting.
        """
        engine = self.cluster.engine
        timeouts = timeouts if timeouts is not None else PhaseTimeouts()
        stats: Dict[str, Dict[str, Any]] = {}
        errors: List[str] = []
        if self.crashed:
            return stats, [f"precopy round {round_no}: manager crashed"]

        def pod_round(src: str, pod_id: str, dst: str):
            phase = self.cluster.span("manager.phase.precopy-round", node=src,
                                      pod=pod_id, parent=("op", op_id),
                                      round=round_no)
            yield from self.cluster.trace("manager.precopy_round", node=src,
                                          pod=pod_id)
            reply = yield from self._send_simple(src, {
                "cmd": "precopy", "pod": pod_id, "dst": dst, "round": round_no,
                "op_id": op_id}, timeouts, timeouts.flush, attempts=RETRIES + 1)
            if reply is None or reply.get("status") != "ok":
                phase.end(status="failed")
                detail = (reply or {}).get("error", "no reply")
                errors.append(f"{pod_id}: precopy round {round_no} failed ({detail})")
                return
            stats[pod_id] = reply["stats"]
            phase.end(shipped_bytes=reply["stats"]["shipped_bytes"],
                      dirty_bytes=reply["stats"]["dirty_bytes"])

        tasks = [self._spawn(pod_round(s, p, d), name=f"precopy-{p}")
                 for s, p, d in moves]
        ok, _ = yield engine.timeout(all_of([t.finished for t in tasks]), deadline)
        if not ok:
            for task in tasks:
                if not task.done:
                    task.cancel()
            errors.append(f"precopy round {round_no}: deadline expired")
        return stats, errors

    # ------------------------------------------------------------------
    # restart
    # ------------------------------------------------------------------
    def restart(self, targets: List[Target], **kw) -> Task:
        """Spawn a coordinated restart; Task resolves to an OpResult."""
        return self._spawn(self.restart_task(targets, **kw),
                           name="manager-restart")

    def restart_task(self, targets: List[Target], time_virtualization: bool = True,
                     deadline: float = 60.0, recovery_mode: str = "two-thread",
                     timeouts: Optional[PhaseTimeouts] = None,
                     lease_s: Optional[float] = None):
        """The Manager side of Figure 3 (generator; run as a host task).

        The restart's durable sync point is the merged connectivity
        plan: the ``plan`` ledger record carries it (codec-encoded), so
        a takeover replica can re-drive exactly the pods the restart
        commands never reached (see :meth:`_redrive_restart`).
        """
        op = self._open_op("restart", targets, timeouts, lease_s,
                           pods=len(targets))
        how = {"time_virtualization": time_virtualization,
               "recovery_mode": recovery_mode}
        vips: Dict[str, str] = {}
        sessions = [(f"restart-{p}", self._restart_pod(op, n, p, u, vips, how))
                    for n, p, u in targets]
        return (yield from self._drive(op, sessions, deadline,
                                       "deadline expired"))

    def _restart_pod(self, op: OpMachine, node_name: str, pod_id: str,
                     uri: str, vips: Dict[str, str], how: Dict[str, Any]):
        """One pod's lane of a restart (and of a re-drive, whose barrier
        is preset with the recorded plan): image load + meta-data, the
        merged plan, the restart command, done.  No barrier: each Agent
        proceeds as soon as it has the plan."""
        engine = self.cluster.engine
        result, timeouts = op.result, op.timeouts
        # phase 0: have the agent load the image and report meta-data
        phase = op.phase("load_meta", node_name, pod_id)
        yield from self.cluster.trace("manager.load_meta", node=node_name, pod=pod_id)
        loaded = yield from self._load_meta(op, node_name, pod_id, uri)
        if loaded is None:
            return op.fail(f"{pod_id}: cannot load image meta from {node_name}", phase)
        chan, fd, msg = loaded
        if msg.get("type") != "meta":
            return op.fail(f"{pod_id}: {msg.get('error', 'image load failed')}", phase)
        result.metas[pod_id] = msg["meta"]
        vips[pod_id] = msg["vip"]
        result.filters[pod_id] = list(msg.get("filters") or [])
        phase.end()
        phase = op.phase("plan", node_name, pod_id)
        if len(result.metas) == len(result.targets) and not op.barrier.done:
            # the durable sync point: the merged plan (it may carry
            # send-queue bytes, so it rides the ledger codec-encoded),
            # recorded before any Agent hears of it
            plan = derive_restart_plan(result.metas)
            yield from op.advance(
                "plan",
                plan_hex=codec.encode({"plan": plan, "vips": dict(vips)}).hex(),
                **how)
            if not op.barrier.done:
                op.barrier.set_result(plan)
        try:
            plan_ok, plan = yield engine.timeout(op.barrier, timeouts.barrier)
        except RuntimeError:
            phase.end(status="aborted")
            return
        if not plan_ok:
            return op.fail(f"{pod_id}: restart plan timed out", phase)
        pod_plan = plan[pod_id]
        phase.end()
        # 1. send restart command + (modified) meta-data, 2. receive status
        phase = op.phase("commit", node_name, pod_id)
        yield from self.cluster.trace("manager.restart_sent", node=node_name, pod=pod_id)
        yield from send_msg(self.home.kernel, chan, fd, {
            "cmd": "restart", "pod": pod_id, "vip": vips[pod_id], "uri": uri,
            "op_id": result.op_id,
            "listeners": pod_plan.get("listeners", []),
            "schedule": pod_plan.get("schedule", []),
            **how,
        })
        done = yield from self._recv_timed(chan, fd, timeouts.restart_done)
        if done is None or done.get("status") != "ok":
            detail = done.get("error", "restart failed") if done else \
                "restart timed out or agent connection lost"
            return op.fail(f"{pod_id}: {detail}", phase)
        result.pods[pod_id] = done["stats"]
        phase.end()
        yield from self._close_conn(chan, fd)
        # restart time is measured to the last pod restored and released
        result.t_end = max(result.t_end, engine.now)

    def _load_meta(self, op: OpMachine, node_name: str, pod_id: str, uri: str):
        """Connect + image load: idempotent, retried with backoff.
        Yields ``(chan, fd, reply)`` or None when every attempt failed."""
        timeouts = op.timeouts

        def load_once():
            opened = yield from self._open_attempt(node_name, timeouts.connect)
            if opened is None:
                return None
            chan, fd = opened
            msg = None
            if (yield from send_msg(self.home.kernel, chan, fd, {
                    "cmd": "load_meta", "pod": pod_id, "uri": uri,
                    "op_id": op.result.op_id})):
                msg = yield from self._recv_timed(chan, fd, timeouts.load)
            if msg is None:
                # transient (timeout / connection lost): retry
                yield from self._close_conn(chan, fd)
                return None
            return chan, fd, msg

        return (yield from self._retry("load", RETRIES + 1, load_once))

    # ------------------------------------------------------------------
    # recovery: the paper's motivating use case
    # ------------------------------------------------------------------
    def recover(self, **kw) -> Task:
        """Spawn a crash recovery; Task resolves to an OpResult."""
        return self._spawn(self.recover_task(**kw), name="manager-recover")

    def recover_task(self, deadline: float = 120.0,
                     timeouts: Optional[PhaseTimeouts] = None):
        """Detect crashed nodes and restart the application from
        ``last_checkpoint``, placing lost pods on surviving blades.

        The whole application rolls back to the consistent checkpoint:
        surviving instances of the checkpointed pods are destroyed, then
        every pod is restarted — on its original node when that node
        still answers, on the least-loaded surviving blade when it does
        not.  In-memory images died with their node and make the pod
        unrecoverable; the operation then fails *before* touching any
        surviving pod.
        """
        engine = self.cluster.engine
        last = self.last_checkpoint
        usable = bool(last is not None and last.ok and last.targets)
        op = self._open_op("recover", last.targets if usable else [], timeouts)
        result = op.result
        if op.dead():
            return result
        # per-node op exclusion: a recover destroys surviving instances
        # of every involved pod, so it must own the involved nodes — a
        # concurrent drain/evacuation campaign holding any of them makes
        # this recover fail fast instead of racing it pod by pod
        label = f"recover:op{result.op_id}"
        involved = sorted({n for (n, _p, _u) in result.targets})
        refused = None
        if not usable:
            refused = "no usable checkpoint to recover from"
        elif not self.claim_nodes(involved, label):
            held = {n: self.node_claim_holder(n) for n in involved
                    if self.node_claim_holder(n) not in (None, label)}
            refused = f"node exclusion refused: {sorted(held.items())}"
        if refused is not None:
            # nothing was begun, claimed or touched: no ledger record,
            # so no claimable orphan is left behind
            return op.refuse(refused)
        # the begin record lands only once the early-out checks passed;
        # from here on the one exit below writes a terminal record
        yield from op.begin()
        if op.dead():
            return result
        crashed = yield from self._detect_crashed(op, involved)
        survivors = [n for n in self.cluster.nodes if n.name not in crashed]
        new_targets = self._place(op, crashed, survivors, label)
        if not result.errors:
            # roll the survivors back: the restart restores the whole
            # application to the consistent cut
            for _node_name, pod_id, _uri in result.targets:
                for node in survivors:
                    pod = node.kernel.pods.get(pod_id)
                    if pod is not None:
                        pod.destroy()
            restart = yield from self.restart_task(
                new_targets, deadline=deadline, timeouts=op.timeouts)
            result.status = restart.status
            result.errors.extend(restart.errors)
            result.pods = restart.pods
            result.metas = restart.metas
            result.filters = restart.filters
            result.targets = new_targets
        if op.dead():
            return result
        if result.errors and result.ok:
            result.status = "failed"
        result.t_end = engine.now
        if result.ok:
            yield from op.commit(duration_s=result.duration)
        else:
            op.aborted(result.errors[-1] if result.errors else result.status)
        self.release_nodes(involved, label)
        op.span.end(status=result.status, duration_s=result.duration)
        return result

    def _detect_crashed(self, op: OpMachine, involved: List[str]):
        """Failure detection: fail-stop flags plus a liveness probe of
        every node the checkpoint involves; yields the crashed names."""
        phase = op.phase("detect")
        crashed = {node.name for node in self.cluster.nodes if node.crashed}
        for name in involved:
            if name not in crashed:
                pong = yield from self._send_simple(
                    name, {"cmd": "ping"}, op.timeouts, op.timeouts.connect)
                if pong is None or pong.get("type") != "pong":
                    crashed.add(name)
        yield from self.cluster.trace("manager.recover_detect",
                                      pod=",".join(sorted(crashed)) or None)
        phase.end(crashed=",".join(sorted(crashed)))
        yield from op.advance("detect", crashed=sorted(crashed))
        return crashed

    def _place(self, op: OpMachine, crashed, survivors: List[Node],
               label: str) -> List[Target]:
        """Where each pod of the checkpoint restarts — checked for
        feasibility before any destruction (failures land in
        ``result.errors``).  Nodes another op holds (a drain emptying a
        blade) are not placement targets unless nothing else survives."""
        result = op.result
        if not survivors:
            result.errors.append("no surviving nodes to recover onto")
            return []
        unclaimed = [n for n in survivors
                     if self.node_claim_holder(n.name) in (None, label)]
        candidates = unclaimed if unclaimed else survivors
        load = {n.name: len(n.kernel.pods) for n in survivors}
        new_targets: List[Target] = []
        for node_name, pod_id, uri in result.targets:
            sink = resolve_sink(uri, self.cluster, self.home.kernel.vfs)
            if sink.dest is not None:
                # migration image: it lives in the destination Agent's
                # memory store
                node_name, uri = sink.dest, "mem"
            if sink.shared:
                # shared-storage image (SAN container or CAS recipe):
                # restartable from any surviving node
                if node_name not in crashed:
                    dest = node_name
                else:
                    dest = min(candidates, key=lambda n: (load[n.name], n.index)).name
            else:
                # an in-memory image is only loadable on the node that
                # holds it
                if node_name in crashed:
                    result.errors.append(
                        f"{pod_id}: in-memory image lost with {node_name}")
                    continue
                dest = node_name
            load[dest] = load.get(dest, 0) + 1
            new_targets.append((dest, pod_id, uri))
        return new_targets

    # ------------------------------------------------------------------
    # replica takeover: claim, then resume / re-drive / abort orphans
    # ------------------------------------------------------------------
    def takeover(self, **kw) -> Task:
        """Spawn a ledger takeover; Task resolves to the action list."""
        return self._spawn(self.takeover_task(**kw), name="manager-takeover")

    def takeover_task(self, timeouts: Optional[PhaseTimeouts] = None,
                      lease_s: Optional[float] = None):
        """Recover every op the dead Manager left in flight.

        Scans the ledger for orphans (non-terminal ops whose lease
        expired), claims each with an atomic claim record, then — per
        op, by its last durable phase:

        * checkpoint past the ``continue`` record: the barrier release
          was inevitable, so every Agent either committed or is parked
          waiting — re-attach (``continue_op``), verify every image is
          durable and every pod resumed, and *commit* the op;
        * restart with a durable plan: re-drive exactly the pods the
          restart commands never reached;
        * anything else: abort through the normal tombstone-GC path.

        Returns ``[(op_id, phase_at_claim, outcome), ...]``; a replica
        that dies under a re-drive stops at that op (``crashed``).
        """
        engine = self.cluster.engine
        timeouts = timeouts if timeouts is not None else PhaseTimeouts()
        actions: List[Tuple[int, str, str]] = []
        if self.crashed:
            return actions
        for op in self.ledger.orphaned(engine.now):
            span = self.cluster.span("manager.claim", parent=("op", op.op_id),
                                     category="op", op=op.op_id,
                                     owner=self.name, at_phase=op.phase)
            if not self.ledger.claim(op.op_id, self.name, engine.now, lease_s):
                span.end(status="refused")
                actions.append((op.op_id, op.phase, "refused"))
                continue
            span.end(status="claimed")
            yield from self.cluster.trace("manager.takeover_claim",
                                          pod=f"op{op.op_id}")
            if op.kind == "checkpoint" and op.phase in ("continue", "done", "flush"):
                outcome = yield from self._resume_orphan(op, timeouts)
            elif op.kind == "restart" and op.fields.get("plan_hex"):
                outcome = yield from self._redrive_restart(op, timeouts)
            else:
                outcome = yield from self._abort_orphan(op, timeouts)
            actions.append((op.op_id, op.phase, outcome))
            if self.crashed:
                return actions  # fail-stop: claim nothing more, sweep nothing
        # orphaned-chunk sweep: a Manager that died between a CAS stage
        # and its publish left pending recipes holding references; every
        # op this takeover aborted releases exactly its unshared chunks
        # (op-keyed, so live generations and other pods are untouched)
        for op_id, _phase, outcome in actions:
            if outcome == "aborted":
                reclaimed = CasStore.on(self.cluster.san).abort_op(op_id)
                if reclaimed:
                    self.cluster.count("cas.sweep_orphans.bytes", reclaimed)
        return actions

    def _resume_orphan(self, orphan, timeouts: PhaseTimeouts):
        """Finish a checkpoint whose continue broadcast was durable."""
        op = self._open_op(orphan.kind, orphan.targets, timeouts,
                           orphan=orphan, verb="resume", at_phase=orphan.phase)
        # re-attach: complete the barrier of any session still parked on
        # the dead Manager's connection (idempotent for the rest)
        for node_name in sorted({n for (n, _p, _u) in orphan.targets}):
            if self.cluster.node_by_name(node_name).crashed:
                continue
            yield from self._send_simple(node_name, {
                "cmd": "continue_op", "op_id": orphan.op_id}, timeouts)
        verified = yield from self._verify_op_images(orphan, timeouts)
        if verified and orphan.context == "snapshot":
            yield from self._probe_resumed(op)
            verified = all(
                op.result.resumed.get(pod_id, False)
                for node_name, pod_id, _uri in orphan.targets
                if not self.cluster.node_by_name(node_name).crashed)
        if not verified:
            op.span.end(status="unverified")
            return (yield from self._abort_orphan(orphan, timeouts))
        op.result.t_end = self.cluster.engine.now
        yield from op.commit(resumed_by=self.name)
        self.last_checkpoint = op.result
        op.span.end(status="resumed")
        return "resumed"

    def _verify_op_images(self, op, timeouts: PhaseTimeouts):
        """Poll until every target image of ``op`` is durably loadable
        (bounded by the flush-scale timeout: an in-flight session that
        got its continue is still writing)."""
        engine = self.cluster.engine
        deadline = engine.now + timeouts.flush
        pending = sorted(tuple(t) for t in op.targets)
        while pending:
            still = []
            for node_name, pod_id, uri in pending:
                ready = yield from self._image_ready(op, node_name, pod_id, uri,
                                                     timeouts)
                if not ready:
                    still.append((node_name, pod_id, uri))
            pending = still
            if not pending or engine.now >= deadline:
                break
            yield engine.sleep(min(0.25, timeouts.drain))
        return not pending

    def _image_ready(self, op, node_name: str, pod_id: str, uri: str,
                     timeouts: PhaseTimeouts):
        """Is this one image durable and attributable to op ``op``?"""
        sink = resolve_sink(uri, self.cluster, self.home.kernel.vfs)
        if sink.shared:
            # published by this op where the sink can tell (the rollback
            # of a failed flush restores the previous op's), and loadable
            return (sink.exists(op.op_id)
                    and sink.tip_epoch(pod_id) is not None)
        dest = sink.dest or node_name
        if self.cluster.node_by_name(dest).crashed:
            return False
        reply = yield from self._send_simple(dest, {
            "cmd": "query_image", "pod": pod_id, "op_id": op.op_id}, timeouts)
        return bool(reply and reply.get("exists") and reply.get("op_ok"))


    def _abort_orphan(self, orphan, timeouts: PhaseTimeouts):
        """Abort an orphan through the normal tombstone-GC path
        (:meth:`_abort_op`, keyed on the op like every other abort)."""
        op = self._open_op(orphan.kind, orphan.targets, timeouts,
                           orphan=orphan, verb="abort", at_phase=orphan.phase)
        op.result.status = "failed"
        op.result.errors.append(
            f"orphaned at {orphan.phase}; aborted by {self.name}")
        yield from self._abort_op(op)
        op.span.end(status="aborted", gc_paths=len(op.result.gc_paths))
        return "aborted"

    def _redrive_restart(self, orphan, timeouts: PhaseTimeouts):
        """Finish an orphaned restart from its durable plan: the
        restart's own pod lanes under :meth:`_drive`, with the recorded
        plan already in hand (the adopted op's begin is durable)."""
        op = self._open_op(orphan.kind, orphan.targets, timeouts,
                           orphan=orphan, verb="redrive")
        recorded = codec.decode(bytes.fromhex(orphan.fields["plan_hex"]))
        op.barrier.set_result(recorded["plan"])
        how = {"time_virtualization":
               bool(orphan.fields.get("time_virtualization", True)),
               "recovery_mode": orphan.fields.get("recovery_mode", "two-thread")}
        sessions = [(f"redrive-{p}", self._redrive_pod(
            op, n, p, u, recorded["vips"], how)) for n, p, u in orphan.targets]
        # one lane at its slowest: query_pod, every load attempt and the
        # backoffs between them, then the restart itself
        deadline = (timeouts.connect + timeouts.drain
                    + (RETRIES + 1) * (timeouts.connect + timeouts.load)
                    + sum(backoff(a) for a in range(RETRIES))
                    + timeouts.restart_done)
        result = yield from self._drive(op, sessions, deadline,
                                        "redrive deadline expired")
        if result.status == "crashed":
            return "crashed"
        return "redriven" if result.ok else "aborted"

    def _redrive_pod(self, op: OpMachine, node_name: str, pod_id: str,
                     uri: str, vips: Dict[str, str], how: Dict[str, Any]):
        """One pod's lane of a re-drive.  A pod that exists (restored, or
        mid-restore by a surviving Agent session) is left to finish on
        its own; the rest run the restart lane, concurrently, because
        connectivity recovery only completes when every peer takes part."""
        reply = yield from self._send_simple(node_name, {
            "cmd": "query_pod", "pod": pod_id}, op.timeouts)
        if reply is not None and reply.get("exists"):
            return
        yield from self._restart_pod(op, node_name, pod_id, uri, vips, how)
