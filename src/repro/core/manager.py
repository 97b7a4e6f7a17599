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

Failure semantics: the Manager keeps reliable connections to all Agents
for the duration of an operation.  Each protocol phase (connect, meta,
continue-barrier, done, flush) carries its own timeout
(:class:`PhaseTimeouts`), so a single stalled Agent is detected at the
phase where it stalls rather than at a coarse global deadline;
idempotent phases (connect, restart image load) are retried with
exponential backoff.  A failed operation is aborted gracefully: every
still-running protocol task is reaped, every reachable Agent is told to
abort (resuming its pod), partial checkpoint images are garbage
collected from the SAN and from destination Agents' stores, and the
Manager verifies that the pods actually resumed.  :meth:`Manager.recover`
closes the loop of the paper's motivating use case: detect a crashed
node and restart its pods elsewhere from the last good checkpoint.

**HA Manager.**  The Manager itself is stateless across phases: each
operation is an explicit state machine (:class:`OpMachine`) whose every
phase transition is appended to the durable op ledger
(:class:`repro.storage.ledger.OpLedger`, a JSONL write-ahead log on the
SAN) *before* the phase's actions run, and announced as a
``manager.ledger.*`` trace crossing.  If the Manager fail-stops
(:meth:`Manager.crash`), a replica deployed with
:meth:`Manager.deploy_replica` scans the ledger, claims each orphaned
op once its owner's lease expires, and — per op — resumes from the
last durable phase (checkpoints past the continue broadcast are
finished and committed; restarts with a durable plan are re-driven for
the missing pods) or aborts through the same tombstone-GC path a
normal failure takes.  Agents cooperate via the continue-wait
re-attach: a session parked at the barrier can be completed or aborted
by a *different* Manager connection (see ``continue_op`` / ``gc``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..cluster.builder import Cluster
from ..cluster.node import Node
from ..obs.tracer import NULL_SPAN
from ..sim.tasks import Future, Task, all_of
from ..storage.cas import CasStore
from ..storage.ledger import OpLedger
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

#: how long one ledger record keeps an op owned before a replica may
#: claim it.  Each phase record renews the lease, so a live Manager
#: never loses an op; a dead one loses it one lease after its last
#: durable phase.
DEFAULT_LEASE_S = 30.0


@dataclass
class PhaseTimeouts:
    """Per-phase failure-detection deadlines and the retry policy.

    The global ``deadline`` argument of the operations remains a hard
    cap; these bound each protocol phase individually so a hang is
    detected at the phase where it happens.  ``connect`` and the restart
    image ``load`` are idempotent and retried with exponential backoff
    (``backoff_base * backoff_factor**attempt``); the checkpoint command
    itself is not idempotent (it suspends the pod) and is never retried.
    ``drain`` bounds how long a failed operation waits for its remaining
    protocol tasks (and abort acknowledgements) before reaping them.
    """

    connect: float = 5.0
    meta: float = 15.0
    barrier: float = 15.0
    done: float = 30.0
    flush: float = 120.0
    load: float = 20.0
    restart_done: float = 60.0
    drain: float = 10.0
    connect_retries: int = 2
    load_retries: int = 2
    backoff_base: float = 0.2
    backoff_factor: float = 2.0

    def backoff(self, attempt: int) -> float:
        return self.backoff_base * (self.backoff_factor ** attempt)


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
    """The durable per-op state machine.

    Every transition appends a ledger record *first* and then crosses
    the matching ``manager.ledger.<phase>`` trace point, followed by an
    explicit scheduling boundary (``yield None``).  The boundary is the
    point of the design: a ``crash_manager`` fault scheduled at the
    crossing lands exactly between "the record is durable" and "the
    next phase's actions run" — the worst case a takeover replica must
    handle, and the case :data:`repro.cluster.faults.MANAGER_PHASES`
    enumerates.  Each record also renews the owner's lease.
    """

    def __init__(self, manager: "Manager", result: OpResult,
                 lease_s: Optional[float] = None, span=None) -> None:
        self.manager = manager
        self.result = result
        self.lease_s = DEFAULT_LEASE_S if lease_s is None else float(lease_s)
        #: the driving incarnation's op span; its id rides every ledger
        #: record so the campaign-trace assembler can join durable facts
        #: back to the span dump that timed them.
        self.span = span

    def _append(self, phase: str, rec: str = "phase", **fields) -> None:
        mgr = self.manager
        now = mgr.cluster.engine.now
        self.result.phase = phase
        record = dict({"rec": rec, "op": self.result.op_id,
                       "phase": phase, "owner": mgr.name,
                       "lease": now + self.lease_s, "t": now}, **fields)
        sid = getattr(self.span, "span_id", None)
        if sid is not None:
            record.setdefault("span", sid)
        mgr.ledger.append(record)

    def _transition(self, phase: str, rec: str = "phase", **fields):
        self._append(phase, rec=rec, **fields)
        yield from self.manager.cluster.trace(f"manager.ledger.{phase}",
                                              pod=f"op{self.result.op_id}")
        yield None  # let a crash scheduled at the crossing land here

    def begin(self, **fields):
        """Open the op: the full request, durable before any Agent hears
        about it."""
        yield from self._transition(
            "begin", rec="op", kind=self.result.kind,
            targets=[list(t) for t in self.result.targets], **fields)

    def advance(self, phase: str, **fields):
        """One phase boundary: durable record, crossing, boundary."""
        yield from self._transition(phase, **fields)

    def commit(self, **fields):
        """Terminal success (also re-records the targets, so a replica
        can reconstruct ``last_checkpoint`` from the commit alone)."""
        yield from self._transition(
            "commit", targets=[list(t) for t in self.result.targets], **fields)

    def aborted(self, reason: str = "") -> None:
        """Terminal failure — synchronous: the abort path just finished
        and there is nothing after this record to crash before."""
        self._append("aborted", reason=reason)


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
        self._next_op_id = 1
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

    def new_op_id(self) -> int:
        """Allocate the next op id, never below what the ledger has seen
        (two Managers over one ledger must not collide)."""
        op_id = max(self._next_op_id, self.ledger.next_op_id())
        self._next_op_id = op_id + 1
        return op_id

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

    def _open_retry(self, node_name: str, timeouts: PhaseTimeouts,
                    attempts: Optional[int] = None):
        """Connect with bounded retries + exponential backoff (connect
        is idempotent)."""
        n = attempts if attempts is not None else timeouts.connect_retries + 1
        for attempt in range(n):
            opened = yield from self._open_attempt(node_name, timeouts.connect)
            if opened is not None:
                return opened
            if attempt + 1 < n:
                self.cluster.count("manager.connect_retries")
                self.cluster.observe("manager.backoff_s", timeouts.backoff(attempt))
                yield self.cluster.engine.sleep(timeouts.backoff(attempt))
        return None

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

    def _probe_node(self, node_name: str, timeouts: PhaseTimeouts):
        """Ping a node's Agent; yields True when it answers in time."""
        kernel = self.home.kernel
        opened = yield from self._open_retry(node_name, timeouts, attempts=1)
        if opened is None:
            return False
        chan, fd = opened
        yield from send_msg(kernel, chan, fd, {"cmd": "ping"})
        reply = yield from self._recv_timed(chan, fd, timeouts.connect)
        yield from self._close_conn(chan, fd)
        return reply is not None and reply.get("type") == "pong"

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
                        gc_on_failure: bool = True,
                        verify_resume: bool = True,
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
        images (``gc_on_failure``) and verifies pods resumed
        (``verify_resume``).

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
        engine = self.cluster.engine
        kernel = self.home.kernel
        timeouts = timeouts if timeouts is not None else PhaseTimeouts()
        op_id = self.new_op_id()
        result = OpResult("checkpoint", "ok", engine.now, engine.now,
                          targets=list(targets), op_id=op_id)
        # operation span, registered under ("op", op_id) so Agent-side
        # spans on other nodes can attach themselves as children
        op_span = self.cluster.span("manager.checkpoint", category="op",
                                    key=("op", op_id), op=op_id,
                                    pods=len(targets), context=context,
                                    owner=self.name)
        # span context for the Agents: in a real deployment the span id
        # would ride the checkpoint command; here message bytes are
        # timing-bearing, so context propagates through the shared
        # tracer's key registry instead (same joinability, zero bytes)
        self.cluster.span_context(("op", op_id), mspan=op_span.span_id,
                                  owner=self.name)
        machine = OpMachine(self, result, lease_s, span=op_span)
        conns: Dict[str, Tuple[Any, int]] = {}
        meta_count = [0]
        done_count = [0]
        flush_count = [0]
        all_meta = Future("all-meta")
        op_failed = Future(f"ckpt-{op_id}-failed")
        acks = {pod: resolve_sink(uri, self.cluster, kernel.vfs).ack
                for (_n, pod, uri) in targets}
        flush_needed = {pod for pod, ack in acks.items() if ack is not None}
        fail = self._op_failer(result, all_meta, op_failed)

        def redirect_out_for(pod_id: str) -> List[dict]:
            if not redirect_moves:
                return []
            plan = derive_restart_plan(result.metas)
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

        def pod_task(node_name: str, pod_id: str, uri: str):
            phase = self.cluster.span("manager.phase.connect", node=node_name,
                                      pod=pod_id, parent=op_span)
            yield from self.cluster.trace("manager.connect", node=node_name, pod=pod_id)
            opened = yield from self._open_retry(node_name, timeouts)
            if opened is None:
                phase.end(status="failed")
                fail(f"{pod_id}: cannot reach agent on {node_name}")
                return
            chan, fd = opened
            conns[pod_id] = (chan, fd)
            # 1. broadcast checkpoint command
            cmd_msg = {
                "cmd": "checkpoint", "pod": pod_id, "uri": uri,
                "context": context, "order": order,
                "fs_snapshot": fs_snapshot,
                "filters": list(filters or []),
                "op_id": op_id,
                # the Agent's own unilateral-abort deadline while it
                # waits for 'continue' (covers a dead/partitioned
                # Manager that can never deliver abort either)
                "wait_timeout": timeouts.barrier + timeouts.done,
            }
            if live:
                # key present only for live migration so the non-live
                # wire traffic (and every existing schedule) is unchanged
                cmd_msg["live"] = True
            if async_ckpt:
                # same conditional-key discipline for the zero-stall path
                cmd_msg["async_ckpt"] = True
            sent = yield from send_msg(kernel, chan, fd, cmd_msg)
            if not sent:
                phase.end(status="failed")
                fail(f"{pod_id}: agent connection lost")
                return
            phase.end()
            # 2. receive meta-data (plus the negotiated filter chain)
            phase = self.cluster.span("manager.phase.meta", node=node_name,
                                      pod=pod_id, parent=op_span)
            msg = yield from self._recv_timed(chan, fd, timeouts.meta)
            if msg is None or msg.get("type") != "meta":
                detail = msg.get("error") if msg else "meta phase timed out or connection lost"
                phase.end(status="failed")
                fail(f"{pod_id}: {detail}")
                return
            result.metas[pod_id] = msg["meta"]
            result.filters[pod_id] = list(msg.get("filters") or [])
            if msg.get("filters_rejected"):
                result.filters_rejected[pod_id] = list(msg["filters_rejected"])
            yield from self.cluster.trace("manager.meta_recv", node=node_name, pod=pod_id)
            phase.end()
            meta_count[0] += 1
            if meta_count[0] == len(targets) and not all_meta.done:
                # the durable sync point: every pod froze and reported.
                # Both records land *before* the barrier is released, so
                # once "continue" is in the ledger the broadcast is
                # inevitable — a Manager that dies after this instant
                # leaves an op a replica can finish, not only abort.
                yield from machine.advance("meta", pods=sorted(result.metas))
                yield from machine.advance("continue")
                if not all_meta.done:
                    all_meta.set_result(True)
            # 3. the single synchronization point (bounded per phase)
            t_wait = engine.now
            phase = self.cluster.span("manager.phase.barrier", node=node_name,
                                      pod=pod_id, parent=op_span)
            try:
                barrier_ok, _ = yield engine.timeout(all_meta, timeouts.barrier)
            except RuntimeError:
                barrier_ok = False   # a sibling failed; op already marked
            else:
                if not barrier_ok:
                    fail(f"{pod_id}: continue-barrier timed out")
            self.cluster.observe("manager.barrier_wait_s", engine.now - t_wait)
            if not barrier_ok:
                phase.end(status="aborted")
                yield from send_msg(kernel, chan, fd, {"cmd": "abort"})
                yield from self._recv_timed(chan, fd, timeouts.drain)
                return
            yield from self.cluster.trace("manager.continue_sent", node=node_name, pod=pod_id)
            yield from send_msg(kernel, chan, fd, {
                "cmd": "continue",
                "redirect_out": redirect_out_for(pod_id),
            })
            phase.end()
            # 4. receive status
            phase = self.cluster.span("manager.phase.commit", node=node_name,
                                      pod=pod_id, parent=op_span)
            done = yield from self._recv_timed(chan, fd, timeouts.done)
            if done is None or done.get("status") != "ok":
                phase.end(status="failed")
                fail(f"{pod_id}: checkpoint failed")
                return
            result.pods[pod_id] = done["stats"]
            # checkpoint time is measured to the last 'done' — the flush
            # to storage (below) happens after the application resumed
            result.t_end = max(result.t_end, engine.now)
            phase.end()
            yield from self.cluster.trace("manager.done_recv", node=node_name, pod=pod_id)
            done_count[0] += 1
            if done_count[0] == len(targets):
                yield from machine.advance("done", pods=sorted(result.pods))
            # the image's journey to its destination (direct-migration
            # stream, shared-storage flush) is acknowledged separately
            if acks[pod_id] is None:
                return
            kind, failure = _POST_ACKS[acks[pod_id]]
            post = self.cluster.span(f"manager.post.{kind}", node=node_name,
                                     pod=pod_id, parent=op_span,
                                     category="post")
            ack = yield from self._recv_timed(chan, fd, timeouts.flush)
            if ack is None or ack.get("type") != acks[pod_id]:
                post.end(status="failed")
                fail(f"{pod_id}: {failure}")
                return
            post.end()
            flush_count[0] += 1
            if flush_count[0] == len(flush_needed):
                yield from machine.advance("flush")

        yield from self.cluster.trace("manager.op_start", pod=f"op{op_id}")
        yield from machine.begin(context=context,
                                 filters_requested=list(filters or []))
        tasks = [self._spawn(pod_task(n, p, u), name=f"ckpt-{p}")
                 for n, p, u in targets]
        all_done = all_of([t.finished for t in tasks])
        race = Future(f"ckpt-{op_id}-race")
        all_done.add_done_callback(
            lambda _f: race.set_result("done") if not race.done else None)
        op_failed.add_done_callback(
            lambda _f: race.set_result("failed") if not race.done else None)
        ok, outcome = yield engine.timeout(race, deadline)
        if self.crashed:
            # fail-stop: a dead Manager neither cleans up nor commits —
            # finishing this op is the takeover replica's job, driven by
            # whatever the ledger durably recorded above
            result.status = "crashed"
            op_span.end(status=result.status)
            return result
        if not ok:
            result.status = "timeout"
            result.errors.append("deadline expired; aborted")
        elif outcome == "failed":
            result.status = "failed"
            # give in-flight pod tasks a bounded window to run their own
            # graceful aborts before reaping them
            yield engine.timeout(all_done, timeouts.drain)
        elif result.errors:
            result.status = "failed"
        if result.status != "ok":
            yield from self._finish_failed_op(
                result, tasks, timeouts, machine, conns=conns,
                targets=targets, gc_on_failure=gc_on_failure,
                verify_resume=verify_resume)
        for chan, fd in conns.values():
            yield from self._close_conn(chan, fd)
        if len(result.pods) != len(targets):
            result.t_end = engine.now  # failed/partial ops report full elapsed time
        if result.ok:
            yield from machine.commit(duration_s=result.duration)
            self.last_checkpoint = result
        yield from self.cluster.trace("manager.op_end", pod=f"op{op_id}")
        # the span closes after cleanup; the protocol latency the paper
        # plots travels in ``duration_s`` (invocation → last pod done)
        op_span.end(status=result.status, duration_s=result.duration)
        return result

    # ------------------------------------------------------------------
    # abort path: reap, abort, garbage-collect, verify
    # ------------------------------------------------------------------
    def _op_failer(self, result: OpResult, barrier: Future, op_failed: Future):
        """The one failure closure every coordinated op's pod tasks
        share: record the reason, release the barrier with an exception
        (so sibling tasks resume their pods instead of waiting out the
        phase timeout), and trip the op-failed race."""
        def fail(reason: str) -> None:
            result.errors.append(reason)
            if not barrier.done:
                barrier.set_exception(RuntimeError(reason))
            if not op_failed.done:
                op_failed.set_result(reason)
        return fail

    def _finish_failed_op(self, result: OpResult, tasks: List[Task],
                          timeouts: PhaseTimeouts, machine: OpMachine,
                          conns: Optional[Dict[str, Tuple[Any, int]]] = None,
                          targets: Optional[List[Target]] = None,
                          gc_on_failure: bool = False,
                          verify_resume: bool = False):
        """The one abort path every failed op funnels through: reap,
        abort, garbage-collect, verify, then the terminal record.

        The ``manager.ledger.abort`` crossing sits between the durable
        abort intent and the cleanup actions, so a Manager that crashes
        mid-abort leaves an op a takeover replica re-aborts through this
        same (idempotent) path.
        """
        kernel = self.home.kernel
        reason = result.errors[-1] if result.errors else result.status
        # 1. no orphaned protocol tasks: reap whatever is still in flight
        for task in tasks:
            if not task.done:
                task.cancel()
        yield from machine.advance("abort", reason=reason)
        # 2. tell every connected-but-incomplete Agent to abort (resume
        #    its pod); completed pods already resumed on 'continue'
        if conns:
            for pod_id, (chan, fd) in conns.items():
                if pod_id in result.pods:
                    continue
                self._reset_chan(chan)
                sent = yield from send_msg(kernel, chan, fd, {"cmd": "abort"})
                if sent:
                    yield from self._recv_timed(chan, fd, timeouts.drain)
        # 3. garbage-collect partial images: a failed coordinated
        #    checkpoint must leave nothing restartable behind
        if gc_on_failure and targets:
            yield from self._gc_partial_images(targets, result, timeouts)
        # 4. verify the pods the operation touched are running again
        if verify_resume and targets:
            yield from self._verify_resumed(targets, result, timeouts)
        machine.aborted(reason)

    def _gc_partial_images(self, targets: List[Target], result: OpResult,
                           timeouts: PhaseTimeouts):
        """Remove every image this failed operation may have written.

        Even a *complete* per-pod image from a failed operation is one
        half of an inconsistent cut and must not be restartable.  Shared
        sinks are rolled back (never under the last good checkpoint);
        Agents are told to roll their stores back and to suppress any
        late store by a still-hung session (the op-id tombstone).
        """
        protected = set()
        if self.last_checkpoint is not None:
            protected = {uri for (_n, _p, uri) in self.last_checkpoint.targets}
        by_node: Dict[str, List[str]] = {}
        for node_name, pod_id, uri in targets:
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
            }, timeouts)

    def _verify_resumed(self, targets: List[Target], result: OpResult,
                        timeouts: PhaseTimeouts):
        """Ask each surviving Agent whether the pod is running again."""
        for node_name, pod_id, _uri in targets:
            node = self.cluster.node_by_name(node_name)
            if node.crashed:
                continue
            reply = yield from self._send_simple(node_name, {
                "cmd": "query_pod", "pod": pod_id,
            }, timeouts)
            if reply is not None and reply.get("type") == "pod_status":
                result.resumed[pod_id] = bool(reply.get("running"))

    def _send_simple(self, node_name: str, msg: Dict[str, Any],
                     timeouts: PhaseTimeouts):
        """One-shot request/reply to a node's Agent (best effort)."""
        kernel = self.home.kernel
        opened = yield from self._open_retry(node_name, timeouts, attempts=1)
        if opened is None:
            return None
        chan, fd = opened
        yield from send_msg(kernel, chan, fd, msg)
        reply = yield from self._recv_timed(chan, fd, timeouts.drain)
        yield from self._close_conn(chan, fd)
        return reply

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
        kernel = self.home.kernel
        timeouts = timeouts if timeouts is not None else PhaseTimeouts()
        stats: Dict[str, Dict[str, Any]] = {}
        errors: List[str] = []

        def pod_round(src: str, pod_id: str, dst: str):
            phase = self.cluster.span("manager.phase.precopy-round", node=src,
                                      pod=pod_id, parent=("op", op_id),
                                      round=round_no)
            yield from self.cluster.trace("manager.precopy_round", node=src,
                                          pod=pod_id)
            opened = yield from self._open_retry(src, timeouts)
            if opened is None:
                phase.end(status="failed")
                errors.append(f"{pod_id}: cannot reach agent on {src}")
                return
            chan, fd = opened
            sent = yield from send_msg(kernel, chan, fd, {
                "cmd": "precopy", "pod": pod_id, "dst": dst,
                "round": round_no, "op_id": op_id,
            })
            reply = (yield from self._recv_timed(chan, fd, timeouts.flush)) \
                if sent else None
            yield from self._close_conn(chan, fd)
            if reply is None or reply.get("status") != "ok":
                phase.end(status="failed")
                detail = (reply or {}).get("error", "no reply")
                errors.append(f"{pod_id}: precopy round {round_no} failed ({detail})")
                return
            stats[pod_id] = reply["stats"]
            phase.end(shipped_bytes=reply["stats"]["shipped_bytes"],
                      dirty_bytes=reply["stats"]["dirty_bytes"])

        tasks = [engine.spawn(pod_round(s, p, d), name=f"precopy-{p}")
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
        engine = self.cluster.engine
        kernel = self.home.kernel
        timeouts = timeouts if timeouts is not None else PhaseTimeouts()
        op_id = self.new_op_id()
        result = OpResult("restart", "ok", engine.now, engine.now,
                          targets=list(targets), op_id=op_id)
        op_span = self.cluster.span("manager.restart", category="op",
                                    key=("op", op_id), op=op_id,
                                    pods=len(targets), owner=self.name)
        self.cluster.span_context(("op", op_id), mspan=op_span.span_id,
                                  owner=self.name)
        machine = OpMachine(self, result, lease_s, span=op_span)
        metas: Dict[str, List[dict]] = {}
        vips: Dict[str, str] = {}
        meta_count = [0]
        all_meta = Future("all-restart-meta")
        plan_ready = Future("restart-plan")
        op_failed = Future(f"restart-{op_id}-failed")
        fail = self._op_failer(result, all_meta, op_failed)

        def load_meta_phase(node_name: str, pod_id: str, uri: str):
            """Connect + image load: idempotent, retried with backoff."""
            for attempt in range(timeouts.load_retries + 1):
                opened = yield from self._open_attempt(node_name, timeouts.connect)
                if opened is None:
                    if attempt < timeouts.load_retries:
                        self.cluster.count("manager.load_retries")
                        self.cluster.observe("manager.backoff_s",
                                             timeouts.backoff(attempt))
                        yield engine.sleep(timeouts.backoff(attempt))
                    continue
                chan, fd = opened
                yield from send_msg(kernel, chan, fd,
                                    {"cmd": "load_meta", "pod": pod_id,
                                     "uri": uri, "op_id": op_id})
                msg = yield from self._recv_timed(chan, fd, timeouts.load)
                if msg is None:
                    # transient (timeout / connection lost): retry
                    yield from self._close_conn(chan, fd)
                    if attempt < timeouts.load_retries:
                        self.cluster.count("manager.load_retries")
                        self.cluster.observe("manager.backoff_s",
                                             timeouts.backoff(attempt))
                        yield engine.sleep(timeouts.backoff(attempt))
                    continue
                return chan, fd, msg
            return None

        def pod_task(node_name: str, pod_id: str, uri: str):
            # phase 0: have the agent load the image and report meta-data
            phase = self.cluster.span("manager.phase.load_meta", node=node_name,
                                      pod=pod_id, parent=op_span)
            yield from self.cluster.trace("manager.load_meta", node=node_name, pod=pod_id)
            loaded = yield from load_meta_phase(node_name, pod_id, uri)
            if loaded is None:
                phase.end(status="failed")
                fail(f"{pod_id}: cannot load image meta from {node_name}")
                return
            chan, fd, msg = loaded
            if msg.get("type") != "meta":
                phase.end(status="failed")
                fail(f"{pod_id}: {msg.get('error', 'image load failed')}")
                return
            metas[pod_id] = msg["meta"]
            vips[pod_id] = msg["vip"]
            result.filters[pod_id] = list(msg.get("filters") or [])
            phase.end()
            meta_count[0] += 1
            if meta_count[0] == len(targets) and not all_meta.done:
                all_meta.set_result(True)
            phase = self.cluster.span("manager.phase.plan", node=node_name,
                                      pod=pod_id, parent=op_span)
            try:
                plan_ok, plan = yield engine.timeout(plan_ready, timeouts.barrier)
            except RuntimeError:
                phase.end(status="aborted")
                return
            if not plan_ok:
                phase.end(status="failed")
                fail(f"{pod_id}: restart plan timed out")
                return
            pod_plan = plan[pod_id]
            phase.end()
            # 1. send restart command + (modified) meta-data
            phase = self.cluster.span("manager.phase.commit", node=node_name,
                                      pod=pod_id, parent=op_span)
            yield from self.cluster.trace("manager.restart_sent", node=node_name, pod=pod_id)
            yield from send_msg(kernel, chan, fd, {
                "cmd": "restart",
                "pod": pod_id,
                "vip": vips[pod_id],
                "uri": uri,
                "op_id": op_id,
                "listeners": pod_plan["listeners"],
                "schedule": pod_plan["schedule"],
                "time_virtualization": time_virtualization,
                "recovery_mode": recovery_mode,
            })
            # 2. receive status
            done = yield from self._recv_timed(chan, fd, timeouts.restart_done)
            if done is None or done.get("status") != "ok":
                detail = done.get("error", "restart failed") if done else \
                    "restart timed out or agent connection lost"
                phase.end(status="failed")
                fail(f"{pod_id}: {detail}")
                return
            result.pods[pod_id] = done["stats"]
            phase.end()
            yield from self._close_conn(chan, fd)

        def planner():
            try:
                yield all_meta
            except RuntimeError as err:
                if not plan_ready.done:
                    plan_ready.set_exception(err)
                return
            plan = derive_restart_plan(metas)
            # the plan may carry bytes (send-queue data), so it rides
            # the ledger codec-encoded rather than as raw JSON
            yield from machine.advance(
                "plan",
                plan_hex=codec.encode({"plan": plan, "vips": dict(vips)}).hex(),
                time_virtualization=time_virtualization,
                recovery_mode=recovery_mode)
            if not plan_ready.done:
                plan_ready.set_result(plan)

        yield from self.cluster.trace("manager.op_start", pod=f"op{op_id}")
        yield from machine.begin()
        self._spawn(planner(), name="restart-planner")
        tasks = [self._spawn(pod_task(n, p, u), name=f"restart-{p}")
                 for n, p, u in targets]
        all_done = all_of([t.finished for t in tasks])
        race = Future(f"restart-{op_id}-race")
        all_done.add_done_callback(
            lambda _f: race.set_result("done") if not race.done else None)
        op_failed.add_done_callback(
            lambda _f: race.set_result("failed") if not race.done else None)
        ok, outcome = yield engine.timeout(race, deadline)
        if self.crashed:
            result.status = "crashed"
            op_span.end(status=result.status)
            return result
        if not ok:
            result.status = "timeout"
            result.errors.append("deadline expired")
        elif outcome == "failed":
            result.status = "failed"
            yield engine.timeout(all_done, timeouts.drain)
        elif result.errors:
            result.status = "failed"
        if result.status != "ok":
            yield from self._finish_failed_op(result, tasks, timeouts, machine)
        else:
            for task in tasks:
                if not task.done:
                    task.cancel()
        result.t_end = engine.now
        result.metas = metas
        if result.ok:
            yield from machine.commit(duration_s=result.duration)
        yield from self.cluster.trace("manager.op_end", pod=f"op{op_id}")
        op_span.end(status=result.status, duration_s=result.duration)
        return result

    # ------------------------------------------------------------------
    # recovery: the paper's motivating use case
    # ------------------------------------------------------------------
    def recover(self, **kw) -> Task:
        """Spawn a crash recovery; Task resolves to an OpResult."""
        return self._spawn(self.recover_task(**kw), name="manager-recover")

    def recover_task(self, deadline: float = 120.0,
                     timeouts: Optional[PhaseTimeouts] = None,
                     placement: Optional[Dict[str, str]] = None,
                     time_virtualization: bool = True,
                     recovery_mode: str = "two-thread"):
        """Detect crashed nodes and restart the application from
        ``last_checkpoint``, placing lost pods on surviving blades.

        The whole application rolls back to the consistent checkpoint:
        surviving instances of the checkpointed pods are destroyed, then
        every pod is restarted — on its original node when that node
        still answers, elsewhere (least-loaded surviving blade, or the
        caller's ``placement`` overrides) when it does not.  In-memory
        images died with their node and make the pod unrecoverable; the
        operation then fails *before* touching any surviving pod.
        """
        engine = self.cluster.engine
        timeouts = timeouts if timeouts is not None else PhaseTimeouts()
        op_id = self.new_op_id()
        result = OpResult("recover", "ok", engine.now, engine.now, op_id=op_id)
        op_span = self.cluster.span("manager.recover", category="op",
                                    key=("op", op_id), op=op_id,
                                    owner=self.name)
        self.cluster.span_context(("op", op_id), mspan=op_span.span_id,
                                  owner=self.name)
        machine = OpMachine(self, result, span=op_span)
        last = self.last_checkpoint
        if last is None or not last.ok or not last.targets:
            result.status = "failed"
            result.errors.append("no usable checkpoint to recover from")
            result.t_end = engine.now
            op_span.end(status=result.status, duration_s=result.duration)
            return result
        result.targets = list(last.targets)
        # per-node op exclusion: a recover destroys surviving instances
        # of every involved pod, so it must own the involved nodes — a
        # concurrent drain/evacuation campaign holding any of them makes
        # this recover fail fast instead of racing it pod by pod
        claim_label = f"recover:op{op_id}"
        involved_nodes = sorted({n for (n, _p, _u) in last.targets})
        if not self.claim_nodes(involved_nodes, claim_label):
            held = {n: self.node_claim_holder(n) for n in involved_nodes
                    if self.node_claim_holder(n) not in (None, claim_label)}
            result.status = "failed"
            result.errors.append(
                f"node exclusion refused: {sorted(held.items())}")
            result.t_end = engine.now
            op_span.end(status=result.status, duration_s=result.duration)
            return result
        # the begin record lands only once the early-out checks passed,
        # so a recover that never started driving anything leaves no
        # claimable orphan behind; every later return path below writes
        # a terminal record for the same reason
        yield from machine.begin()

        # 1. failure detection: fail-stop flags plus a liveness probe of
        #    every node the checkpoint involves
        phase = self.cluster.span("manager.phase.detect", parent=op_span)
        crashed = {node.name for node in self.cluster.nodes if node.crashed}
        involved = {n for (n, _p, _u) in last.targets}
        for name in sorted(involved - crashed):
            alive = yield from self._probe_node(name, timeouts)
            if not alive:
                crashed.add(name)
        yield from self.cluster.trace("manager.recover_detect",
                                      pod=",".join(sorted(crashed)) or None)
        phase.end(crashed=",".join(sorted(crashed)))
        yield from machine.advance("detect", crashed=sorted(crashed))
        survivors = [n for n in self.cluster.nodes if n.name not in crashed]
        if not survivors:
            result.status = "failed"
            result.errors.append("no surviving nodes to recover onto")
            result.t_end = engine.now
            machine.aborted(result.errors[-1])
            self.release_nodes(involved_nodes, claim_label)
            op_span.end(status=result.status, duration_s=result.duration)
            return result

        # 2. placement — checked for feasibility before any destruction.
        #    Nodes another op holds (a drain emptying a blade) are not
        #    placement targets unless nothing else survives.
        unclaimed = [n for n in survivors
                     if self.node_claim_holder(n.name) in (None, claim_label)]
        candidates = unclaimed if unclaimed else survivors
        load = {n.name: len(n.kernel.pods) for n in survivors}
        new_targets: List[Target] = []
        for node_name, pod_id, uri in last.targets:
            sink = resolve_sink(uri, self.cluster, self.home.kernel.vfs)
            if sink.dest is not None:
                # migration image: it lives in the destination Agent's
                # memory store
                node_name, uri = sink.dest, "mem"
            if sink.shared:
                # shared-storage image (SAN container or CAS recipe):
                # restartable from any surviving node
                if placement and pod_id in placement:
                    dest = placement[pod_id]
                elif node_name not in crashed:
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
        if result.errors:
            result.status = "failed"
            result.t_end = engine.now
            machine.aborted(result.errors[-1])
            self.release_nodes(involved_nodes, claim_label)
            op_span.end(status=result.status, duration_s=result.duration)
            return result

        # 3. roll the survivors back: the restart restores the whole
        #    application to the consistent cut
        for _node_name, pod_id, _uri in last.targets:
            for node in survivors:
                pod = node.kernel.pods.get(pod_id)
                if pod is not None:
                    pod.destroy()

        # 4. restart everywhere
        restart = yield from self.restart_task(
            new_targets, time_virtualization=time_virtualization,
            deadline=deadline, recovery_mode=recovery_mode, timeouts=timeouts)
        result.status = restart.status
        result.errors.extend(restart.errors)
        result.pods = restart.pods
        result.metas = restart.metas
        result.filters = restart.filters
        result.targets = new_targets
        result.t_end = engine.now
        if result.ok:
            yield from machine.commit(duration_s=result.duration)
        else:
            machine.aborted(result.errors[-1] if result.errors else restart.status)
        self.release_nodes(involved_nodes, claim_label)
        op_span.end(status=result.status, duration_s=result.duration)
        return result

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

        Returns ``[(op_id, phase_at_claim, outcome), ...]``.
        """
        engine = self.cluster.engine
        timeouts = timeouts if timeouts is not None else PhaseTimeouts()
        lease = DEFAULT_LEASE_S if lease_s is None else float(lease_s)
        actions: List[Tuple[int, str, str]] = []
        for op in self.ledger.orphaned(engine.now):
            span = self.cluster.span("manager.claim", parent=("op", op.op_id),
                                     category="op", op=op.op_id,
                                     owner=self.name, at_phase=op.phase)
            if not self.ledger.claim(op.op_id, self.name, engine.now, lease):
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

    def _resume_orphan(self, op, timeouts: PhaseTimeouts):
        """Finish a checkpoint whose continue broadcast was durable."""
        engine = self.cluster.engine
        span = self.cluster.span("manager.resume", parent=("op", op.op_id),
                                 category="op", op=op.op_id, at_phase=op.phase,
                                 owner=self.name)
        self.cluster.span_context(("op", op.op_id), mspan=span.span_id,
                                  owner=self.name)
        # re-attach: complete the barrier of any session still parked on
        # the dead Manager's connection (idempotent for the rest)
        for node_name in sorted({n for (n, _p, _u) in op.targets}):
            if self.cluster.node_by_name(node_name).crashed:
                continue
            yield from self._send_simple(node_name, {
                "cmd": "continue_op", "op_id": op.op_id}, timeouts)
        verified = yield from self._verify_op_images(op, timeouts)
        resumed = True
        if verified and op.context == "snapshot":
            probe = OpResult(op.kind, "ok", engine.now, engine.now,
                             targets=[tuple(t) for t in op.targets],
                             op_id=op.op_id)
            yield from self._verify_resumed(op.targets, probe, timeouts)
            for node_name, pod_id, _uri in op.targets:
                if self.cluster.node_by_name(node_name).crashed:
                    continue
                if not probe.resumed.get(pod_id, False):
                    resumed = False
        if not (verified and resumed):
            span.end(status="unverified")
            return (yield from self._abort_orphan(op, timeouts))
        result = OpResult("checkpoint", "ok", op.t_last, engine.now,
                          targets=[tuple(t) for t in op.targets],
                          op_id=op.op_id)
        machine = OpMachine(self, result, span=span)
        yield from machine.commit(resumed_by=self.name)
        self.last_checkpoint = result
        span.end(status="resumed")
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

    def _abort_orphan(self, op, timeouts: PhaseTimeouts):
        """Abort an orphan through the normal tombstone-GC path.

        The gc broadcast doubles as the re-attach for parked sessions
        (the Agent signals their barrier futures with an abort), and the
        tombstone suppresses any late store.  Aborting is idempotent —
        re-running it after a half-done abort by the dead Manager rolls
        nothing back twice (the Agents' gc guard) and re-unlinking a
        gone SAN container is a no-op.
        """
        engine = self.cluster.engine
        span = self.cluster.span("manager.abort", parent=("op", op.op_id),
                                 category="op", op=op.op_id, at_phase=op.phase,
                                 owner=self.name)
        self.cluster.span_context(("op", op.op_id), mspan=span.span_id,
                                  owner=self.name)
        reason = f"orphaned at {op.phase}; aborted by {self.name}"
        result = OpResult(op.kind, "failed", engine.now, engine.now,
                          targets=[tuple(t) for t in op.targets],
                          op_id=op.op_id, errors=[reason])
        machine = OpMachine(self, result, span=span)
        yield from machine.advance("abort", reason=reason)
        if op.kind == "checkpoint" and op.targets:
            yield from self._gc_partial_images(op.targets, result, timeouts)
            # signalled sessions resume their pods within a few events;
            # the drain window bounds the wait before the verify probe
            yield engine.sleep(timeouts.drain)
            yield from self._verify_resumed(op.targets, result, timeouts)
        machine.aborted(reason)
        span.end(status="aborted", gc_paths=len(result.gc_paths))
        return "aborted"

    def _redrive_restart(self, op, timeouts: PhaseTimeouts):
        """Finish an orphaned restart from its durable plan.

        Pods whose restart command never went out are re-driven on
        fresh sessions — concurrently, because connectivity recovery
        only completes when every peer participates; pods that already
        exist (restored, or mid-restore by a surviving Agent session)
        are left to finish on their own.
        """
        engine = self.cluster.engine
        kernel = self.home.kernel
        span = self.cluster.span("manager.redrive", parent=("op", op.op_id),
                                 category="op", op=op.op_id, owner=self.name)
        self.cluster.span_context(("op", op.op_id), mspan=span.span_id,
                                  owner=self.name)
        decoded = codec.decode(bytes.fromhex(op.fields["plan_hex"]))
        plan, vips = decoded["plan"], decoded["vips"]
        tv = bool(op.fields.get("time_virtualization", True))
        mode = op.fields.get("recovery_mode", "two-thread")
        failures: List[str] = []
        redriven = [0]

        def redrive_pod(node_name: str, pod_id: str, uri: str):
            reply = yield from self._send_simple(node_name, {
                "cmd": "query_pod", "pod": pod_id}, timeouts)
            if reply is not None and reply.get("exists"):
                return
            opened = yield from self._open_retry(node_name, timeouts)
            if opened is None:
                failures.append(f"{pod_id}: cannot reach agent on {node_name}")
                return
            chan, fd = opened
            yield from send_msg(kernel, chan, fd, {
                "cmd": "load_meta", "pod": pod_id, "uri": uri,
                "op_id": op.op_id})
            msg = yield from self._recv_timed(chan, fd, timeouts.load)
            if msg is None or msg.get("type") != "meta":
                failures.append(f"{pod_id}: image reload failed")
                yield from self._close_conn(chan, fd)
                return
            pod_plan = plan.get(pod_id, {})
            yield from send_msg(kernel, chan, fd, {
                "cmd": "restart", "pod": pod_id,
                "vip": vips.get(pod_id, msg.get("vip")),
                "uri": uri, "op_id": op.op_id,
                "listeners": pod_plan.get("listeners", []),
                "schedule": pod_plan.get("schedule", []),
                "time_virtualization": tv,
                "recovery_mode": mode,
            })
            done = yield from self._recv_timed(chan, fd, timeouts.restart_done)
            yield from self._close_conn(chan, fd)
            if done is None or done.get("status") != "ok":
                failures.append(f"{pod_id}: re-driven restart failed")
                return
            redriven[0] += 1

        tasks = [self._spawn(redrive_pod(n, p, u), name=f"redrive-{p}")
                 for n, p, u in op.targets]
        if tasks:
            ok, _ = yield engine.timeout(
                all_of([t.finished for t in tasks]),
                timeouts.connect + timeouts.load + timeouts.restart_done)
            if not ok:
                for task in tasks:
                    if not task.done:
                        task.cancel()
                failures.append("redrive deadline expired")
        result = OpResult("restart", "failed" if failures else "ok",
                          op.t_last, engine.now,
                          targets=[tuple(t) for t in op.targets],
                          op_id=op.op_id, errors=list(failures))
        machine = OpMachine(self, result, span=span)
        if failures:
            machine.aborted("; ".join(failures))
            span.end(status="failed")
            return "aborted"
        yield from machine.commit(resumed_by=self.name, redriven=redriven[0])
        span.end(status="redriven", redriven=redriven[0])
        return "redriven"
