"""The per-node ZapC Agent.

A daemon (host task) on every cluster node that executes the local side
of the coordinated checkpoint-restart protocol:

Checkpoint (Figure 1): suspend the pod and block its network → capture
network state → report *meta-data* to the Manager → capture standalone
pod state (overlapping the Manager's collection of everyone's
meta-data) → wait for ``continue`` → unblock the network and report
``done`` → finally resume (snapshot) or destroy (migration) the pod.

Restart (Figure 3): create an empty pod → recover network connectivity
from the Manager's schedule using **two threads of execution** ("one
thread handles requests for incoming connections, and the other
establishes connections to remote pods" — which is what makes the
recovery deadlock-free without computing a deadlock-free order) →
restore network state → standalone restart → report ``done``.

The Agent also receives streamed images for direct migration, and
aborts gracefully (resuming the pod) when the Manager dies mid-protocol.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..cluster.builder import Cluster
from ..cluster.node import Node
from ..errors import CheckpointError, CodecError, RestartError
from ..pod.pod import Pod
from ..sim.tasks import Future, all_of
from ..storage.cas import CasStore
from ..vos.syscalls import Errno
from .devckpt import capture_pod_devices, restore_pod_devices
from .image import PodImage
from ..obs.tracer import NULL_SPAN
from .meta import build_pod_meta
from .netckpt import (
    block_pod_network,
    capture_pod_network,
    netstate_nbytes,
    restore_socket_state,
    seal_control,
    unblock_pod_network,
)
from .pipeline import (
    ImagePipeline,
    MemorySink,
    PipelineState,
    ReassembledImage,
    Sink,
    chain_entry,
    image_from_entry,
    negotiate_filters,
    record_stage_metrics,
)
from .sinks import resolve_sink
from .standalone import (
    activate_pod,
    capture_pod_standalone,
    count_dirty,
    resolve_programs,
    restore_pod_standalone,
)
from .wire import recv_msg, send_msg

#: TCP port every Agent listens on (on the node's real address).
AGENT_PORT = 7700
#: per-socket kernel work during network-state capture, seconds
#: (queue reads + option enumeration through standard interfaces).
CKPT_PER_SOCKET = 0.4e-3
#: per-socket kernel work during network-state restore, seconds
#: (socket creation, options, alternate-queue injection).
RESTORE_PER_SOCKET = 2e-3
#: polling period while waiting for a suspended pod to quiesce.
QUIESCE_POLL = 0.2e-3
#: connector retry delay when the peer's listener is not up yet.
CONNECT_RETRY = 2e-3

#: generational dirty-tracking consumers (see
#: :class:`repro.vos.memory.Memory`): incremental checkpoints, live
#: pre-copy rounds and the async path's copy-on-write window each keep
#: an independent baseline, so none can clobber another's ``clear_dirty``.
CKPT_CONSUMER = "ckpt"
PRECOPY_CONSUMER = "precopy"
COW_CONSUMER = "cow"


def _stage_seconds(image: PodImage, kind: Optional[str] = None) -> float:
    """Sum the pack-side stage costs recorded on an image.

    ``kind=None`` sums everything; ``"serialize"`` only the codec stage;
    ``"filter"`` every non-serialize, non-write stage.
    """
    total = 0.0
    for cost in image.stage_costs:
        stage = cost.get("stage", "")
        if kind is None:
            pass
        elif kind == "serialize" and stage != "serialize":
            continue
        elif kind == "filter" and (stage == "serialize" or stage.startswith("write")):
            continue
        total += float(cost.get("seconds", 0.0))
    return total


def _stored(reply: Any) -> bool:
    """Did a peer Agent acknowledge a push?"""
    return isinstance(reply, dict) and reply.get("type") == "stored"


class _Checkpoint:
    """One checkpoint session: the command as read here, then whatever
    each step of :meth:`Agent._do_checkpoint` leaves for the next."""

    def __init__(self, agent: "Agent", chan, fd, msg, pod: Pod) -> None:
        self.chan, self.fd, self.msg, self.pod = chan, fd, msg, pod
        self.pod_id = msg["pod"]
        self.op_id = int(msg.get("op_id", 0))
        self.context = msg.get("context", "snapshot")
        self.order = msg.get("order", "net-first")
        self.live = bool(msg.get("live", False))
        self.sink = resolve_sink(msg["uri"], agent.cluster, agent.kernel.vfs,
                                 agent.mem_sink)
        filters, self.accepted, self.rejected = negotiate_filters(
            msg.get("filters"))
        self.pipeline = ImagePipeline(filters)
        # a delta the target cannot apply is useless: this epoch may be
        # one only if the sink's newest image for the pod is the previous
        # epoch *and* the generation this Agent diffs against (a sink the
        # image leaves this node for holds none; an epoch number alone
        # also matches another host's chain)
        tip = agent.pipeline_state.tip(self.pod_id)
        self.chain_local = (bool(filters)
                            and self.sink.tip_epoch(self.pod_id) == tip.epoch - 1
                            and tip.op_id is not None
                            and self.sink.exists(tip.op_id))
        # measured dirty tracking pays off for a delta filter on a sink
        # that keeps chains — and for any sink whose cost model needs the
        # dirty byte count to tell changed blocks from clean ones
        self.track_dirty = self.sink.dest is None and (
            self.sink.wants_dirty or any(f.name == "delta" for f in filters))
        #: the encode waits until after resume: capture-then-resume needs
        #: the pod to survive (snapshot context) and the image to stay on
        #: this node's sinks; standalone-first, which exposes the sync,
        #: never defers
        self.deferred = (msg.get("async_ckpt", False)
                         and self.context == "snapshot"
                         and self.sink.dest is None
                         and self.order != "standalone-first")
        #: the key the Manager registered its operation span under: every
        #: per-pod span hangs off it and inherits its ambient context
        #: (driving Manager span, owner), so a trace assembly attributes
        #: this Agent's work to the incarnation that commanded it with
        #: no ids riding the wire.
        self.op_parent = ("op", self.op_id)
        self.t0 = agent.engine.now
        # left behind by the steps
        self.net_window = self.commit_span = NULL_SPAN
        self.residual = self.dirty_bytes = self.standalone = self.image = None
        self.t_resume = self.snapshot_id = self.stream_charge = None
        self.cow_bytes = 0


class _Restart:
    """One restart session: the command and the chain ``_do_load_meta``
    loaded, then whatever each step of :meth:`Agent._do_restart` leaves
    for the next."""

    def __init__(self, agent: "Agent", chan, fd, msg, chain: List[PodImage],
                 reassembled: ReassembledImage) -> None:
        self.chan, self.fd, self.msg = chan, fd, msg
        self.chain, self.reassembled = chain, reassembled
        self.pod_id = msg["pod"]
        self.op_parent = ("op", int(msg.get("op_id", 0)))
        self.payload = reassembled.payload
        self.standalone = self.payload["standalone"]
        self.records: List[Dict[str, Any]] = self.payload["sockets"]
        self.schedule = msg.get("schedule", [])
        self.t0 = agent.engine.now
        # left behind by the steps
        self.pod = None
        self.socket_map: Dict[int, Any] = {}
        self.t_conn_done = self.t_net_done = self.t_done = None
        self.restore_bytes = 0


class Agent:
    """One node's checkpoint-restart agent."""

    def __init__(self, cluster: Cluster, node: Node) -> None:
        self.cluster = cluster
        self.node = node
        self.kernel = node.kernel
        self.engine = node.kernel.engine
        #: the in-memory checkpoint store (the paper's write-to-memory
        #: semantics; flushing to the SAN is separate): one generation
        #: record per pod — chain, delta base, epoch and writing op —
        #: with :attr:`mem_sink` as its sink-protocol face.
        self.pipeline_state = PipelineState()
        self.mem_sink = MemorySink(self.pipeline_state)
        #: redirected send-queue data awaiting a restart here:
        #: (pod_id, sock_id) -> bytes, pushed by migrating peers'
        #: agents ("merge it with the peer's stream of checkpoint data").
        self.redirect_store: Dict[Tuple[str, int], bytes] = {}
        #: pre-copy accounting for live migration: pod_id -> the op, the
        #: rounds shipped here while the source pod kept running, and the
        #: stop-and-copy residual (``placed``).  Pure accounting (the
        #: accounted bytes are never materialized); the restartable image
        #: still arrives through the normal push_image path.
        self.precopy_store: Dict[str, Dict[str, Any]] = {}
        #: op-id tombstones: operations the Manager garbage-collected.
        #: A session still working for a dead operation must not publish
        #: its image (the late store would shadow the last good one).
        self.gc_ops: set = set()
        #: continue-wait re-attach registry: (op_id, pod_id) -> Future.
        #: A checkpoint session parked at the barrier can be completed
        #: (``continue_op``) or aborted (``gc``) through a *different*
        #: connection — how a takeover Manager adopts the dead one's
        #: in-flight sessions.
        self.op_waits: Dict[Tuple[int, str], Future] = {}
        self._task = None

    # ------------------------------------------------------------------
    # daemon
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the listening daemon."""
        self._task = self.engine.spawn(self._serve(), name=f"agent@{self.node.name}")

    def _serve(self):
        kernel = self.kernel
        chan = kernel.host_channel("agent-listen")
        lfd = yield kernel.host_call(chan, "socket", "tcp")
        yield kernel.host_call(chan, "setsockopt", lfd, "SO_REUSEADDR", 1)
        yield kernel.host_call(chan, "bind", lfd, (self.node.ip, AGENT_PORT))
        yield kernel.host_call(chan, "listen", lfd, 64)
        while True:
            result = yield kernel.host_call(chan, "accept", lfd)
            if isinstance(result, Errno):
                return
            newfd, _peer = result
            # hand the connection to a session with its own channel so
            # sessions proceed concurrently
            sock = chan.fds.pop(newfd)
            schan = kernel.host_channel("agent-session")
            schan.fds[newfd] = sock
            schan.next_fd = max(schan.next_fd, newfd + 1)
            self.engine.spawn(self._session(schan, newfd), name=f"agent-session@{self.node.name}")

    def _session(self, chan, fd):
        kernel = self.kernel
        try:
            msg = yield from recv_msg(kernel, chan, fd)
            if msg is None:
                return
            cmd = msg.get("cmd")
            try:
                if cmd == "checkpoint":
                    yield from self._do_checkpoint(chan, fd, msg)
                    return
                elif cmd == "load_meta":
                    yield from self._do_load_meta(chan, fd, msg)
                    return
                elif cmd == "precopy":
                    yield from self._do_precopy(chan, fd, msg)
                    return
            except RestartError as err:
                # a failed restart is reported, not hung: the Manager
                # hears the reason instead of waiting out its deadline
                yield from send_msg(kernel, chan, fd, {
                    "type": "done", "pod": msg.get("pod"),
                    "status": "failed", "error": str(err),
                })
                return
            if cmd == "push_image":
                self._store_pushed(msg)
                yield from send_msg(kernel, chan, fd, {"type": "stored"})
            elif cmd == "precopy_push":
                self._store_precopy(msg)
                yield from send_msg(kernel, chan, fd, {"type": "stored"})
            elif cmd == "push_redirect":
                self.redirect_store[(msg["pod"], int(msg["sock_id"]))] = bytes(msg["data"])
                yield from send_msg(kernel, chan, fd, {"type": "stored"})
            elif cmd == "ping":
                yield from send_msg(kernel, chan, fd, {"type": "pong", "node": self.node.name})
            elif cmd == "gc":
                # abort-path garbage collection: tombstone the op, break
                # any session still parked at its barrier, and undo what
                # the op wrote to the local store.  The store knows whose
                # generation it holds, so a replayed gc (a takeover
                # replica re-running a half-done abort) or one for an op
                # that stored nothing here undoes nothing.
                op = int(msg.get("op_id", 0))
                if op:
                    self.gc_ops.add(op)
                    self._signal_op(op, {"cmd": "abort"})
                    # shared stores: release anything the op staged or
                    # published fleet-wide (op-keyed, so this is
                    # idempotent under replayed broadcasts and never
                    # touches a later committed generation)
                    CasStore.on(self.cluster.san).abort_op(op)
                self._gc_pods(op, msg.get("pods", []))
                yield from send_msg(kernel, chan, fd, {"type": "gcd", "node": self.node.name})
            elif cmd == "continue_op":
                # takeover re-attach: complete the continue barrier of a
                # resumable op on behalf of its dead Manager.  The ledger
                # guarantees the continue broadcast was decided, so
                # releasing the parked sessions preserves the sync point.
                op = int(msg.get("op_id", 0))
                waiting = sorted(p for (o, p) in self.op_waits if o == op)
                if op and op not in self.gc_ops:
                    self._signal_op(op, {"cmd": "continue", "redirect_out": []})
                yield from send_msg(kernel, chan, fd, {
                    "type": "reattached", "op_id": op,
                    "node": self.node.name, "waiting": waiting})
            elif cmd == "query_image":
                # asked per pod, so the pod's record answers (the sink's
                # ``exists(op)`` is node-wide)
                pod = msg.get("pod")
                tip = self.pipeline_state.tip(pod)
                yield from send_msg(kernel, chan, fd, {
                    "type": "image_status", "pod": pod,
                    "exists": bool(tip.chain),
                    "op_ok": tip.op_id == int(msg.get("op_id", -1)),
                })
            elif cmd == "query_pod":
                pod = kernel.pods.get(msg.get("pod"))
                yield from send_msg(kernel, chan, fd, {
                    "type": "pod_status", "pod": msg.get("pod"),
                    "exists": pod is not None,
                    "running": pod is not None and not pod.suspended,
                })
            else:
                yield from send_msg(kernel, chan, fd, {"type": "error", "error": f"unknown cmd {cmd!r}"})
        finally:
            # synchronous close: a ``yield`` here would break generator
            # finalization when an abandoned session is garbage-collected
            sock = chan.fds.pop(fd, None)
            if sock is not None and not sock.closed:
                sock.release(kernel, chan)

    # ------------------------------------------------------------------
    # checkpoint (Figure 1, Agent side)
    # ------------------------------------------------------------------
    def _capture_network(self, pod: Pod):
        """Network-state capture strategy; baselines override this
        (e.g. the Cruz-style peek capture in repro.baselines.peek)."""
        return capture_pod_network(pod)

    def _do_checkpoint(self, chan, fd, msg):
        """Figure 1, Agent side: one fixed sequence of steps sharing one
        :class:`_Checkpoint`.  The encode either runs in the standalone
        step or is deferred past resume, and the §4 ordering ablation
        moves the standalone step ahead of the meta report (DESIGN §11)."""
        kernel = self.kernel
        pod: Optional[Pod] = kernel.pods.get(msg["pod"])
        if pod is None:
            yield from send_msg(kernel, chan, fd, {
                "type": "error", "error": f"no pod {msg['pod']!r}"})
            return
        ck = _Checkpoint(self, chan, fd, msg, pod)
        yield from self._capture(ck)
        # network state first, so the standalone step overlaps the
        # Manager's sync; the §4 ablation serializes them
        standalone_first = ck.order == "standalone-first"
        if standalone_first:
            yield from self._capture_standalone(ck)
        if not (yield from self._report_meta(ck)):
            return
        if not standalone_first:
            yield from self._capture_standalone(ck)
        reply = yield from self._await_continue(ck)
        if reply is None:
            return
        yield from self._commit(ck, reply)
        yield from self._report_done(ck)
        yield from self._deliver(ck)

    def _phase(self, session, name: str, **attrs):
        """A phase span of a checkpoint or restart session, hung off the
        Manager's op span."""
        return self.cluster.span(f"agent.phase.{name}", node=self.node.name,
                                 pod=session.pod_id, parent=session.op_parent,
                                 **attrs)

    def _cross(self, ck: "_Checkpoint", name: str):
        return self.cluster.trace(name, node=self.node.name, pod=ck.pod_id)

    def _capture(self, ck: "_Checkpoint"):
        """Steps 1–2: suspend the pod and block its network, then the
        network-state checkpoint (plus bypass-device state, §5 ext.)."""
        engine, node, pod = self.engine, self.node, ck.pod
        phase = self._phase(ck, "suspend")
        pod.suspend()
        while not pod.quiescent():
            yield engine.sleep(QUIESCE_POLL)
        ck.net_window = block_pod_network(self.cluster, self.kernel.netstack,
                                          pod, node=node.name,
                                          parent=ck.op_parent)
        ck.t_suspended = engine.now
        if ck.live:
            # live migration: once suspended, nothing dirties memory
            # anymore — whatever the pre-copy rounds did not ship is the
            # final residual
            ck.residual = count_dirty(pod.processes(), PRECOPY_CONSUMER)
        if ck.track_dirty:
            # the one dirty count every image of this capture is priced
            # from, taken at suspend; the baseline clear is *staged* —
            # only a committed op keeps it, an abort folds the generation
            # back so the next epoch never undercounts
            ck.dirty_bytes = count_dirty(pod.processes(), CKPT_CONSUMER)
            for p in pod.processes():
                p.memory.begin_clear(CKPT_CONSUMER)
        yield from self._cross(ck, "agent.suspend")
        phase.end()

        phase = self._phase(ck, "netstate")
        ck.sock_records, ck.sock_fd_rows = self._capture_network(pod)
        # the control blocks are fixed from here on: encode them once, for
        # this phase's charge, the meta-data and every pack of this capture
        seal_control(ck.sock_records)
        dev_states, dev_fd_rows = capture_pod_devices(pod)
        ck.devices = {"states": dev_states, "fd_rows": dev_fd_rows}
        net_bytes = netstate_nbytes(ck.sock_records)
        yield engine.sleep(CKPT_PER_SOCKET * max(1, len(ck.sock_records))
                           + net_bytes / node.spec.memcpy_bandwidth)
        ck.t_net_done = engine.now
        yield from self._cross(ck, "agent.netstate")
        phase.end(nbytes=net_bytes, sockets=len(ck.sock_records))
        self.cluster.count("agent.netstate.bytes", net_bytes)

    def _report_meta(self, ck: "_Checkpoint"):
        """Step 2a: report meta-data; False when the Manager is gone."""
        phase = self._phase(ck, "meta_report")
        ok = yield from send_msg(self.kernel, ck.chan, ck.fd, {
            "type": "meta", "pod": ck.pod_id,
            "meta": build_pod_meta(ck.pod_id, ck.sock_records),
            "filters": ck.accepted, "filters_rejected": ck.rejected})
        if not ok:
            yield from self._abort(ck, phase, status="failed", notify=False)
            return False
        yield from self._cross(ck, "agent.meta_sent")
        phase.end()
        return True

    def _capture_standalone(self, ck: "_Checkpoint"):
        """Step 3: the standalone checkpoint, overlapping the Manager's
        meta-data sync (ahead of the meta report under standalone-first)."""
        spec = self.node.spec
        phase = self._phase(ck, "standalone", order=ck.order)
        ck.standalone = capture_pod_standalone(ck.pod)
        if ck.deferred:
            # only the table snapshot happens inside the outage window
            yield self.engine.sleep(min(spec.capture_fixed_s, spec.ckpt_fixed_s))
            yield from self._cross(ck, "agent.async_capture")
        else:
            yield from self._encode(ck, phase)
        ck.t_standalone_done = self.engine.now
        yield from self._cross(ck, "agent.standalone")
        phase.end()

    def _pack(self, ck: "_Checkpoint", charged: bool = True) -> PodImage:
        return ck.pipeline.pack(
            ck.standalone, ck.sock_records, ck.sock_fd_rows, ck.devices,
            state=self.pipeline_state,
            serialize_bandwidth=(self.node.spec.memcpy_bandwidth
                                 if charged else None),
            chain_local=ck.chain_local, dirty_bytes=ck.dirty_bytes)

    def _encode(self, ck: "_Checkpoint", span):
        """The encode step: pack the image, charge the pipeline's time,
        and replay its per-stage costs as ``stage`` spans under ``span``.

        The fixed kernel work (descriptor walks, serialization prep) is
        charged beside the codec: in the standalone step, in the same
        sleep; deferred past resume, as the slice the short capture left,
        against the frozen tables, before the codec touches any bytes.
        """
        spec = self.node.spec
        ck.image = self._pack(ck)
        fused = spec.ckpt_fixed_s
        if ck.deferred:
            fused = 0.0
            yield self.engine.sleep(max(0.0, spec.ckpt_fixed_s
                                        - spec.capture_fixed_s))
        t_enc = self.engine.now
        yield self.engine.sleep(fused + _stage_seconds(ck.image))
        self._emit_stage_spans(ck.image, t_enc + fused, ck.pod_id, span)

    def _await_continue(self, ck: "_Checkpoint"):
        """Steps 3a/4a: finish only after ``continue`` arrives; returns
        the reply, or None after aborting (Manager dead, ``abort``
        received, or the op garbage-collected)."""
        t_wait = self.engine.now
        phase = self._phase(ck, "barrier")
        reply = yield from self._recv_continue(ck)
        gone = (reply is None or reply.get("cmd") == "abort"
                or ck.op_id in self.gc_ops)
        if not gone:
            yield from self._cross(ck, "agent.continue_recv")
        self.cluster.observe(f"agent.barrier_wait_s.{self.node.name}",
                             self.engine.now - t_wait)
        # the second tombstone test catches an op that died while a
        # fault stalled us at the crossing above
        if gone or ck.op_id in self.gc_ops:
            yield from self._abort(ck, phase)
            return None
        phase.end()
        return reply

    def _recv_continue(self, ck: "_Checkpoint"):
        """The Manager's verdict, or None on timeout / connection loss.

        The wait carries its own deadline (sent by the Manager): if the
        Manager crashes or is partitioned away, neither ``continue`` nor
        ``abort`` can ever arrive, and the Agent must abort unilaterally
        rather than keep the pod suspended forever.  While parked here
        the session is addressable through :attr:`op_waits`, so a
        takeover Manager can deliver either over a *different*
        connection when the original Manager is dead.
        """
        kernel, engine = self.kernel, self.engine
        chan, fd, op_id, pod_id = ck.chan, ck.fd, ck.op_id, ck.pod_id
        wait_timeout = float(ck.msg.get("wait_timeout", 0.0) or 0.0)
        signal = Future(f"op-signal-{op_id}:{pod_id}")
        if op_id:
            self.op_waits[(op_id, pod_id)] = signal
        try:
            if wait_timeout <= 0.0:
                return (yield from recv_msg(kernel, chan, fd))
            waiter = engine.spawn(recv_msg(kernel, chan, fd),
                                  name=f"ckpt-wait@{self.node.name}")
            race = Future(f"ckpt-race-{op_id}:{pod_id}")
            for source, fut in (("conn", waiter.finished), ("side", signal)):
                fut.add_done_callback(
                    lambda f, source=source: race.done
                    or race.set_result((source, f.result)))
            try:
                in_time, arrived = yield engine.timeout(race, wait_timeout)
            except Exception:
                in_time, arrived = True, None
            if not in_time or (arrived is not None and arrived[0] == "side"):
                # timed out, or the side channel won: abandon the
                # original connection's half-read recv
                waiter.cancel()
                chan.waiting = None
                chan.blocked_on = None
            if not in_time or arrived is None:
                return None
            return arrived[1]
        finally:
            if op_id:
                self.op_waits.pop((op_id, pod_id), None)

    def _commit(self, ck: "_Checkpoint", reply):
        """Steps 3b/4: ``continue`` received — lift the block, finish
        the image (send-queue redirect; the deferred encode) and
        commit it to this node's stores."""
        kernel, engine, pod, pod_id = self.kernel, self.engine, ck.pod, ck.pod_id
        ck.commit_span = self._phase(ck, "commit")
        if ck.context != "snapshot":
            # migration: silence and destroy the old pod before lifting
            # the filter so nothing stale can reach the restored peers
            pod.destroy()
        unblock_pod_network(kernel.netstack, pod, ck.net_window)

        redirect_out = reply.get("redirect_out", [])
        if redirect_out and ck.image is not None:
            yield from self._redirect_send_queues(ck, redirect_out)
        if ck.deferred:
            # zero-stall: the pod resumes *here* — the outage window ends
            # before any codec work; serialize/filter run against the
            # frozen capture tables while the application runs on
            pod.resume()
            ck.t_resume = engine.now
            for p in pod.processes():
                # copy-on-write window: bytes the resumed pod dirties
                # under the in-flight snapshot must be duplicated before
                # the encoder reads them
                p.memory.clear_dirty(COW_CONSUMER)
            ck.commit_span.end(async_ckpt=True)
            post_enc = self.cluster.span("agent.post.encode",
                                         node=self.node.name, pod=pod_id,
                                         parent=ck.op_parent, category="post")
            yield from self._cross(ck, "agent.async_encode")
            yield from self._encode(ck, post_enc)
            procs = self._live_procs(pod_id)
            ck.cow_bytes = count_dirty(procs, COW_CONSUMER)
            for p in procs:
                p.memory.reset_dirty(COW_CONSUMER)
            if ck.cow_bytes:
                yield engine.sleep(ck.cow_bytes / self.node.spec.memcpy_bandwidth)
            post_enc.end(nbytes=ck.image.total_bytes, cow_bytes=ck.cow_bytes)
        if ck.op_id not in self.gc_ops:
            self.mem_sink.store(ck.image, ck.op_id)
            if ck.track_dirty:
                # the op is final on this node: the staged baseline
                # clear becomes the next generation's starting point
                for p in self._live_procs(pod_id):
                    p.memory.commit_clear(CKPT_CONSUMER)
        else:
            # the op was garbage-collected on the way here (while the
            # encoder ran, say): nothing of it is published
            self.pipeline_state.abandon(pod_id)

        # optional file-system snapshot, "taken immediately prior to
        # reactivating the pod" — point-in-time capture of the shared
        # storage the pod's chroot lives on, so restart can also roll
        # files back to the checkpointed instant
        if ck.msg.get("fs_snapshot"):
            self.cluster.snapshots.take(self.cluster.san, now=engine.now)
            ck.snapshot_id = len(self.cluster.snapshots) - 1

    def _live_procs(self, pod_id: str):
        """The pod's processes, if it is still here (it may have been
        destroyed while the session slept)."""
        pod = self.kernel.pods.get(pod_id)
        return pod.processes() if pod is not None else []

    def _redirect_send_queues(self, ck: "_Checkpoint", redirect_out):
        """§5 optimization: redirect send-queue contents into the peers'
        checkpoint streams, eliminating the post-restart re-send.  The
        Manager's continue message carries the destinations (it alone
        knows where each peer pod is migrating)."""
        rec_by_id = {int(r["sock_id"]): r for r in ck.sock_records}
        for entry in redirect_out:
            rec = rec_by_id.get(int(entry["sock_id"]))
            if rec is None:
                continue
            trimmed = bytes(rec["send_data"][int(entry["discard"]):])
            rec["send_data"] = b""
            rec["send_redirected"] = True
            if trimmed:
                # straight to the peer pod's destination Agent: one
                # transfer instead of two
                yield from self._push_to_agent(
                    "agent-redirect", self.cluster.node_by_name(entry["dst_node"]),
                    {"cmd": "push_redirect", "pod": entry["peer_pod"],
                     "sock_id": int(entry["peer_sock_id"]), "data": trimmed})
        # the image must reflect the stripped queues (re-packed, not
        # re-charged: the bytes were already serialized once; the
        # pipeline diffs against the *previous* epoch because the first
        # pack's base is only staged, not published)
        repacked = self._pack(ck, charged=False)
        repacked.stage_costs = ck.image.stage_costs
        ck.image = repacked

    def _report_done(self, ck: "_Checkpoint"):
        """Step 4: report done, with the per-stage pipeline breakdown
        (the serialize / filter split happened above; the write to the
        sink happens after resume, so its cost is reported as modeled)."""
        image, sink, now = ck.image, ck.sink, self.engine.now
        stage_stats = list(image.stage_costs) + [sink.write_cost(image).as_stats()]
        record_stage_metrics(self.cluster, stage_stats)
        if ck.live and sink.dest is not None:
            # live migration: the final stream only moves what the
            # pre-copy rounds left dirty; the encoded payload still
            # travels whole
            ck.stream_charge = min(image.accounted_bytes, ck.residual)
        ck.t_write = (ck.stream_charge / sink.fabric_bandwidth
                      if ck.stream_charge is not None
                      else sink.write_delay(image))
        stats = {
            "t_suspend": ck.t_suspended - ck.t0,
            "t_network": ck.t_net_done - ck.t_suspended,
            "t_standalone": ck.t_standalone_done - ck.t_net_done,
            "t_local": now - ck.t0,
            "t_serialize": _stage_seconds(image, "serialize"),
            "t_filter": _stage_seconds(image, "filter"),
            "t_write": ck.t_write,
            "image_bytes": image.total_bytes,
            "raw_image_bytes": image.raw_total_bytes,
            "encoded_bytes": image.encoded_bytes,
            "netstate_bytes": image.netstate_bytes,
            "sockets": len(ck.sock_records),
            "fs_snapshot": ck.snapshot_id,
            "filters": ck.accepted,
            "epoch": image.epoch,
            "stages": stage_stats,
        }
        if ck.live:
            # keys present only in live mode so non-live wire traffic
            # (and thus every existing schedule) is unchanged
            stats["t_suspend_at"] = ck.t0
            stats["residual_bytes"] = ck.residual
        if ck.deferred:
            # async-only keys, same conditional-key discipline: serial
            # wire traffic (and thus every existing schedule) is unchanged
            stats["t_suspend_window"] = ck.t_resume - ck.t0
            stats["t_encode"] = _stage_seconds(image)
            stats["cow_bytes"] = ck.cow_bytes
        else:
            # the commit phase ends exactly where ``t_local`` is measured,
            # so the agent lane's phase durations sum to the reported
            # latency (the async path already ended it at resume — there
            # the phase sum is the outage window, not the full latency)
            ck.commit_span.end(image_bytes=image.total_bytes)
        yield from send_msg(self.kernel, ck.chan, ck.fd, {
            "type": "done", "pod": ck.pod_id, "status": "ok", "stats": stats})

    def _deliver(self, ck: "_Checkpoint"):
        """Finalize: resume the pod (unless the deferred-encode commit
        already did), then move the image to where its URI says —
        deliberately outside the checkpoint latency, per the paper
        (``post`` spans, excluded from phase reconciliation)."""
        image, sink = ck.image, ck.sink
        if ck.context == "snapshot" and not ck.deferred:
            ck.pod.resume()
        if sink.ack is None:
            return  # memory was the destination: committed already
        streams = sink.dest is not None
        post = self.cluster.span(
            "agent.post.stream" if streams else "agent.post.flush",
            node=self.node.name, pod=ck.pod_id, parent=ck.op_parent,
            category="post")
        if streams:
            yield from self._stream_image(ck)
            if ck.stream_charge is not None:
                post.annotate(residual_bytes=ck.stream_charge)
            post.end(nbytes=image.total_bytes)
        else:
            overlap_s = 0.0
            if ck.deferred:
                # stage-overlapped write-out: the SAN link ran while the
                # codec did (network never idle behind the compressor),
                # so only the write tail beyond the encode time remains
                yield from self._cross(ck, "agent.async_stream")
                overlap_s = _stage_seconds(image)
            flushed = yield from self._flush(image, sink, ck.op_id, overlap_s)
            post.end(status="ok" if flushed else "failed",
                     nbytes=image.total_bytes)
            if flushed:
                self.cluster.count("agent.flush.bytes", image.total_bytes)
            yield from send_msg(self.kernel, ck.chan, ck.fd, {
                "type": "flushed" if flushed else "flush-failed",
                "pod": ck.pod_id})

    def _emit_stage_spans(self, image: PodImage, t_start: float, pod_id: str,
                          parent) -> None:
        """Subdivide a modeled pack sleep into per-stage ``stage`` spans.

        The Agent sleeps once for the whole pipeline; the per-stage costs
        recorded on the image say how that sleep decomposes, and this
        replays them as explicit-time spans so exported traces show the
        serialize / filter split.
        """
        t = t_start
        for cost in image.stage_costs:
            stage = cost.get("stage", "?")
            if stage.startswith("write"):
                continue  # the write happens later, at the sink
            seconds = float(cost.get("seconds", 0.0))
            self.cluster.span_at(f"stage.{stage}", t, t + seconds,
                                 node=self.node.name, pod=pod_id,
                                 parent=parent,
                                 in_bytes=cost.get("in_bytes"),
                                 out_bytes=cost.get("out_bytes"))
            t += seconds

    def _abort(self, ck: "_Checkpoint", phase, status: str = "aborted",
               notify: bool = True):
        """The one abort path: close the phase, give the pod back, and
        (when the connection may still be alive) say so."""
        phase.end(status=status)
        self.pipeline_state.abandon(ck.pod_id)
        if ck.track_dirty:
            # fold the staged baseline clear back: nothing was committed,
            # so the generation still belongs to the next checkpoint
            for p in ck.pod.processes():
                p.memory.abort_clear(CKPT_CONSUMER)
        unblock_pod_network(self.kernel.netstack, ck.pod, ck.net_window,
                            status="aborted")
        ck.pod.resume()
        if notify:
            yield from send_msg(self.kernel, ck.chan, ck.fd,
                                {"type": "aborted", "pod": ck.pod_id})

    def _stream_image(self, ck: "_Checkpoint"):
        """Direct migration: push the image to the destination Agent.

        The encoded payload travels over the simulated network for real;
        the accounted (ballast) memory is charged as streaming time at
        fabric bandwidth without materializing the bytes — so a compress
        stage directly shortens the stream (``ck.t_write``; a live
        migration streams only the residual the pre-copy rounds left
        dirty).
        """
        image = ck.image
        # the peer stores the same chain entry a SAN container holds
        push = {"cmd": "push_image", "pod": image.pod_id,
                **chain_entry(image)}
        if ck.stream_charge is not None:
            # live migration only (non-live wire traffic stays identical):
            # tell the destination how much accounted memory this final
            # stream actually moved, so its restore charges placement for
            # the residual — the pre-copied pages are already in place
            push["placed"] = int(ck.stream_charge)
        ack = yield from self._push_to_agent(
            "agent-push", self.cluster.node_by_name(ck.sink.dest), push,
            ck.t_write)
        if isinstance(ack, Errno):
            reply = {"type": "error", "error": f"push connect: {ack.name}"}
        else:
            reply = {"type": "streamed" if _stored(ack) else "stream-failed",
                     "pod": image.pod_id}
        yield from send_msg(self.kernel, ck.chan, ck.fd, reply)

    def _push_to_agent(self, channel: str, target: Node, msg: Dict[str, Any],
                       transfer_s: Optional[float] = None):
        """The one Agent→Agent push: on a fresh host ``channel``, connect
        to ``target``'s Agent, sleep the modelled ``transfer_s`` (no
        sleep when None), send ``msg``, read the peer's reply unless the
        send failed, and close.  Returns the reply (None when none
        came), or the connect ``Errno`` when the peer cannot be
        reached."""
        kernel = self.kernel
        tchan = kernel.host_channel(channel)
        tfd = yield kernel.host_call(tchan, "socket", "tcp")
        rc = yield kernel.host_call(tchan, "connect", tfd, (target.ip, AGENT_PORT))
        if isinstance(rc, Errno):
            return rc
        if transfer_s is not None:
            yield self.engine.sleep(transfer_s)
        reply = None
        if (yield from send_msg(kernel, tchan, tfd, msg)):
            reply = yield from recv_msg(kernel, tchan, tfd)
        yield kernel.host_call(tchan, "close", tfd)
        return reply

    # ------------------------------------------------------------------
    # pre-copy live migration (source + destination sides)
    # ------------------------------------------------------------------
    def _do_precopy(self, chan, fd, msg):
        """One pre-copy round: ship the pod's dirty working set to the
        destination Agent while the pod keeps running.

        Round 1 ships the full resident set; later rounds ship only the
        bytes dirtied since the previous round.  Dirty counters are
        cleared when the copy *starts* — writes landing while the copy
        is in flight belong to the next round (or the final residual).
        """
        kernel = self.kernel
        engine = self.engine
        pod_id = msg["pod"]
        dst = msg["dst"]
        round_no = int(msg.get("round", 1))
        op_id = int(msg.get("op_id", 0))
        pod: Optional[Pod] = kernel.pods.get(pod_id)
        if pod is None:
            yield from send_msg(kernel, chan, fd, {
                "type": "error", "error": f"no pod {pod_id!r}"})
            return
        t0 = engine.now
        phase = self.cluster.span("agent.phase.precopy-round",
                                  node=self.node.name, pod=pod_id,
                                  parent=("op", op_id), round=round_no)
        yield from self.cluster.trace("agent.precopy", node=self.node.name,
                                      pod=pod_id)
        procs = pod.processes()
        if round_no <= 1:
            shipped = sum(p.memory.rss for p in procs)
        else:
            shipped = count_dirty(procs, PRECOPY_CONSUMER)
        # the baseline clear is staged, not final: writes landing while
        # the copy is in flight accrue to the next generation, and a
        # round the destination never acknowledged folds its dirtiness
        # back in (commit/abort below) instead of losing it
        for p in procs:
            p.memory.begin_clear(PRECOPY_CONSUMER)
        ok = yield from self._push_precopy(dst, pod_id, shipped, round_no, op_id)
        # the pod ran (and wrote) for the whole transfer; what it dirtied
        # meanwhile is the working set the next round must move
        pod = kernel.pods.get(pod_id)
        if pod is not None:
            acked = ok and op_id not in self.gc_ops
            for p in pod.processes():
                if acked:
                    p.memory.commit_clear(PRECOPY_CONSUMER)
                else:
                    p.memory.abort_clear(PRECOPY_CONSUMER)
        dirty_after = (count_dirty(pod.processes(), PRECOPY_CONSUMER)
                       if pod is not None else 0)
        if not ok or pod is None or op_id in self.gc_ops:
            phase.end(status="failed", shipped_bytes=shipped)
            yield from send_msg(kernel, chan, fd, {
                "type": "precopy_done", "pod": pod_id, "status": "failed",
                "round": round_no})
            return
        phase.end(shipped_bytes=shipped, dirty_bytes=dirty_after, rss=sum(
            p.memory.rss for p in pod.processes()))
        self.cluster.count("agent.precopy.bytes", shipped)
        yield from send_msg(kernel, chan, fd, {
            "type": "precopy_done", "pod": pod_id, "status": "ok",
            "round": round_no,
            "stats": {
                "round": round_no,
                "shipped_bytes": shipped,
                "dirty_bytes": dirty_after,
                "rss": sum(p.memory.rss for p in pod.processes()),
                "seconds": engine.now - t0,
            },
        })

    def _push_precopy(self, dst_node: str, pod_id: str, nbytes: int,
                      round_no: int, op_id: int):
        """Stream one round's bytes to the destination Agent; True iff
        the destination acknowledged the round."""
        try:
            target = self.cluster.node_by_name(dst_node)
        except Exception:
            return False
        # accounted transfer at fabric bandwidth, like the image stream
        ack = yield from self._push_to_agent(
            "agent-precopy", target,
            {"cmd": "precopy_push", "pod": pod_id, "bytes": int(nbytes),
             "round": round_no, "op_id": op_id},
            nbytes / self.cluster.fabric.bandwidth)
        return _stored(ack)

    def _store_precopy(self, msg) -> None:
        """Destination side: account one received pre-copy round."""
        op_id = int(msg.get("op_id", 0))
        if op_id and op_id in self.gc_ops:
            return  # aborted migration: don't accumulate stale rounds
        entry = self.precopy_store.setdefault(
            msg["pod"], {"op_id": op_id, "rounds": 0})
        if entry.get("op_id") != op_id:
            # a new migration attempt supersedes any stale accounting
            entry.update({"op_id": op_id, "rounds": 0})
        entry["rounds"] += 1

    def _store_pushed(self, msg) -> None:
        if msg.get("placed") is not None:
            # stop-and-copy residual of a live migration whose pre-copy
            # rounds landed here; the restore charge uses it
            entry = self.precopy_store.get(msg["pod"])
            if entry is not None:
                entry["placed"] = int(msg["placed"])
        # the image was packed elsewhere: it joins no base staged here
        self.pipeline_state.abandon(msg["pod"])
        self.mem_sink.store(image_from_entry(msg["pod"], msg))

    def _flush(self, image: PodImage, sink: Sink, op_id: int = 0,
               overlap_s: float = 0.0):
        """Write the image to its shared sink; True iff the flush
        published a complete, loadable generation.  One sequence for
        every sink; a partial generation is rolled back and reported as
        ``flush-failed`` rather than left visible as restartable.

        ``overlap_s`` is codec time the write already ran behind (the
        deferred encode's stage overlap): the flush charges only
        ``max(0, write + stall - overlap)`` — the tail of the slower of
        the two pipelines.
        """
        where = {"node": self.node.name, "pod": image.pod_id}
        span = NULL_SPAN
        if sink.span_ns is not None:
            span = self.cluster.span(f"{sink.span_ns}.flush",
                                     category=sink.span_ns,
                                     parent=("op", op_id), **where)
        directives = yield from self.cluster.trace(sink.crossings["write"],
                                                   **where)
        # claimed after the crossing: a stall injected there must delay
        # *this* write, not whichever Agent flushes next
        stall = self.cluster.san.consume_stall()
        yield self.engine.sleep(max(0.0, sink.write_delay(image) + stall
                                    - overlap_s))
        if op_id and op_id in self.gc_ops:
            # the Manager aborted and collected this op while we slept
            span.end(status="aborted")
            return False
        sink.stage(image, op_id=op_id, truncate=directives.get("truncate"))
        if "commit" in sink.crossings:
            yield from self.cluster.trace(sink.crossings["commit"], **where)
            if op_id and op_id in self.gc_ops:
                # collected at the commit crossing: the stage is already
                # an orphan — drop it instead of publishing for a dead op
                sink.rollback(op_id)
                span.end(status="aborted")
                return False
        if not sink.publish(op_id):
            # the pending stage is no longer ours (an interleaved op
            # replaced it, or it was swept): publishing it would promote
            # a rival's — possibly truncated — stage under our read-back,
            # so fail without touching the published generation
            span.end(status="failed")
            return False
        if sink.tip_epoch(image.pod_id) is None:
            # a partial generation got published: roll it back (op-keyed
            # where the sink can, so a replayed GC cannot undo more)
            sink.rollback(op_id)
            span.end(status="failed")
            return False
        span.end(status="ok", nbytes=image.total_bytes)
        return True

    def _signal_op(self, op_id: int, msg: Dict[str, Any]) -> None:
        """Resolve every session future parked at op ``op_id``'s barrier
        (each session gets its own copy of the synthetic reply)."""
        for (op, _pod), fut in sorted(self.op_waits.items()):
            if op == op_id and not fut.done:
                fut.set_result(dict(msg))

    def _gc_pods(self, op_id: int, pods: List[str]) -> None:
        """Undo what failed op ``op_id`` stored here (``pods``: where
        the Manager expects it to have); a pod it stored nothing for
        keeps its dirty counters and pre-copy accounting as well."""
        for pod_id in self.pipeline_state.rollback(op_id, pods):
            # drop pre-copy accounting from an aborted live migration
            self.precopy_store.pop(pod_id, None)
            for p in self._live_procs(pod_id):
                # a rolled-back commit cannot restore its exact pre-clear
                # counters: fall back to fully dirty — the next epoch
                # over-charges rather than undercounts
                p.memory.reset_dirty(CKPT_CONSUMER)

    def _load_chain(self, pod_id: str, sink: Sink) -> List[PodImage]:
        """Load a checkpoint image chain (epoch order; length 1 unless
        incremental checkpoints extended it).  An image that is not on
        shared storage is in this Agent's memory — committed here, or
        pushed here by a migrating peer."""
        if sink.shared:
            return sink.load(pod_id)
        chain = self.mem_sink.load(pod_id)
        if not chain:
            raise RestartError(f"no in-memory image for pod {pod_id!r} on {self.node.name}")
        return chain

    # ------------------------------------------------------------------
    # restart (Figure 3, Agent side)
    # ------------------------------------------------------------------
    def _do_load_meta(self, chan, fd, msg):
        """Phase 0 of restart: load the image chain, report its meta-data."""
        kernel = self.kernel
        op_parent = ("op", int(msg.get("op_id", 0)))
        phase = self.cluster.span("agent.phase.load_meta", node=self.node.name,
                                  pod=msg.get("pod"), parent=op_parent)
        yield from self.cluster.trace("agent.load_meta", node=self.node.name,
                                      pod=msg.get("pod"))
        sink = resolve_sink(msg["uri"], self.cluster, kernel.vfs, self.mem_sink)
        try:
            chain = self._load_chain(msg["pod"], sink)
        except RestartError as err:
            phase.end(status="failed")
            yield from send_msg(kernel, chan, fd, {"type": "error", "error": str(err)})
            return
        if sink.shared and not msg.get("preloaded", True):
            yield self.engine.sleep(self.cluster.san.transfer_delay(
                sum(img.total_bytes for img in chain)))
        try:
            reassembled = ImagePipeline.reassemble(chain, state=self.pipeline_state)
            resolve_programs(reassembled.payload["standalone"])
        except (CodecError, CheckpointError, RestartError, KeyError) as err:
            # a corrupt or partial chain, or one naming a program this
            # node cannot build, must fail the restart loudly, not hang
            # the session
            phase.end(status="failed")
            yield from send_msg(kernel, chan, fd, {
                "type": "error",
                "error": f"image chain for {msg['pod']!r} is not restorable: {err}",
            })
            return
        meta = build_pod_meta(msg["pod"], reassembled.payload["sockets"])
        self.cluster.count("agent.restore.bytes",
                           sum(img.total_bytes for img in chain))
        phase.end(chain_epochs=len(chain))
        yield from send_msg(kernel, chan, fd, {
            "type": "meta",
            "pod": msg["pod"],
            "meta": meta,
            "vip": reassembled.payload["standalone"]["vip"],
            "filters": chain[-1].filters,
        })
        # keep the session open: the restart command follows on this conn
        msg2 = yield from recv_msg(kernel, chan, fd)
        if msg2 is None or msg2.get("cmd") != "restart":
            return
        yield from self._do_restart(chan, fd, msg2, chain, reassembled)

    def _do_restart(self, chan, fd, msg, chain: List[PodImage],
                    reassembled: ReassembledImage):
        """Second half of the restart session ``_do_load_meta`` opened
        (the only entry): rebuild the pod from the chain it loaded —
        Figure 3's fixed sequence of steps sharing one :class:`_Restart`."""
        rs = _Restart(self, chan, fd, msg, chain, reassembled)
        yield from self._recover_connectivity(rs)
        yield from self._restore_network(rs)
        yield from self._restore_standalone(rs)
        yield from self._report_restarted(rs)

    def _recover_connectivity(self, rs: "_Restart"):
        """Steps 1–2: create a new (empty) pod, then recover network
        connectivity with two threads of execution."""
        engine, msg, pod_id = self.engine, rs.msg, rs.pod_id
        phase = self._phase(rs, "connectivity")
        rs.pod = pod = Pod.create(self.kernel, pod_id,
                                  msg.get("vip", rs.standalone["vip"]),
                                  self.cluster.vnet)
        yield from self.cluster.trace("agent.connectivity", node=self.node.name,
                                      pod=pod_id)
        rec_by_id = {int(r["sock_id"]): r for r in rs.records}
        listeners = msg.get("listeners", [])
        socket_map, schedule = rs.socket_map, rs.schedule
        accept_entries = [e for e in schedule if e["role"] == "accept"]
        connect_entries = [e for e in schedule if e["role"] == "connect"]
        defer_entries = [e for e in schedule if e["role"] == "defer"]
        if msg.get("recovery_mode", "two-thread") == "sequential":
            # Ablation: a single thread of execution that accepts first,
            # then connects.  On cyclic topologies every Agent sits in
            # accept while the connects that would satisfy it are queued
            # behind — the deadlock the two-thread design exists to avoid.
            yield from self._acceptor_thread(pod, listeners, accept_entries,
                                             rec_by_id, socket_map)
            yield from self._connector_thread(pod, connect_entries, defer_entries,
                                              socket_map)
        else:
            acceptor = engine.spawn(
                self._acceptor_thread(pod, listeners, accept_entries, rec_by_id, socket_map),
                name=f"restart-accept@{pod_id}")
            connector = engine.spawn(
                self._connector_thread(pod, connect_entries, defer_entries, socket_map),
                name=f"restart-connect@{pod_id}")
            yield all_of([acceptor.finished, connector.finished])
        rs.t_conn_done = engine.now
        phase.end(connections=len(schedule))

    def _restore_network(self, rs: "_Restart"):
        """Step 3: restore network state on the recovered connections."""
        kernel, pod_id = self.kernel, rs.pod_id
        records, schedule, socket_map = rs.records, rs.schedule, rs.socket_map
        phase = self._phase(rs, "netrestore")

        # non-connection sockets (datagram, unconnected TCP) are rebuilt
        # directly — no peer coordination needed
        chan2 = kernel.host_channel("restart-misc")
        orphan_ids = {int(e["sock_id"]) for e in schedule if e["role"] == "orphan"}
        for rec in records:
            sid = int(rec["sock_id"])
            if sid in socket_map:
                continue
            if rec["proto"] == "tcp" and (rec["remote"] is not None or rec["listening"]) \
                    and sid not in orphan_ids:
                continue  # handled by the threads (or a pending child)
            sfd = yield kernel.host_call(chan2, "socket", rec["proto"])
            if rec["local"] is not None:
                yield kernel.host_call(chan2, "bind", sfd, tuple(rec["local"]))
            socket_map[sid] = chan2.fds[sfd]

        inject_bytes = 0
        for rec in records:
            sid = int(rec["sock_id"])
            sock = socket_map.get(sid)
            if sock is None:
                continue
            entry = next((e for e in schedule if int(e["sock_id"]) == sid), None)
            discard = int(entry["send_discard"]) if entry else 0
            # redirected peer send-queue data, delivered directly by the
            # migrating peer's agent (``push_redirect``)
            extra = self.redirect_store.pop((pod_id, sid), b"")
            rec = dict(rec)
            rec.setdefault("send_redirected", False)
            if entry is not None and entry["role"] == "orphan":
                # peer already gone: restore the unread data and EOF, but
                # there is no connection to re-send the send queue on
                rec["send_data"] = b""
                rec["fin_sent"] = False
                restore_socket_state(kernel.netstack, sock, rec)
                sock.rd_closed = True
                continue
            restore_socket_state(kernel.netstack, sock, rec, send_discard=discard,
                                 redirect_extra=extra)
            inject_bytes += len(rec["recv_data"]) + len(rec["send_data"]) + len(extra)
            # re-queue connections that were accepted by the kernel but
            # not yet by the application
            if rec.get("pending_accept_of") is not None:
                listener = socket_map.get(int(rec["pending_accept_of"]))
                if listener is not None:
                    sock.listener = listener
                    listener.accept_q.append(sock)
        yield self.engine.sleep(RESTORE_PER_SOCKET * max(1, len(records))
                                + inject_bytes / self.node.spec.memcpy_bandwidth)
        rs.t_net_done = self.engine.now
        phase.end(inject_bytes=inject_bytes, sockets=len(records))

    def _restore_standalone(self, rs: "_Restart"):
        """Step 4: standalone restart — undo the filter chain
        (decompress / delta reassembly), then rebuild the full
        pre-filter state."""
        pod, pod_id, reassembled = rs.pod, rs.pod_id, rs.reassembled
        spec, payload = self.node.spec, rs.payload
        phase = self._phase(rs, "standalone_restore")
        rs.restore_bytes = reassembled.full_total_bytes
        pre = self.precopy_store.get(pod_id)
        if pre is not None and pre.get("rounds") and pre.get("placed") is not None:
            # live migration: the pre-copy rounds wrote the bulk of the
            # memory into place while the pod still ran at the source, so
            # the outage only re-places the stop-and-copy residual (plus
            # the non-memory payload: registers, sockets, devices)
            last = rs.chain[-1]
            mem_bytes = ((last.raw_accounted_bytes if last.filters
                          else last.accounted_bytes) or 0)
            placed = min(mem_bytes, int(pre["placed"]))
            rs.restore_bytes = rs.restore_bytes - mem_bytes + placed
        yield self.engine.sleep(spec.restart_fixed_s
                                + reassembled.decode_seconds
                                + rs.restore_bytes / spec.restore_bandwidth)
        restore_pod_standalone(
            pod, rs.standalone, rs.socket_map, payload["socket_fds"],
            time_virtualization=bool(rs.msg.get("time_virtualization", True)))
        devices = payload.get("devices", {"states": [], "fd_rows": []})
        restore_pod_devices(pod, devices["states"], devices["fd_rows"])
        activate_pod(pod)
        # the pod runs here now: any live-migration pre-copy accounting
        # served its purpose and must not leak into a later migration
        self.precopy_store.pop(pod_id, None)
        rs.t_done = self.engine.now
        phase.end(image_bytes=reassembled.full_total_bytes)

    def _report_restarted(self, rs: "_Restart"):
        """Step 5: report done."""
        reassembled = rs.reassembled
        stats = {
            "t_connectivity": rs.t_conn_done - rs.t0,
            "t_network": rs.t_net_done - rs.t0,
            "t_standalone": rs.t_done - rs.t_net_done,
            "t_local": rs.t_done - rs.t0,
            "t_unfilter": reassembled.decode_seconds,
            "image_bytes": reassembled.full_total_bytes,
            "netstate_bytes": rs.chain[-1].netstate_bytes,
            "chain_epochs": len(rs.chain),
            "sockets": len(rs.records),
        }
        if rs.restore_bytes != reassembled.full_total_bytes:
            # live-only key: how much the outage actually re-placed
            stats["restored_bytes"] = rs.restore_bytes
        yield from send_msg(self.kernel, rs.chan, rs.fd, {
            "type": "done",
            "pod": rs.pod_id,
            "status": "ok",
            "stats": stats,
        })

    def _acceptor_thread(self, pod: Pod, listeners, accept_entries, rec_by_id, socket_map):
        """Restart thread #1: accept all scheduled incoming connections."""
        kernel = self.kernel
        # recreate application listeners first (they must exist for port
        # inheritance), plus temporary listeners for orphaned accept ports
        lchan = kernel.host_channel("restart-listen")
        by_port: Dict[Tuple[str, int], Any] = {}
        temp_fds: List[int] = []
        for lrec in listeners:
            ip, port = lrec["local"]
            lfd = yield kernel.host_call(lchan, "socket", "tcp")
            yield kernel.host_call(lchan, "setsockopt", lfd, "SO_REUSEADDR", 1)
            yield kernel.host_call(lchan, "bind", lfd, (ip, int(port)))
            yield kernel.host_call(lchan, "listen", lfd, 64)
            sock = lchan.fds[lfd]
            rec = rec_by_id.get(int(lrec["sock_id"]))
            if rec is not None:
                restore_socket_state(kernel.netstack, sock, rec)
            socket_map[int(lrec["sock_id"])] = sock
            by_port[(ip, int(port))] = (lfd, sock, False)
        for entry in accept_entries:
            key = (entry["src"][0], int(entry["src"][1]))
            if key not in by_port:
                lfd = yield kernel.host_call(lchan, "socket", "tcp")
                yield kernel.host_call(lchan, "setsockopt", lfd, "SO_REUSEADDR", 1)
                yield kernel.host_call(lchan, "bind", lfd, key)
                yield kernel.host_call(lchan, "listen", lfd, 64)
                by_port[key] = (lfd, lchan.fds[lfd], True)
                temp_fds.append(lfd)

        # group expected connections by listening port; one sub-task per
        # listener keeps accepts concurrent across ports
        groups: Dict[Tuple[str, int], List[dict]] = {}
        for entry in accept_entries:
            groups.setdefault((entry["src"][0], int(entry["src"][1])), []).append(entry)

        def accept_group(lfd: int, expected: List[dict]):
            gchan = kernel.host_channel("restart-accept")
            # accept on the shared listener object through a dedicated
            # channel: move a duplicate fd reference into it (keeping fd
            # allocation clear of the injected number)
            gchan.fds[lfd] = lchan.fds[lfd]
            gchan.next_fd = max(gchan.next_fd, lfd + 1)
            want = {tuple(e["dst"]): e for e in expected}
            while want:
                result = yield kernel.host_call(gchan, "accept", lfd)
                if isinstance(result, Errno):
                    raise RestartError(f"accept failed: {result.name}")
                newfd, peer = result
                entry = want.pop(tuple(peer), None)
                if entry is None:
                    continue  # unscheduled connection: ignore
                socket_map[int(entry["sock_id"])] = gchan.fds[newfd]

        tasks = [self.engine.spawn(accept_group(lfd, group),
                                   name=f"accept-{port}")
                 for (ip, port), group in groups.items()
                 for lfd in [by_port[(ip, port)][0]]]
        if tasks:
            yield all_of([t.finished for t in tasks])
        # temporary listeners served their purpose
        for lfd in temp_fds:
            yield kernel.host_call(lchan, "close", lfd)

    def _connector_thread(self, pod: Pod, connect_entries, defer_entries, socket_map):
        """Restart thread #2: initiate all scheduled outgoing connections."""
        kernel = self.kernel
        chan = kernel.host_channel("restart-connect")
        for entry in connect_entries:
            while True:
                sfd = yield kernel.host_call(chan, "socket", "tcp")
                yield kernel.host_call(chan, "setsockopt", sfd, "SO_REUSEADDR", 1)
                # bind the original source port: endpoints must match the
                # checkpointed connection exactly
                yield kernel.host_call(chan, "bind", sfd, tuple(entry["src"]))
                rc = yield kernel.host_call(chan, "connect", sfd, tuple(entry["dst"]))
                if not isinstance(rc, Errno):
                    socket_map[int(entry["sock_id"])] = chan.fds[sfd]
                    del chan.fds[sfd]  # ownership moves to the socket map
                    break
                # the peer's listener may not be up yet: retry
                yield kernel.host_call(chan, "close", sfd)
                yield self.engine.sleep(CONNECT_RETRY)
        for entry in defer_entries:
            # a connection that was still mid-handshake at checkpoint:
            # recreate the bound socket; the process's re-issued connect
            # syscall will drive the handshake itself
            sfd = yield kernel.host_call(chan, "socket", "tcp")
            yield kernel.host_call(chan, "bind", sfd, tuple(entry["src"]))
            socket_map[int(entry["sock_id"])] = chan.fds[sfd]
            del chan.fds[sfd]


def deploy_agents(cluster: Cluster) -> Dict[str, Agent]:
    """Start one Agent per node; returns them by node name."""
    agents = {}
    for node in cluster.nodes:
        agent = Agent(cluster, node)
        agent.start()
        agents[node.name] = agent
    return agents
