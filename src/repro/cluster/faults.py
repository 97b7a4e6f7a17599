"""Deterministic fault injection.

The motivating use cases of the paper — "fault resilience by migrating
applications off of faulty cluster nodes, fault recovery by restarting
from the last checkpoint" — need faults to recover from.  This module
provides two layers:

* primitive faults (:func:`crash_node`, :func:`isolate_node`,
  :func:`heal_node`) that tests drive by hand, and
* a scriptable, *seeded* injection subsystem: a :class:`FaultPlan` is a
  list of :class:`FaultSpec` entries, each naming a protocol phase
  boundary (the Manager/Agent trace points), a target, and a fault kind;
  a :class:`FaultInjector` installed on the cluster fires them as the
  protocol crosses those boundaries and records an event trace.  The
  same seed always produces the same plan, and the same plan always
  produces the same trace — which is what makes chaos failures
  reproducible (re-run the seed, replay the schedule).

Fault kinds:

``crash_node``
    Fail-stop crash of a blade at the phase boundary (scheduled as its
    own engine event so it is safe to trigger from a task on the dying
    node itself).
``link_drop``
    Partition the target node (from everything, or from ``peer``) for
    ``seconds``; healing is scheduled automatically.
``link_delay``
    Add ``seconds`` of one-way latency on the target node's links (or on
    every link when no node is named) for ``duration`` seconds.
``san_stall``
    Queue ``seconds`` of write stall on the SAN; the next flush pays it.
``truncate_image``
    Direct the Agent flushing at this boundary to cut its container
    write short at ``fraction`` of the bytes — a partial image.
``hang``
    Suspend the task crossing the boundary for ``seconds`` — an Agent
    stuck in a pipeline stage, which the Manager's per-phase timeouts
    must survive.
``crash_manager``
    Fail-stop crash of the *Manager* at the phase boundary (scheduled
    as its own engine event, like ``crash_node``).  Not part of
    :data:`FAULT_KINDS` — the random-draw domain is frozen so existing
    seeded plans replay identically — it is used by explicit failover
    plans (the ``failover`` scenario of :mod:`repro.cluster.chaos`), which
    fire it at the :data:`MANAGER_PHASES` ledger crossings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from ..errors import NoSuchProcessError
from ..vos.signals import SIGKILL
from .builder import Cluster
from .node import Node


# ---------------------------------------------------------------------------
# primitive faults
# ---------------------------------------------------------------------------


def crash_node(cluster: Cluster, node: Node) -> None:
    """Fail-stop crash: every process dies and the node goes dark.

    Pods hosted on the node are lost (that is the point — recovery comes
    from restarting their last checkpoint elsewhere).  Fail-stop means
    *nothing* on the node keeps running: the NIC stops answering, the
    blade is partitioned from every peer, and the node's Agent daemon
    and session tasks are cancelled.
    """
    node.crashed = True
    for other in cluster.nodes:
        if other is not node:
            cluster.fabric.partition(node.ip, other.ip)
    for pid in list(node.kernel.procs):
        try:
            node.kernel.send_signal(pid, SIGKILL)
        except NoSuchProcessError:
            pass
    for pod in list(node.kernel.pods.values()):
        pod.destroy()
    node.stack.nic.ingress = None  # the NIC goes dark
    # host tasks running *on* the node (the Agent daemon and its
    # sessions are named "...@<node>") die with it
    suffix = f"@{node.name}"
    for task in cluster.engine.live_tasks():
        if task.name.endswith(suffix):
            task.cancel()


def isolate_node(cluster: Cluster, node: Node) -> None:
    """Network-partition ``node`` from every other blade (node stays up)."""
    for other in cluster.nodes:
        if other is not node:
            cluster.fabric.partition(node.ip, other.ip)


def heal_node(cluster: Cluster, node: Node) -> None:
    """Undo :func:`isolate_node`."""
    for other in cluster.nodes:
        if other is not node:
            cluster.fabric.heal(node.ip, other.ip)


# ---------------------------------------------------------------------------
# scriptable injection
# ---------------------------------------------------------------------------

#: fault kinds the injector understands.
FAULT_KINDS = ("crash_node", "link_drop", "link_delay", "san_stall",
               "truncate_image", "hang")

#: protocol phase boundaries (trace points) that carry a node and can
#: host a fault.  The Manager and Agent announce these through
#: :meth:`repro.cluster.builder.Cluster.trace`.
CHECKPOINT_PHASES = (
    "manager.connect",
    "manager.meta_recv",
    "manager.continue_sent",
    "manager.done_recv",
    "agent.suspend",
    "agent.netstate",
    "agent.meta_sent",
    "agent.standalone",
    "agent.continue_recv",
    "agent.flush",
)
RESTART_PHASES = (
    "manager.load_meta",
    "manager.restart_sent",
    "agent.load_meta",
    "agent.connectivity",
)
#: live-migration pre-copy boundaries (kept separate from
#: CHECKPOINT_PHASES so existing seeded plans draw identically).
PRECOPY_PHASES = (
    "manager.precopy_round",
    "agent.precopy",
)
#: the Manager's durable phase boundaries: each is crossed immediately
#: after the matching op-ledger record became durable, so a Manager
#: crash here is exactly "the record survived, the action after it did
#: not" — the crash points a takeover replica must recover from.
#: (Kept separate from CHECKPOINT_PHASES for the same replay reason.)
MANAGER_PHASES = (
    "manager.ledger.begin",
    "manager.ledger.meta",
    "manager.ledger.continue",
    "manager.ledger.done",
    "manager.ledger.flush",
    "manager.ledger.abort",
    "manager.ledger.commit",
)
#: fleet campaign boundaries (wave loop and per-unit launch/finish, plus
#: the replica's campaign-resume crossing).  Kept separate from every
#: other tuple so existing seeded plans draw identically.
FLEET_PHASES = (
    "fleet.wave_start",
    "fleet.pod_start",
    "fleet.pod_done",
    "fleet.wave_done",
    "fleet.resume",
)
#: zero-stall (asynchronous) checkpoint boundaries: end of the capture
#: window, start of the post-resume encode, start of the overlapped
#: write-out.  Kept separate from every other tuple so existing seeded
#: plans draw identically.
ASYNC_CKPT_PHASES = (
    "agent.async_capture",
    "agent.async_encode",
    "agent.async_stream",
)
#: content-addressed store boundaries: start of the chunk upload, the
#: commit point between upload and recipe publish, and the op-keyed GC
#: rollback.  Kept separate from every other tuple so existing seeded
#: plans draw identically.
CAS_PHASES = (
    "cas.write",
    "cas.commit",
    "cas.gc",
)
ALL_PHASES = (CHECKPOINT_PHASES + RESTART_PHASES + PRECOPY_PHASES
              + MANAGER_PHASES + FLEET_PHASES + ASYNC_CKPT_PHASES
              + CAS_PHASES)


@dataclass
class FaultSpec:
    """One scheduled fault: *kind* fires at *phase* on a matching target.

    ``after`` skips that many matching occurrences first (fire on the
    ``after+1``-th crossing); ``once`` retires the spec after it fires.
    ``node``/``pod`` of ``None`` match any.  ``seconds`` is the fault
    magnitude (stall/hang/delay length, drop duration), ``duration`` the
    time a link_delay stays installed, ``fraction`` the truncation point
    of a partial image write, ``peer`` the far end of a link fault.
    """

    kind: str
    phase: str
    node: Optional[str] = None
    pod: Optional[str] = None
    peer: Optional[str] = None
    after: int = 0
    seconds: float = 0.0
    duration: float = 0.0
    fraction: float = 0.5
    once: bool = True


@dataclass
class FaultPlan:
    """A reproducible fault schedule: specs plus the seed that made it."""

    seed: int = 0
    faults: List[FaultSpec] = field(default_factory=list)

    @classmethod
    def random(cls, seed: int, node_names: List[str],
               n_faults: Optional[int] = None,
               phases: Tuple[str, ...] = CHECKPOINT_PHASES,
               kinds: Tuple[str, ...] = FAULT_KINDS) -> "FaultPlan":
        """Draw a seeded random schedule.  Same seed → same plan."""
        rng = random.Random(seed)
        count = n_faults if n_faults is not None else rng.randint(1, 4)
        faults: List[FaultSpec] = []
        for _ in range(count):
            kind = rng.choice(kinds)
            # a truncated write can only happen where writes happen: the
            # flush boundary, or the CAS chunk upload when the plan's
            # phase domain includes it (existing domains draw unchanged)
            if kind == "truncate_image":
                phase = "cas.write" if "cas.write" in phases else "agent.flush"
            else:
                phase = rng.choice(phases)
            spec = FaultSpec(
                kind=kind,
                phase=phase,
                node=rng.choice(node_names + [None]),
                after=rng.randint(0, 2),
                seconds=round(rng.uniform(0.2, 6.0), 3),
                duration=round(rng.uniform(0.5, 4.0), 3),
                fraction=round(rng.uniform(0.05, 0.95), 3),
            )
            faults.append(spec)
        return cls(seed=seed, faults=faults)

    def describe(self) -> List[Dict[str, Any]]:
        return [vars(replace(spec)) for spec in self.faults]


class _Armed:
    """Runtime state of one spec: occurrence counter + retired flag."""

    __slots__ = ("spec", "count", "spent")

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self.count = 0
        self.spent = False


class FaultInjector:
    """Fires a :class:`FaultPlan` at protocol phase boundaries.

    Install with :meth:`install`; the Manager and Agents announce phase
    crossings via ``yield from cluster.trace(phase, node=..., pod=...)``,
    which lands in :meth:`on_phase`.  Every crossing — whether or not a
    fault fires — is appended to :attr:`trace` as ``(time, phase, node,
    pod, fired_kinds)``, so two runs of the same seed can be compared
    event for event.
    """

    def __init__(self, cluster: Cluster, plan: Optional[FaultPlan] = None) -> None:
        self.cluster = cluster
        self.plan = plan if plan is not None else FaultPlan()
        self.enabled = True
        #: every phase crossing, in order.
        self.trace: List[Tuple[float, str, Optional[str], Optional[str],
                               Tuple[str, ...]]] = []
        #: every fault that actually fired: (time, kind, phase, node, pod).
        self.fired: List[Tuple[float, str, str, Optional[str], Optional[str]]] = []
        self._armed = [_Armed(spec) for spec in self.plan.faults]

    def install(self) -> "FaultInjector":
        """Attach to the cluster so trace points reach this injector."""
        self.cluster.injector = self
        return self

    # ------------------------------------------------------------------
    def on_phase(self, phase: str, node: Optional[str] = None,
                 pod: Optional[str] = None):
        """Generator the protocol yields through at each trace point.

        Applies matching faults; a hang is charged *to the calling task*
        by yielding a sleep, so the stall lands exactly where the plan
        says.  Returns a directives dict the caller may consult (the
        ``truncate`` directive for partial image writes).
        """
        engine = self.cluster.engine
        directives: Dict[str, Any] = {}
        fired: List[str] = []
        sleep_s = 0.0
        if self.enabled:
            for arm in self._armed:
                spec = arm.spec
                if arm.spent or spec.phase != phase:
                    continue
                if spec.node is not None and spec.node != node:
                    continue
                if spec.pod is not None and spec.pod != pod:
                    continue
                arm.count += 1
                if arm.count <= spec.after:
                    continue
                if spec.once:
                    arm.spent = True
                fired.append(spec.kind)
                self.fired.append((engine.now, spec.kind, phase, node, pod))
                sleep_s += self._apply(spec, node, directives)
        self.trace.append((round(engine.now, 9), phase, node, pod, tuple(fired)))
        # with an injector installed, Cluster.trace leaves the crossing
        # mark to us so each fired fault rides on its instant
        if self.cluster.tracer is not None:
            self.cluster.tracer.instant(phase, node=node, pod=pod)
            for kind in fired:
                self.cluster.tracer.instant(f"fault.{kind}", node=node,
                                            pod=pod, category="fault",
                                            at=phase)
        if fired:
            self.cluster.count("faults.activated", len(fired))
        if sleep_s > 0.0:
            yield engine.sleep(sleep_s)
        return directives

    # ------------------------------------------------------------------
    def _apply(self, spec: FaultSpec, event_node: Optional[str],
               directives: Dict[str, Any]) -> float:
        """Apply one fault; returns seconds to stall the calling task."""
        cluster = self.cluster
        engine = cluster.engine
        target_name = spec.node if spec.node is not None else event_node
        target = (cluster.node_by_name(target_name)
                  if target_name is not None else None)
        if spec.kind == "crash_node":
            if target is not None and not target.crashed:
                # scheduled as its own event: a task on the dying node may
                # be the one crossing this boundary, and a generator
                # cannot be closed while it is executing
                engine.schedule(0.0, crash_node, cluster, target)
        elif spec.kind == "crash_manager":
            mgr = getattr(cluster, "manager", None)
            if mgr is not None and not mgr.crashed:
                # same scheduling rule: the crossing task is usually one
                # of the Manager's own op tasks
                engine.schedule(0.0, mgr.crash)
        elif spec.kind == "link_drop":
            if target is not None:
                peers = ([cluster.node_by_name(spec.peer)]
                         if spec.peer else
                         [n for n in cluster.nodes if n is not target])
                for peer in peers:
                    cluster.fabric.partition(target.ip, peer.ip)
                    engine.schedule(max(spec.seconds, 1e-6),
                                    cluster.fabric.heal, target.ip, peer.ip)
        elif spec.kind == "link_delay":
            if target is None:
                cluster.fabric.global_extra_latency += spec.seconds
                if spec.duration > 0.0:
                    engine.schedule(spec.duration, self._clear_global_delay,
                                    spec.seconds)
            else:
                peers = ([cluster.node_by_name(spec.peer)]
                         if spec.peer else
                         [n for n in cluster.nodes if n is not target])
                for peer in peers:
                    cluster.fabric.delay_link(target.ip, peer.ip, spec.seconds)
                    if spec.duration > 0.0:
                        engine.schedule(spec.duration,
                                        cluster.fabric.clear_link_delay,
                                        target.ip, peer.ip)
        elif spec.kind == "san_stall":
            cluster.san.inject_stall(spec.seconds)
        elif spec.kind == "truncate_image":
            directives["truncate"] = spec.fraction
        elif spec.kind == "hang":
            return spec.seconds
        return 0.0

    def _clear_global_delay(self, extra: float) -> None:
        self.cluster.fabric.global_extra_latency = max(
            0.0, self.cluster.fabric.global_extra_latency - extra)
