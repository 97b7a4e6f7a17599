"""The shared fleet world: idle pods, the evacuation and CAS demos.

Fleet tests, benchmarks, ``zapc fleet`` and ``figures --fig fleet`` all
drive the same world: a cluster of blades populated with *idle* pods —
a server parked in ``accept()`` with a heap ballast sized per pod.  An
idle pod costs zero events while undisturbed, which is what makes the
100-node / 1000-pod evacuation simulate in seconds; its ballast still
has to move, so migrations pay real transfer time and the per-pod
downtime distribution is non-trivial.  Both demos take their runbook
knobs as one :class:`~repro.fleet.campaign.FleetPolicy`.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple

from ..cluster.builder import Cluster
from ..cluster.faults import FLEET_PHASES, FaultInjector, FaultPlan
from ..core.manager import Manager, PhaseTimeouts
from .campaign import FleetPolicy
from .drain import evacuate_task

#: fault kinds safe for the *deterministic-completion* fleet demos
#: (stalls and latency, no crashes: every pod must arrive).
SOFT_FAULT_KINDS = ("hang", "link_delay")


def _register_idle_program() -> None:
    from ..vos import imm, program
    from ..vos.program import _REGISTRY

    if "fleet.idle" in _REGISTRY:
        return

    @program("fleet.idle")
    def _idle(b, *, port=9900, ballast=0):  # noqa: ANN001 - builder DSL
        if ballast:
            b.alloc(imm(ballast), "heap")
        b.syscall("lfd", "socket", imm("tcp"))
        b.syscall(None, "bind", "lfd", imm(("default", port)))
        b.syscall(None, "listen", "lfd", imm(8))
        b.syscall("conn", "accept", "lfd")
        b.halt(imm(0))


def build_fleet_world(n_nodes: int, n_pods: int, seed: int = 0,
                      first_node: int = 1, last_node: Optional[int] = None,
                      ballast: int = 262_144, ballast_step: int = 65_536,
                      port: int = 9900,
                      ) -> Tuple[Cluster, Manager, List[Tuple[str, str]]]:
    """A cluster with ``n_pods`` idle pods round-robined over the blades
    ``first_node..last_node`` (inclusive; default: every blade but 0,
    where the Manager lives).  Pod ``i`` carries a ballast of
    ``ballast + (i % 7) * ballast_step`` bytes, so image sizes — and
    per-pod downtimes — spread deterministically.

    Returns ``(cluster, manager, [(node, pod), ...])``.
    """
    from ..vos import build_program
    _register_idle_program()
    cluster = Cluster.build(n_nodes, seed=seed)
    manager = Manager.deploy(cluster)
    last = (n_nodes - 1) if last_node is None else last_node
    hosts = [cluster.node(i) for i in range(first_node, last + 1)]
    pods: List[Tuple[str, str]] = []
    for i in range(n_pods):
        node = hosts[i % len(hosts)]
        pod_id = f"fp{i:04d}"
        cluster.create_pod(node, pod_id)
        size = ballast + (i % 7) * ballast_step
        node.kernel.spawn(build_program("fleet.idle", port=port,
                                        ballast=size), pod_id=pod_id)
        pods.append((node.name, pod_id))
    return cluster, manager, pods


#: tight per-phase deadlines for the fleet world (idle pods suspend
#: instantly; generous defaults would only slow fault detection).
FLEET_TIMEOUTS = PhaseTimeouts(connect=2.0, meta=5.0, barrier=5.0, done=8.0,
                               flush=20.0, load=5.0, restart_done=15.0,
                               drain=2.0)


def run_cas_fleet_demo(n_nodes: int = 8, n_pods: int = 32, seed: int = 0,
                       policy: Optional[FleetPolicy] = None,
                       until: float = 14400.0) -> Dict[str, Any]:
    """Fleet-scale content-addressed checkpointing: snapshot every idle
    pod of the evacuation world into the CAS, then re-run the identical
    world against the plain file sink and compare SAN footprints.  Both
    campaigns run ``policy`` (None = :class:`FleetPolicy`'s defaults)
    with its ``cas`` switched on and off respectively.

    The idle pods run the same program image and their ballasts repeat
    every seven pods, so most of what each pod would write is bytes some
    other pod already stored — the chunk index stores them once
    fleet-wide.  Besides the footprint comparison the demo audits
    restores: every pod's chain loaded back from the store must be
    byte-identical to its Agent's in-memory ground truth.

    Returns ``{"n_pods", "logical_bytes", "stored_bytes",
    "cross_pod_dup_bytes", "dedup_ratio", "san_file_bytes",
    "restore_ok", "result"}``.
    """
    from ..core.sinks import resolve_sink, restores_committed
    from ..storage.cas import CasStore
    from .drain import checkpoint_fleet_task

    def _campaign(prefix: str, policy: FleetPolicy):
        cluster, manager, pods = build_fleet_world(n_nodes, n_pods, seed=seed)
        task = cluster.engine.spawn(checkpoint_fleet_task(
            manager, prefix, policy=policy, timeouts=FLEET_TIMEOUTS),
            name="cas-fleet-demo")
        cluster.engine.run(until=until)
        # a campaign that missed the horizon has no result
        return cluster, manager, pods, task.finished.result if task.done else None

    policy = policy if policy is not None else FleetPolicy()
    cluster, manager, pods, result = _campaign(
        "cas:/san/fleet", dataclasses.replace(policy, cas=True))
    store = CasStore.on(cluster.san)
    restore_ok = result is not None and result.ok
    for node_name, pod_id in pods:
        agent = manager.agents.get(node_name)
        recipe = next((r for path, r in store.recipes.items()
                       if r.get("pod") == pod_id), None)
        if agent is None or recipe is None:
            restore_ok = False
            continue
        restore_ok = restore_ok and restores_committed(
            resolve_sink(f"cas:{recipe['path']}", cluster, agent.kernel.vfs),
            agent, pod_id)
    restore_ok = restore_ok and not store.audit()
    # cross-pod dedup: bytes some *other* pod's published recipe already
    # pinned (payload chunks and shared accounted blocks alike) — each
    # extra referencing pod counts the chunk once.
    owners: Dict[str, set] = {}
    for path, recipe in store.recipes.items():
        for entry in recipe["entries"]:
            for cid in list(entry["payload"]) + list(entry["acct"]):
                owners.setdefault(cid, set()).add(path)
    cross = sum(store.objects[cid].size * (len(paths) - 1)
                for cid, paths in owners.items()
                if len(paths) > 1 and cid in store.objects)
    # baseline: the identical world through the plain file sink — the
    # SAN keeps every pod's full container side by side, so its modeled
    # footprint is the sum of the full image sizes.
    base_cluster, base_mgr, base_pods, base_result = _campaign(
        "file:/san/fleet", dataclasses.replace(policy, cas=False))
    san_file_bytes = 0
    for node_name, pod_id in base_pods:
        agent = base_mgr.agents.get(node_name)
        chain = agent.mem_sink.load(pod_id) if agent is not None else None
        san_file_bytes += sum(img.total_bytes for img in chain or [])
    if base_result is None or not base_result.ok:
        restore_ok = False
    return {"n_pods": len(pods),
            "logical_bytes": store.logical_bytes,
            "stored_bytes": store.stored_bytes,
            "cross_pod_dup_bytes": cross,
            "dedup_ratio": store.dedup_ratio,
            "san_file_bytes": san_file_bytes,
            "restore_ok": restore_ok,
            "result": result}


def run_evacuation_demo(n_nodes: int = 24, n_pods: int = 96, n_evacuate: int = 18,
                        seed: int = 0, policy: Optional[FleetPolicy] = None,
                        n_faults: int = 0, trace_spans: bool = False,
                        metrics: bool = False, series_window_s: Optional[float] = None,
                        until: float = 14400.0) -> Dict[str, Any]:
    """One deterministic evacuation: populate blades ``1..n_evacuate``,
    then evacuate them all onto the spares (and blade 0) under
    ``policy`` (None = :class:`FleetPolicy`'s defaults).

    ``n_faults`` > 0 injects that many seeded soft faults (hangs, link
    delays — never crashes, so completion stays deterministic) at the
    ``fleet.*`` phase boundaries.  ``metrics`` installs a registry with
    a windowed series bank (window ``series_window_s``), so the run
    streams ``fleet.*`` timeseries usable by the timeline figure and the
    SLO auditor.  Returns a dict with the ``CampaignResult``
    (``"result"``), the world, the injector, and the instruments.
    """
    cluster, manager, pods = build_fleet_world(
        n_nodes, n_pods, seed=seed, first_node=1, last_node=n_evacuate)
    tracer = None
    if trace_spans:
        from ..obs import SpanTracer
        tracer = SpanTracer(cluster.engine).install(cluster)
    registry = None
    if metrics:
        from ..obs import MetricsRegistry
        registry = MetricsRegistry().install(cluster)
        registry.enable_series(cluster.engine, window_s=series_window_s)
    injector = None
    if n_faults > 0:
        plan = FaultPlan.random(seed, [n.name for n in cluster.nodes],
                                n_faults=n_faults, phases=FLEET_PHASES,
                                kinds=SOFT_FAULT_KINDS)
        injector = FaultInjector(cluster, plan).install()
    evac = [f"blade{i}" for i in range(1, n_evacuate + 1)]
    task = cluster.engine.spawn(evacuate_task(
        manager, evac, policy=policy, timeouts=FLEET_TIMEOUTS), name="fleet-demo")
    cluster.engine.run(until=until)
    return {"cluster": cluster, "manager": manager, "pods": pods,
            "evacuated": evac,
            "result": task.finished.result if task.done else None,
            "injector": injector, "tracer": tracer, "metrics": registry}
