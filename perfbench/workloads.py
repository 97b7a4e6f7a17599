"""The five workloads: build a world from generated inputs, run it once.

All five are closed loops with a single driver: the driver task issues
its next Manager operation only after the previous ``OpResult`` came
back.  ``build`` constructs the worlds (untimed); the callable it
returns runs them to completion and checks the outputs (timed: that is
one repetition).  Everything a repetition derives on the simulated
clock lands in ``Rep.sim`` and must repeat exactly for one seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional

MB = 1e6
SIM_HORIZON_S = 3600.0


@dataclass
class World:
    """One simulated cluster of a repetition and what was done to it."""

    cluster: Any
    manager: Any
    tracer: Any = None
    registry: Any = None
    ckpts: List[Any] = field(default_factory=list)      # checkpoint OpResults
    restarts: List[Any] = field(default_factory=list)   # restart OpResults
    campaign: Any = None                                # CampaignResult
    makespan: float = 0.0
    finish: Optional[Callable[["Tally"], None]] = None


@dataclass
class Tally:
    """Operations and checks attempted, and the ones that failed."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return bool(ok)

    def op(self, result: Any, what: str) -> bool:
        detail = "" if result.ok else f": {result.status} {result.errors[:1]}"
        return self.check(result.ok, f"{what} op {result.op_id}{detail}")


@dataclass
class Rep:
    """Outcome of one repetition."""

    sim: Dict[str, float]
    attempted: int
    failures: List[str]
    worlds: List[World]


def _observe(S: SimpleNamespace, world: World) -> None:
    world.tracer = S.SpanTracer(world.cluster.engine).install(world.cluster)
    world.registry = S.MetricsRegistry().install(world.cluster)


def _stopped_s(result: Any) -> float:
    """Longest interval any pod's processes were stopped in one op."""
    return max(stats.get("t_suspend_window", stats.get("t_local", 0.0))
               for stats in result.pods.values())


def _exit_times(S: SimpleNamespace, cluster: Any, program: str) -> Dict[str, float]:
    """pod id -> latest clean exit of a ``program`` process in that pod."""
    out: Dict[str, float] = {}
    for node in cluster.nodes:
        for proc in node.kernel.procs.values():
            if proc.program.name == program and proc.state == S.DEAD \
                    and proc.exit_code == 0:
                out[proc.pod_id] = max(out.get(proc.pod_id, 0.0), proc.exit_time)
    return out


# ---------------------------------------------------------------------------
# MPI application worlds (ckpt-mpi16, apprun-mpi16, restart-mpi16)
# ---------------------------------------------------------------------------


def _mpi_world(S: SimpleNamespace, tally: Tally, app: str, pods: int,
               scale: float, observe: bool,
               script: Optional[Callable[..., Any]]) -> World:
    spec = S.APPS[app]
    cluster = S.build_cluster(pods, seed=0)
    world = World(cluster, None)
    if observe:
        _observe(S, world)
    world.manager = S.Manager.deploy(cluster)
    handle = spec.launch_pods(cluster, pods, scale)
    if script is not None:
        cluster.engine.spawn(
            script(world, handle, spec.work_seconds(pods, scale)),
            name="perfbench-driver")

    def finish(tally: Tally) -> None:
        tally.check(handle.ok(cluster) and spec.verify(cluster, handle),
                    f"{app} finished with a verified answer")
        exits = _exit_times(S, cluster, "middleware.daemon")
        world.makespan = max(exits.values(), default=0.0)

    world.finish = finish
    return world


def _san_targets(S: SimpleNamespace, handle: Any, cluster: Any, tag: str):
    return [(node, pod, f"file:/san/{tag}-{pod}.img")
            for node, pod, _uri in S.checkpoint_targets(handle, cluster)]


def _build_ckpt(S, inp, tally, observe) -> List[World]:
    def script(world, handle, expected):
        engine = world.cluster.engine
        for gap in inp["gaps"]:
            yield engine.sleep(gap * expected)
            if handle.ok(world.cluster):
                break
            result = yield from world.manager.checkpoint_task(
                _san_targets(S, handle, world.cluster, "ck"))
            world.ckpts.append(result)
            if not tally.op(result, "checkpoint"):
                break
        tally.check(len(world.ckpts) == len(inp["gaps"]),
                    f"took {len(world.ckpts)}/{len(inp['gaps'])} checkpoints")

    return [_mpi_world(S, tally, inp["app"], inp["pods"], inp["scale"], observe,
                       script)]


def _build_apprun(S, inp, tally, observe) -> List[World]:
    return [_mpi_world(S, tally, a["app"], inp["pods"], a["scale"], observe, None)
            for a in inp["apps"]]


def _build_restart(S, inp, tally, observe) -> List[World]:
    def script_for(at_frac):
        def script(world, handle, expected):
            cluster = world.cluster
            yield cluster.engine.sleep(expected * at_frac)
            if not tally.check(not handle.ok(cluster),
                               "application still running at the checkpoint"):
                return
            targets = _san_targets(S, handle, cluster, "rs")
            ckpt = yield from world.manager.checkpoint_task(targets)
            world.ckpts.append(ckpt)
            if not tally.op(ckpt, "checkpoint"):
                return
            for _node, pod_id, _uri in targets:
                cluster.find_pod(pod_id).destroy()
            restart = yield from world.manager.restart_task(targets)
            world.restarts.append(restart)
            tally.op(restart, "restart")
        return script

    return [_mpi_world(S, tally, a["app"], inp["pods"], inp["scale"], observe,
                       script_for(a["at_frac"]))
            for a in inp["apps"]]


# ---------------------------------------------------------------------------
# gens-chain
# ---------------------------------------------------------------------------

#: ~10 ms compute slices, so the writers have frequent preemption points
#: (the slice the harness' own generational studies use).
WRITER_CHUNK_CYCLES = 30_000_000


def _same_chain(loaded: List[Any], truth: List[Any]) -> bool:
    return len(loaded) == len(truth) and all(
        a.data == b.data and a.accounted_bytes == b.accounted_bytes
        and a.netstate_bytes == b.netstate_bytes and a.epoch == b.epoch
        and a.filters == b.filters for a, b in zip(loaded, truth))


def _build_gens(S, inp, tally, observe) -> List[World]:
    n_pods, gens, interval = inp["pods"], inp["generations"], inp["interval"]
    cluster = S.build_cluster(n_pods, seed=0)
    world = World(cluster, None)
    if observe:
        _observe(S, world)
    world.manager = manager = S.Manager.deploy(cluster)
    # long enough that every writer is still mid-run when it is killed
    work_s = gens * (interval + 0.25) + 1.0
    chunks = max(1, int(work_s * S.DEFAULT_HZ) // WRITER_CHUNK_CYCLES)
    targets = []
    for i in range(n_pods):
        node = cluster.nodes[i % len(cluster.nodes)]
        pod_id = f"gw{i:02d}"
        cluster.create_pod(node, pod_id)
        node.kernel.spawn(
            S.build_program("harness.writer", ballast=inp["ballast"][i],
                            dirty_rate=inp["dirty_rate"][i],
                            chunk_cycles=WRITER_CHUNK_CYCLES, chunks=chunks),
            pod_id=pod_id)
        targets.append((node.name, pod_id, f"cas:/san/gens-{pod_id}.img"))
    killed_at = 0.0

    def audit_restore() -> None:
        """The chain the store would restore from must be, byte for
        byte, what each Agent committed, and rebuild the full image."""
        for node_name, pod_id, uri in targets:
            agent = manager.agents[node_name]
            vfs = cluster.node_by_name(node_name).kernel.vfs
            loaded = S.CasSink(cluster.san, vfs, uri[len("cas:"):]).load(pod_id)
            ok = _same_chain(loaded, agent.mem_sink.load(pod_id))
            base = agent.pipeline_state.bases.get(pod_id)
            ok = ok and base is not None and \
                S.ImagePipeline.reassemble(list(loaded)).raw == base
            tally.check(ok, f"{pod_id} restores byte-identical from its chain")

    def script():
        nonlocal killed_at
        for _gen in range(gens):
            yield cluster.engine.sleep(interval)
            result = yield from manager.checkpoint_task(
                targets, filters=[{"name": "delta"}], async_ckpt=True)
            world.ckpts.append(result)
            if not tally.op(result, "checkpoint"):
                return
        audit_restore()
        for _node, pod_id, _uri in targets:
            cluster.find_pod(pod_id).destroy()
        killed_at = cluster.engine.now
        restart = yield from manager.restart_task(targets)
        world.restarts.append(restart)
        tally.op(restart, "restart")

    cluster.engine.spawn(script(), name="perfbench-driver")

    def finish(tally: Tally) -> None:
        exits = _exit_times(S, cluster, "harness.writer")
        done = [p for _n, p, _u in targets
                if exits.get(p, 0.0) > killed_at > 0.0]
        tally.check(len(done) == n_pods,
                    f"{len(done)}/{n_pods} writers finished after the restart")
        problems = S.CasStore.on(cluster.san).audit()
        tally.check(not problems, f"CAS audit clean {problems[:2]}")
        world.makespan = max(exits.values(), default=0.0)

    world.finish = finish
    return [world]


# ---------------------------------------------------------------------------
# fleet-evac
# ---------------------------------------------------------------------------


def _build_fleet(S, inp, tally, observe) -> List[World]:
    cluster, manager, pods = S.build_fleet_world(inp["n_nodes"], inp["n_pods"])
    world = World(cluster, manager)
    if observe:
        _observe(S, world)
    evacuated = set(inp["evacuate"])

    def script():
        world.campaign = yield from S.evacuate_task(
            manager, inp["evacuate"],
            policy=S.FleetPolicy(max_inflight=inp["max_inflight"]),
            timeouts=S.FLEET_TIMEOUTS)

    cluster.engine.spawn(script(), name="perfbench-driver")

    def finish(tally: Tally) -> None:
        result = world.campaign
        if not tally.check(result is not None and result.ok,
                           "evacuation campaign returned ok"):
            return
        for outcome in result.pods.values():
            tally.check(outcome.status == "ok",
                        f"move of {outcome.pod}: {outcome.status} {outcome.error}")
        stranded = [pod for _node, pod in pods
                    if cluster.node_of_pod(pod).name in evacuated]
        tally.check(not stranded, f"pods left on evacuated blades: {stranded[:4]}")
        world.makespan = result.duration

    world.finish = finish
    return [world]


_BUILDERS = {
    "ckpt-mpi16": _build_ckpt,
    "apprun-mpi16": _build_apprun,
    "restart-mpi16": _build_restart,
    "gens-chain": _build_gens,
    "fleet-evac": _build_fleet,
}


# ---------------------------------------------------------------------------
# one repetition
# ---------------------------------------------------------------------------


def _sim_outputs(S: SimpleNamespace, worlds: List[World]) -> Dict[str, float]:
    """What the repetition produced on the simulated clock (plus exact
    counts).  A key is present only where the workload has the thing."""
    sim: Dict[str, float] = {
        "sim_makespan_s": sum(w.makespan for w in worlds),
        "sim.events": float(sum(w.cluster.engine.events_executed for w in worlds)),
    }
    ckpts = [r for w in worlds for r in w.ckpts]
    restarts = [r for w in worlds for r in w.restarts]
    records = [rec for w in worlds for rec in w.manager.ledger.records()]
    logs = [w.manager.ledger.fs.files.get(w.manager.ledger.path) for w in worlds]
    ledger_bytes = sum(len(log.data) for log in logs if log is not None)
    sim["ledger.records"] = float(len(records))
    sim["ledger.bytes"] = float(ledger_bytes)
    if ckpts:
        sim["sim_ckpt_ms"] = mean(r.duration for r in ckpts) * 1e3
        sim["sim_downtime_ms"] = mean(_stopped_s(r) for r in ckpts) * 1e3
        sim["image.netstate_kb"] = mean(
            r.max_stat("netstate_bytes") for r in ckpts) / 1024
        for stat in ("serialize", "filter", "write", "network"):
            sim[f"simck.{stat}_ms"] = mean(
                r.max_stat(f"t_{stat}") for r in ckpts) * 1e3
        sim["sim_logical_mb"] = sum(
            int(s.get("raw_image_bytes", 0))
            for r in ckpts for s in r.pods.values()) / MB
        sim["sim_stored_mb"] = sum(
            int(s.get("image_bytes", 0))
            for r in ckpts for s in r.pods.values()) / MB
    if restarts:
        sim["sim_restart_ms"] = mean(r.duration for r in restarts) * 1e3
    cas = [S.CasStore.on(w.cluster.san).stats() for w in worlds]
    if any(s["logical_bytes"] for s in cas):
        stored = sum(s["stored_bytes"] for s in cas)
        logical = sum(s["logical_bytes"] for s in cas)
        sim["sim_stored_mb"] = stored / MB      # post-dedup: what hit the SAN
        sim["cas.logical_mb"] = logical / MB
        sim["cas.stored_mb"] = stored / MB
        sim["cas.dedup_ratio"] = logical / stored if stored else 0.0
        sim["cas.live_chunks"] = float(sum(s["live_chunks"] for s in cas))
        sim["cas.dup_hits"] = float(sum(s["dup_hits"] for s in cas))
        sim["cas.gc_reclaimed_mb"] = sum(s["gc_reclaimed_bytes"] for s in cas) / MB
    for w in worlds:
        if w.campaign is None:
            continue
        result = w.campaign
        waves = sorted(ws.t_end - ws.t_start for ws in result.waves)
        sim["sim_downtime_ms"] = result.downtime_percentile(99) * 1e3
        # the migration streams node to node: the ledger is all the SAN sees
        sim["sim_stored_mb"] = ledger_bytes / MB
        sim["simfl.waves"] = float(len(result.waves))
        sim["simfl.wave_p50_ms"] = waves[len(waves) // 2] * 1e3 if waves else 0.0
        sim["simfl.peak_inflight"] = float(result.peak_inflight)
        sim["simfl.ledger_appends"] = float(sum(
            1 for rec in records if rec.get("rec") == "campaign"))
    return sim


def build(S: SimpleNamespace, workload: str, inp: Dict[str, Any],
          observe: bool = False) -> Callable[[], Rep]:
    """Construct the worlds of one repetition; the returned callable
    runs them and checks the results.  ``observe`` installs ``repro``'s
    own SpanTracer and MetricsRegistry (the traced run)."""
    tally = Tally()
    worlds = _BUILDERS[workload](S, inp, tally, observe)

    def run() -> Rep:
        for world in worlds:
            world.cluster.engine.run(until=SIM_HORIZON_S)
            world.finish(tally)
        return Rep(_sim_outputs(S, worlds), tally.attempted,
                   list(tally.failures), worlds)

    return run
