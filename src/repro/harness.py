"""Experiment harness: one function per paper figure.

Regenerates the evaluation of Section 6 on the simulated testbed:

* :func:`run_fig5_cell` — completion time of one (app, nodes, system)
  cell of Figure 5 (``system`` ∈ {"base", "zapc"});
* :func:`run_fig6_cell` — checkpoint metrics of Figure 6(a)/6(c): evenly
  spaced snapshots during a run, with per-checkpoint network share and
  largest-pod image sizes;
* :func:`run_fig6b_cell` — Figure 6(b): restart time from an image taken
  mid-execution (checkpoint → destroy → restart on the same blades, as
  the paper did with its limited node count);

plus the node-layout logic of the testbed (≤8 uniprocessor blades; the
16-"node" configuration is 8 dual-CPU blades with one pod per CPU).

``scale`` multiplies the *simulated* cycle costs only — problem sizes,
message sizes and memory footprints stay at paper scale, so image sizes
and network-state sizes are unaffected; only run duration shrinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from .apps import btnas, cpi, petsc_bratu, povray
from .baselines.vanilla import launch_master_worker_vanilla, launch_spmd_vanilla
from .cluster.builder import Cluster
from .core.manager import Manager, OpResult
from .core.sinks import resolve_sink, restores_committed
from .core.streaming import DEFAULT_DIRTY_THRESHOLD, migrate_task
from .metrics import CasCell, Fig5Cell, Fig6Cell, IncCell, MigrationCell
from .middleware.daemon import checkpoint_targets, launch_master_worker, launch_spmd
from .obs.tracer import PHASE, SpanTracer
from .vos import build_program, imm, program
from .vos.kernel import DEFAULT_HZ
from .vos.process import DEAD


# ---------------------------------------------------------------------------
# application specifications
# ---------------------------------------------------------------------------


@dataclass
class AppSpec:
    """Everything the harness needs to run one evaluation application."""

    name: str
    kind: str  # "spmd" | "master-worker"
    node_counts: Tuple[int, ...]
    launch_pods: Callable[[Cluster, int, float], Any]
    launch_vanilla: Callable[[Cluster, int, float], Any]
    work_seconds: Callable[[int, float], float]
    verify: Callable[[Cluster, Any], bool]


def _cpi_params(scale):
    return dict(intervals=1_000_000, cycles_per_interval=max(1, int(60_000 * scale)))


def _bt_params(scale):
    return dict(grid=48, iters=30, cycles_per_point=max(1, int(400_000 * scale)),
                face_pad=32_768)


def _bratu_params(scale):
    return dict(grid=48, outer=8, sweeps=12, cycles_per_point=max(1, int(120_000 * scale)))


def _pov_geometry():
    return dict(width=256, height=192, tile=64)


def _verify_cpi(cluster, handle) -> bool:
    vals = [v for v in handle.results(cluster, "pi") if v is not None]
    return len(vals) == 1 and abs(vals[0] - math.pi) < 1e-8


def _verify_bt(scale):
    def check(cluster, handle) -> bool:
        ref, _ = btnas.reference_btnas(G=48, iters=30)
        vals = [v for v in handle.results(cluster, "checksum") if v is not None]
        return len(vals) == 1 and abs(vals[0] - ref) < 1e-6 * max(1.0, abs(ref))
    return check


def _verify_bratu(scale):
    def check(cluster, handle) -> bool:
        ref, _ = petsc_bratu.reference_bratu(G=48, outer=8, sweeps=12)
        vals = [v for v in handle.results(cluster, "checksum") if v is not None]
        return len(vals) == 1 and abs(vals[0] - ref) < 1e-6 * max(1.0, abs(ref))
    return check


def _verify_pov(cluster, handle) -> bool:
    ref = povray.reference_image(**_pov_geometry())
    for node in cluster.nodes:
        for proc in node.kernel.procs.values():
            if proc.program.name == "apps.povray_master" and proc.state == DEAD \
                    and proc.exit_code == 0:
                return proc.regs["image"] == ref
    return False


def _make_specs() -> Dict[str, AppSpec]:
    def cpi_pods(cluster, n, scale):
        return launch_spmd(
            cluster, "apps.cpi", n,
            lambda rank, vips: cpi.params_of(rank, vips, nprocs=n, **_cpi_params(scale)),
            name="cpi", nodes=placement(n))

    def cpi_van(cluster, n, scale):
        return launch_spmd_vanilla(
            cluster, "apps.cpi", n,
            lambda rank, ips: cpi.params_of(rank, ips, nprocs=n, **_cpi_params(scale)),
            name="cpi", nodes=placement(n))

    def bt_pods(cluster, n, scale):
        return launch_spmd(
            cluster, "apps.btnas", n,
            lambda rank, vips: btnas.params_of(rank, vips, nprocs=n, **_bt_params(scale)),
            name="bt", nodes=placement(n))

    def bt_van(cluster, n, scale):
        return launch_spmd_vanilla(
            cluster, "apps.btnas", n,
            lambda rank, ips: btnas.params_of(rank, ips, nprocs=n, **_bt_params(scale)),
            name="bt", nodes=placement(n))

    def bratu_pods(cluster, n, scale):
        return launch_spmd(
            cluster, "apps.petsc_bratu", n,
            lambda rank, vips: petsc_bratu.params_of(rank, vips, nprocs=n, **_bratu_params(scale)),
            name="bratu", nodes=placement(n))

    def bratu_van(cluster, n, scale):
        return launch_spmd_vanilla(
            cluster, "apps.petsc_bratu", n,
            lambda rank, ips: petsc_bratu.params_of(rank, ips, nprocs=n, **_bratu_params(scale)),
            name="bratu", nodes=placement(n))

    def _pov_placement(n):
        # master + workers share the blades of the n-node configuration
        blades, _ = layout(n)
        total = max(1, n - 1) + 1
        return [i % blades for i in range(total)]

    def pov_pods(cluster, n, scale):
        workers = max(1, n - 1)
        return launch_master_worker(
            cluster, "apps.povray_master", "apps.povray_worker", workers,
            povray.master_params(nworkers=workers, **_pov_geometry()),
            lambda task_id, vip: povray.worker_params(
                task_id, vip, width=256, height=192,
                cycles_per_pixel=max(1, int(1_200_000 * scale))),
            name="pov", nodes=_pov_placement(n))

    def pov_van(cluster, n, scale):
        workers = max(1, n - 1)
        return launch_master_worker_vanilla(
            cluster, "apps.povray_master", "apps.povray_worker", workers,
            povray.master_params(nworkers=workers, **_pov_geometry()),
            lambda task_id, ip: povray.worker_params(
                task_id, ip, width=256, height=192,
                cycles_per_pixel=max(1, int(1_200_000 * scale))),
            name="pov", nodes=_pov_placement(n))

    hz = DEFAULT_HZ
    pov_total_cycles = lambda scale: sum(  # noqa: E731
        povray.tile_cycles(t, 256, 192, int(1_200_000 * scale))
        for t in povray.make_tiles(**_pov_geometry()))
    return {
        "CPI": AppSpec(
            "CPI", "spmd", (1, 2, 4, 8, 16), cpi_pods, cpi_van,
            lambda n, s: 1_000_000 * 60_000 * s / (hz * n), _verify_cpi),
        "BT/NAS": AppSpec(
            "BT/NAS", "spmd", (1, 4, 9, 16), bt_pods, bt_van,
            lambda n, s: 48 * 48 * 30 * 400_000 * s / (hz * n), _verify_bt(1.0)),
        "PETSc": AppSpec(
            "PETSc", "spmd", (1, 2, 4, 8, 16), bratu_pods, bratu_van,
            lambda n, s: 48 * 48 * 8 * 12 * 120_000 * s / (hz * n), _verify_bratu(1.0)),
        "POV-Ray": AppSpec(
            "POV-Ray", "master-worker", (1, 2, 4, 8, 16), pov_pods, pov_van,
            lambda n, s: pov_total_cycles(s) / (hz * max(1, n - 1)), _verify_pov),
    }


APPS: Dict[str, AppSpec] = _make_specs()


# ---------------------------------------------------------------------------
# testbed layout
# ---------------------------------------------------------------------------


def layout(nodes: int) -> Tuple[int, int]:
    """(physical blades, CPUs per blade) for an n-"node" configuration.

    Up to 9 nodes are uniprocessor blades; 16 "nodes" are 8 dual-CPU
    blades, one pod per CPU — the paper's configurations exactly.
    """
    if nodes <= 9:
        return nodes, 1
    if nodes == 16:
        return 8, 2
    raise ValueError(f"unsupported node count {nodes}")


def placement(endpoints: int) -> List[int]:
    """Endpoint→blade placement for an ``endpoints``-node configuration."""
    blades, ncpus = layout(endpoints) if endpoints in (1, 2, 4, 8, 9, 16) else (endpoints, 1)
    return [i % blades for i in range(endpoints)]


def build_cluster(nodes: int, seed: int = 0) -> Cluster:
    """A cluster sized for an n-node configuration."""
    blades, ncpus = layout(nodes)
    return Cluster.build(blades, ncpus=ncpus, seed=seed)


# ---------------------------------------------------------------------------
# figure runners
# ---------------------------------------------------------------------------


def _completion_time(cluster: Cluster, handle: Any) -> float:
    """When the last endpoint daemon exited (simulated seconds)."""
    times = []
    for node in cluster.nodes:
        for proc in node.kernel.procs.values():
            if proc.program.name == "middleware.daemon" and proc.state == DEAD \
                    and proc.exit_code == 0:
                times.append(proc.exit_time)
    return max(times) if times else float("nan")


def run_fig5_cell(app: str, nodes: int, system: str, scale: float = 1.0,
                  seed: int = 0, until: float = 3600.0) -> float:
    """Completion time of one Figure 5 cell; verifies the answer."""
    spec = APPS[app]
    cluster = build_cluster(nodes, seed=seed)
    if system == "base":
        handle = spec.launch_vanilla(cluster, nodes, scale)
    elif system == "zapc":
        handle = spec.launch_pods(cluster, nodes, scale)
    else:
        raise ValueError(f"unknown system {system!r}")
    cluster.engine.run(until=until)
    if not handle.ok(cluster):
        raise RuntimeError(f"{app} on {nodes} nodes ({system}) did not complete")
    if not spec.verify(cluster, handle):
        raise RuntimeError(f"{app} on {nodes} nodes ({system}) produced a wrong answer")
    return _completion_time(cluster, handle)


def run_fig5_row(app: str, nodes: int, scale: float = 1.0, seed: int = 0) -> Fig5Cell:
    """Base and ZapC completion times for one (app, nodes) pair."""
    base = run_fig5_cell(app, nodes, "base", scale=scale, seed=seed)
    zapc = run_fig5_cell(app, nodes, "zapc", scale=scale, seed=seed)
    return Fig5Cell(app, nodes, base, zapc)


def run_fig6_cell(app: str, nodes: int, scale: float = 1.0, seed: int = 0,
                  n_checkpoints: int = 10, until: float = 3600.0,
                  filters: Optional[List[Dict[str, Any]]] = None) -> Fig6Cell:
    """Evenly spaced snapshots during one run: Figure 6(a)/(c) metrics.

    ``filters`` requests an image-pipeline chain for every checkpoint
    (e.g. ``[{"name": "delta"}]`` makes epochs 1+ incremental); the cell
    records both post-filter and raw image sizes plus the per-stage
    serialize / filter / write timing split.  A span tracer rides along
    so the cell also carries the span-derived protocol-phase breakdown
    (``cell.phase_times``) the Figure 6(a) table prints.
    """
    spec = APPS[app]
    cluster = build_cluster(nodes, seed=seed)
    tracer = SpanTracer(cluster.engine).install(cluster)
    manager = Manager.deploy(cluster)
    handle = spec.launch_pods(cluster, nodes, scale)
    cell = Fig6Cell(app, nodes)
    expected = spec.work_seconds(nodes, scale)
    interval = max(expected / (n_checkpoints + 1), 0.02)

    def record_phases(result: OpResult) -> None:
        """Per-phase breakdown of one checkpoint: max across pods of each
        agent-side phase span under the operation (max, like the
        end-to-end latency, since the pods proceed in parallel)."""
        op_span = tracer.find(("op", result.op_id))
        if op_span is None:
            return
        worst: Dict[str, float] = {}
        for span in tracer.children_of(op_span):
            if span.category != PHASE or not span.name.startswith("agent.phase."):
                continue
            phase = span.name[len("agent.phase."):]
            worst[phase] = max(worst.get(phase, 0.0), span.duration)
        for phase, seconds in worst.items():
            cell.add_phase_time(phase, seconds)

    def ticker():
        for _ in range(n_checkpoints):
            yield cluster.engine.sleep(interval)
            if handle.ok(cluster):
                break
            try:
                targets = checkpoint_targets(handle, cluster)
            except Exception:
                break
            result: OpResult = yield from manager.checkpoint_task(targets,
                                                                  filters=filters)
            if result.ok:
                cell.checkpoint_times.append(result.duration)
                cell.network_ckpt_times.append(result.max_stat("t_network"))
                cell.image_sizes.append(result.max_image_bytes())
                cell.raw_image_sizes.append(int(result.max_stat("raw_image_bytes")))
                cell.netstate_sizes.append(int(result.max_stat("netstate_bytes")))
                for stage in ("serialize", "filter", "write"):
                    cell.add_stage_time(stage, result.max_stat(f"t_{stage}"))
                record_phases(result)

    cluster.engine.spawn(ticker(), name="fig6-ticker")
    cluster.engine.run(until=until)
    if not handle.ok(cluster) or not spec.verify(cluster, handle):
        raise RuntimeError(f"{app} on {nodes} nodes failed under periodic checkpoints")
    return cell


def run_fig6b_cell(app: str, nodes: int, scale: float = 1.0, seed: int = 0,
                   at_frac: float = 0.5, until: float = 3600.0,
                   filters: Optional[List[Dict[str, Any]]] = None,
                   n_checkpoints: int = 1) -> Fig6Cell:
    """Restart from a mid-execution image: Figure 6(b) metrics.

    Snapshot at ``at_frac`` of the expected run, kill the pods, restart
    from the in-memory images on the same blades, and let the run finish
    (with the answer verified) — "restarts were done using the same set
    of blades on which the checkpoints were performed".

    ``n_checkpoints`` > 1 takes that many closely spaced snapshots before
    the kill; with a delta filter this restarts from a multi-epoch chain,
    exercising chain reassembly end to end.
    """
    spec = APPS[app]
    cluster = build_cluster(nodes, seed=seed)
    manager = Manager.deploy(cluster)
    handle = spec.launch_pods(cluster, nodes, scale)
    cell = Fig6Cell(app, nodes)
    expected = spec.work_seconds(nodes, scale)

    def orchestrate():
        yield cluster.engine.sleep(max(expected * at_frac, 0.05))
        if handle.ok(cluster):
            return
        targets = checkpoint_targets(handle, cluster)
        interval = max(expected * (1.0 - at_frac) / (n_checkpoints + 1), 0.02)
        for i in range(n_checkpoints):
            if i:
                yield cluster.engine.sleep(interval)
            ckpt = yield from manager.checkpoint_task(targets, filters=filters)
            if not ckpt.ok:
                raise RuntimeError(f"fig6b checkpoint failed: {ckpt.errors}")
            cell.checkpoint_times.append(ckpt.duration)
            cell.image_sizes.append(ckpt.max_image_bytes())
        # the pods die; recovery restarts them from the images in place
        for _node_name, pod_id, _uri in targets:
            cluster.find_pod(pod_id).destroy()
        restart = yield from manager.restart_task(targets)
        if not restart.ok:
            raise RuntimeError(f"fig6b restart failed: {restart.errors}")
        cell.restart_time = restart.duration
        cell.network_restart_time = restart.max_stat("t_network")

    cluster.engine.spawn(orchestrate(), name="fig6b")
    cluster.engine.run(until=until)
    if not handle.ok(cluster) or not spec.verify(cluster, handle):
        raise RuntimeError(f"{app} on {nodes} nodes failed across restart")
    return cell


# ---------------------------------------------------------------------------
# live migration: downtime vs pre-copy rounds
# ---------------------------------------------------------------------------


@program("harness.writer")
def _writer(b, *, ballast, dirty_rate, chunk_cycles, chunks):
    """Compute loop that keeps rewriting its ballast in place — the
    writable-working-set workload of the live-migration study."""
    if dirty_rate:
        b.set_dirty_rate(dirty_rate)
    b.alloc(imm(ballast), "heap")
    with b.for_range("i", imm(0), imm(chunks)):
        b.compute(imm(chunk_cycles))
    b.halt(imm(0))


def run_migration_cell(precopy_rounds: int, *, ballast: int = 256_000_000,
                       dirty_rate: int = 40_000_000, migrate_at: float = 0.5,
                       work_seconds: float = 30.0, seed: int = 0,
                       until: float = 300.0,
                       dirty_threshold: int = DEFAULT_DIRTY_THRESHOLD) -> MigrationCell:
    """Migrate a writing pod under a given pre-copy round cap.

    A single pod holding ``ballast`` bytes rewrites ``dirty_rate`` bytes
    per CPU-second; at ``migrate_at`` it is moved blade0 → blade1 with up
    to ``precopy_rounds`` pre-copy rounds (0 = plain stop-and-copy).  The
    run must finish on the destination blade for the cell to count.
    """
    cluster = Cluster.build(2, seed=seed)
    manager = Manager.deploy(cluster)
    src, dst = cluster.node(0), cluster.node(1)
    cluster.create_pod(src, "mig-w")
    chunk = 30_000_000  # ~10 ms slices: frequent preemption points
    src.kernel.spawn(
        build_program("harness.writer", ballast=ballast, dirty_rate=dirty_rate,
                      chunk_cycles=chunk,
                      chunks=max(1, int(work_seconds * DEFAULT_HZ) // chunk)),
        pod_id="mig-w")
    out: Dict[str, Any] = {}

    def orchestrate():
        yield cluster.engine.sleep(migrate_at)
        out["mig"] = yield from migrate_task(
            manager, [(src.name, "mig-w", dst.name)],
            live=precopy_rounds > 0, precopy_rounds=max(1, precopy_rounds),
            dirty_threshold=dirty_threshold)

    cluster.engine.spawn(orchestrate(), name="mig-cell")
    cluster.engine.run(until=until)
    mig = out.get("mig")
    if mig is None or not mig.ok:
        errs = [] if mig is None else mig.checkpoint.errors + mig.restart.errors
        raise RuntimeError(f"migration (cap {precopy_rounds}) failed: {errs}")
    done = [p for p in dst.kernel.procs.values()
            if p.program.name == "harness.writer" and p.state == DEAD
            and p.exit_code == 0]
    if not done:
        raise RuntimeError(
            f"writer did not finish on {dst.name} (cap {precopy_rounds})")
    return MigrationCell(precopy_rounds, mig.downtime, mig.total_time,
                         mig.precopy_bytes, mig.bailout, list(mig.rounds))


# ---------------------------------------------------------------------------
# incremental generations: dirty-delta + zero-stall checkpoint study
# ---------------------------------------------------------------------------


#: pipeline configuration per mode of the generations study.
INC_MODES: Dict[str, Optional[List[Dict[str, Any]]]] = {
    "full": None,
    "heuristic": [{"name": "delta", "measured": False}],
    "delta": [{"name": "delta"}],
    "delta-async": [{"name": "delta"}],
}


def run_inc_cell(mode: str, *, n_pods: int = 2, ballast: int = 64_000_000,
                 dirty_rate: int = 8_000_000, n_checkpoints: int = 4,
                 interval: float = 0.5, seed: int = 0,
                 until: float = 300.0) -> IncCell:
    """Checkpoint a writing workload every epoch under one pipeline mode.

    ``n_pods`` writer pods (``ballast`` bytes each, rewriting
    ``dirty_rate`` bytes per CPU-second — the live-migration study's
    workload) are snapshotted ``n_checkpoints`` times, ``interval``
    apart.  Modes (:data:`INC_MODES`): ``full`` re-images everything
    every epoch; ``heuristic`` runs the delta filter on its modeled
    dirty fraction; ``delta`` charges the *measured* per-segment dirty
    bytes; ``delta-async`` adds the zero-stall path (pods resume after
    capture, encode/stream overlap application time).

    Besides per-epoch sizes and windows the cell audits chain
    integrity: every committed delta chain must reassemble
    byte-identical to the full base the Agent's pipeline state holds
    (``cell.chain_ok``).
    """
    filters = INC_MODES[mode]
    async_ckpt = mode == "delta-async"
    cluster = Cluster.build(2, seed=seed)
    manager = Manager.deploy(cluster)
    host = cluster.node(1)
    chunk = 30_000_000  # ~10 ms slices: frequent preemption points
    work_seconds = interval * (n_checkpoints + 2)
    targets = []
    for i in range(n_pods):
        pod_id = f"inc-w{i}"
        cluster.create_pod(host, pod_id)
        host.kernel.spawn(
            build_program("harness.writer", ballast=ballast,
                          dirty_rate=dirty_rate, chunk_cycles=chunk,
                          chunks=max(1, int(work_seconds * DEFAULT_HZ) // chunk)),
            pod_id=pod_id)
        targets.append((host.name, pod_id, "mem"))
    cell = IncCell(mode)

    def ticker():
        for _ in range(n_checkpoints):
            yield cluster.engine.sleep(interval)
            result: OpResult = yield from manager.checkpoint_task(
                targets, filters=filters, async_ckpt=async_ckpt)
            if not result.ok:
                raise RuntimeError(f"inc checkpoint ({mode}) failed: "
                                   f"{result.errors}")
            cell.ckpt_times.append(result.duration)
            cell.image_sizes.append(result.max_image_bytes())
            cell.raw_image_sizes.append(int(result.max_stat("raw_image_bytes")))
            cell.suspend_windows.append(max(
                stats.get("t_suspend_window", stats.get("t_local", 0.0))
                for stats in result.pods.values()))

    cluster.engine.spawn(ticker(), name="inc-ticker")
    cluster.engine.run(until=until)
    if len(cell.image_sizes) < n_checkpoints:
        raise RuntimeError(f"inc cell ({mode}) took "
                           f"{len(cell.image_sizes)}/{n_checkpoints} snapshots")
    if filters is not None:
        from .core.pipeline import ImagePipeline
        agent = manager.agents[host.name]
        for _node, pod_id, _uri in targets:
            tip = agent.pipeline_state.tip(pod_id)
            if not tip.chain or tip.base is None:
                cell.chain_ok = False
                continue
            reassembled = ImagePipeline.reassemble(list(tip.chain))
            cell.chain_ok = cell.chain_ok and reassembled.raw == tip.base
    return cell


# ---------------------------------------------------------------------------
# content-addressed store: dedup vs the full-image SAN path
# ---------------------------------------------------------------------------


#: (target URI scheme, pipeline filters) per mode of the CAS study.
CAS_MODES: Dict[str, Tuple[str, Optional[List[Dict[str, Any]]]]] = {
    "file-full": ("file", None),
    "cas-full": ("cas", None),
    "cas-delta": ("cas", [{"name": "delta"}]),
}


def run_cas_cell(mode: str, *, n_pods: int = 2, ballast: int = 64_000_000,
                 dirty_rate: int = 4_000_000, n_checkpoints: int = 8,
                 interval: float = 0.5, seed: int = 0,
                 until: float = 300.0) -> CasCell:
    """Checkpoint the generational writer workload to the SAN under one
    sink configuration (:data:`CAS_MODES`).

    ``file-full`` is the paper's baseline: every epoch flushes the whole
    container.  ``cas-full`` sends the same full images through the
    content-addressed sink — the chunk index dedups the clean blocks, so
    only the dirtied bytes reach the SAN after epoch 0.  ``cas-delta``
    adds the dirty-delta filter: a delta epoch appends one entry and the
    prior entries' chunk ids are carried without re-hashing.

    Besides the per-epoch byte accounting, the cell audits restores: the
    chain loaded back from the SAN must be byte-identical to the Agent's
    in-memory ground truth (and, under filters, reassemble to the full
    base) — ``cell.restore_ok``.
    """
    scheme, filters = CAS_MODES[mode]
    cluster = Cluster.build(2, seed=seed)
    manager = Manager.deploy(cluster)
    host = cluster.node(1)
    chunk = 30_000_000  # ~10 ms slices: frequent preemption points
    work_seconds = interval * (n_checkpoints + 2)
    targets = []
    for i in range(n_pods):
        pod_id = f"cas-w{i}"
        cluster.create_pod(host, pod_id)
        host.kernel.spawn(
            build_program("harness.writer", ballast=ballast,
                          dirty_rate=dirty_rate, chunk_cycles=chunk,
                          chunks=max(1, int(work_seconds * DEFAULT_HZ) // chunk)),
            pod_id=pod_id)
        targets.append((host.name, pod_id, f"{scheme}:/san/cas-cell-{pod_id}.img"))
    cell = CasCell(mode)
    from .storage.cas import CasStore
    store = CasStore.on(cluster.san)

    def ticker():
        for _ in range(n_checkpoints):
            yield cluster.engine.sleep(interval)
            stored_before = store.stored_bytes
            result: OpResult = yield from manager.checkpoint_task(
                targets, filters=filters)
            if not result.ok:
                raise RuntimeError(f"cas checkpoint ({mode}) failed: "
                                   f"{result.errors}")
            logical = sum(int(stats.get("image_bytes", 0))
                          for stats in result.pods.values())
            cell.logical_sizes.append(logical)
            cell.stored_sizes.append(store.stored_bytes - stored_before
                                     if scheme == "cas" else logical)
            cell.ckpt_times.append(result.duration)

    cluster.engine.spawn(ticker(), name="cas-ticker")
    cluster.engine.run(until=until)
    if len(cell.logical_sizes) < n_checkpoints:
        raise RuntimeError(f"cas cell ({mode}) took "
                           f"{len(cell.logical_sizes)}/{n_checkpoints} snapshots")
    stats = store.stats()
    cell.footprint_bytes = int(stats["footprint_bytes"])
    cell.dup_bytes = int(stats["dup_bytes"])
    cell.carried_bytes = int(stats["carried_bytes"])
    cell.gc_reclaimed_bytes = int(stats["gc_reclaimed_bytes"])
    cell.live_chunks = int(stats["live_chunks"])
    # restore audit: the SAN chain must match the in-memory ground truth
    agent = manager.agents[host.name]
    for _node, pod_id, uri in targets:
        sink = resolve_sink(uri, cluster, host.kernel.vfs, agent.mem_sink)
        cell.restore_ok = (cell.restore_ok
                           and restores_committed(sink, agent, pod_id))
    if scheme == "cas" and store.audit():
        cell.restore_ok = False
    return cell


def run_timeline_series(n_nodes: int = 24, n_pods: int = 96,
                        n_evacuate: int = 18, seed: int = 0,
                        max_inflight: int = 8,
                        window_s: float = 0.05) -> Dict[str, Any]:
    """Timeline cell: one metered evacuation, exported as windowed series.

    Runs the fleet evacuation with a :class:`~repro.obs.series.SeriesBank`
    attached (window ``window_s`` simulated seconds) and returns
    ``{"columns": <deterministic columnar export>, "result":
    <CampaignResult>}`` (see
    :meth:`~repro.obs.series.SeriesBank.to_columns`).  Feeds
    ``figures --fig timeline``: per-pod downtime percentiles, in-flight
    occupancy, and checkpoint/restore byte rates over the campaign's
    lifetime.
    """
    from .fleet import run_evacuation_demo
    out = run_evacuation_demo(n_nodes=n_nodes, n_pods=n_pods,
                              n_evacuate=n_evacuate, seed=seed,
                              max_inflight=max_inflight,
                              metrics=True, series_window_s=window_s)
    return {"columns": out["metrics"].series.to_columns(),
            "result": out["result"]}
