"""Experiment harness: the cells behind every paper figure and study.

Regenerates the evaluation of Section 6 on the simulated testbed:

* :func:`run_fig5_cell` — completion time of one (app, nodes, system)
  cell of Figure 5 (``system`` ∈ {"base", "zapc"});
* :func:`run_fig6_cell` — checkpoint metrics of Figure 6(a)/6(c): evenly
  spaced snapshots during a run, with per-checkpoint network share and
  largest-pod image sizes;
* :func:`run_fig6b_cell` — Figure 6(b): restart time from an image taken
  mid-execution (checkpoint → destroy → restart on the same blades, as
  the paper did with its limited node count);

plus the ``harness.writer`` studies (migration, generations, CAS) and
the node-layout logic of the testbed (≤8 uniprocessor blades; the
16-"node" configuration is 8 dual-CPU blades with one pod per CPU).
Every checkpoint a cell takes goes through :func:`_checkpoint_step`.

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
from .core.pipeline import ImagePipeline
from .core.sinks import resolve_sink, restores_committed
from .core.streaming import DEFAULT_DIRTY_THRESHOLD, migrate_task
from .metrics import CasCell, Fig5Cell, Fig6Cell, IncCell, MigrationCell
from .middleware.daemon import checkpoint_targets, launch_master_worker, launch_spmd
from .obs.tracer import SpanTracer, layer_table
from .storage.cas import CasStore
from .vos import build_program, imm, program
from .vos.kernel import DEFAULT_HZ
from .vos.process import DEAD


# ---------------------------------------------------------------------------
# application specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AppSpec:
    """One evaluation application, as data.  ``kind`` is its shape:
    ``spmd`` runs ``programs[0]`` on all ``n`` endpoints and
    ``params(n, scale)`` is ``(params_of(rank, addrs),)``;
    ``master-worker`` runs ``programs`` = (master, worker) on ``n - 1``
    (≥ 1) workers plus the master, and ``params(n, scale)`` is
    ``(master_params, worker_params_of(task_id, master_addr))``."""

    name: str
    kind: str  # "spmd" | "master-worker"
    node_counts: Tuple[int, ...]
    tag: str
    programs: Tuple[str, ...]
    params: Callable[[int, float], Tuple[Any, ...]]
    work_seconds: Callable[[int, float], float]
    verify: Callable[[Cluster, Any], bool]

    def launch_pods(self, cluster: Cluster, n: int, scale: float) -> Any:
        """Launch on ``n`` nodes, one endpoint per pod (ZapC)."""
        args, nodes = self._launch_args(n, scale)
        if self.kind == "spmd":
            return launch_spmd(cluster, *args, name=self.tag, nodes=nodes)
        return launch_master_worker(cluster, *args, name=self.tag, nodes=nodes)

    def launch_vanilla(self, cluster: Cluster, n: int, scale: float) -> Any:
        """Launch on ``n`` nodes with no virtualization (Figure 5's Base)."""
        args, nodes = self._launch_args(n, scale)
        if self.kind == "spmd":
            return launch_spmd_vanilla(cluster, *args, name=self.tag, nodes=nodes)
        return launch_master_worker_vanilla(cluster, *args, name=self.tag, nodes=nodes)

    def _launch_args(self, n: int, scale: float) -> Tuple[tuple, List[int]]:
        """What both launchers of the shape take after the cluster —
        programs, endpoint count, params — and the endpoint→blade
        placement."""
        if self.kind == "spmd":
            return (*self.programs, n, *self.params(n, scale)), placement(n)
        workers = max(1, n - 1)
        blades, _ = layout(n)
        return ((*self.programs, workers, *self.params(n, scale)),
                [i % blades for i in range(workers + 1)])


_POV_GEOMETRY = dict(width=256, height=192, tile=64)


def _cpi_params(n, scale):
    return (lambda rank, addrs: cpi.params_of(
        rank, addrs, nprocs=n, intervals=1_000_000,
        cycles_per_interval=max(1, int(60_000 * scale))),)


def _bt_params(n, scale):
    return (lambda rank, addrs: btnas.params_of(
        rank, addrs, nprocs=n, grid=48, iters=30,
        cycles_per_point=max(1, int(400_000 * scale)), face_pad=32_768),)


def _bratu_params(n, scale):
    return (lambda rank, addrs: petsc_bratu.params_of(
        rank, addrs, nprocs=n, grid=48, outer=8, sweeps=12,
        cycles_per_point=max(1, int(120_000 * scale))),)


def _pov_params(n, scale):
    return (povray.master_params(nworkers=max(1, n - 1), **_POV_GEOMETRY),
            lambda task_id, master: povray.worker_params(
                task_id, master, width=256, height=192,
                cycles_per_pixel=max(1, int(1_200_000 * scale))))


def _pov_cycles(scale):
    return sum(povray.tile_cycles(t, 256, 192, int(1_200_000 * scale))
               for t in povray.make_tiles(**_POV_GEOMETRY))


def _verify_cpi(cluster, handle) -> bool:
    vals = [v for v in handle.results(cluster, "pi") if v is not None]
    return len(vals) == 1 and abs(vals[0] - math.pi) < 1e-8


def _checksum_is(ref: float, cluster, handle) -> bool:
    vals = [v for v in handle.results(cluster, "checksum") if v is not None]
    return len(vals) == 1 and abs(vals[0] - ref) < 1e-6 * max(1.0, abs(ref))


def _verify_bt(cluster, handle) -> bool:
    return _checksum_is(btnas.reference_btnas(G=48, iters=30)[0], cluster, handle)


def _verify_bratu(cluster, handle) -> bool:
    return _checksum_is(petsc_bratu.reference_bratu(G=48, outer=8, sweeps=12)[0],
                        cluster, handle)


def _verify_pov(cluster, handle) -> bool:
    ref = povray.reference_image(**_POV_GEOMETRY)
    for node in cluster.nodes:
        for proc in node.kernel.procs.values():
            if proc.program.name == "apps.povray_master" and proc.state == DEAD \
                    and proc.exit_code == 0:
                return proc.regs["image"] == ref
    return False


APPS: Dict[str, AppSpec] = {
    "CPI": AppSpec(
        "CPI", "spmd", (1, 2, 4, 8, 16), "cpi", ("apps.cpi",), _cpi_params,
        lambda n, s: 1_000_000 * 60_000 * s / (DEFAULT_HZ * n), _verify_cpi),
    "BT/NAS": AppSpec(
        "BT/NAS", "spmd", (1, 4, 9, 16), "bt", ("apps.btnas",), _bt_params,
        lambda n, s: 48 * 48 * 30 * 400_000 * s / (DEFAULT_HZ * n), _verify_bt),
    "PETSc": AppSpec(
        "PETSc", "spmd", (1, 2, 4, 8, 16), "bratu", ("apps.petsc_bratu",),
        _bratu_params,
        lambda n, s: 48 * 48 * 8 * 12 * 120_000 * s / (DEFAULT_HZ * n),
        _verify_bratu),
    "POV-Ray": AppSpec(
        "POV-Ray", "master-worker", (1, 2, 4, 8, 16), "pov",
        ("apps.povray_master", "apps.povray_worker"), _pov_params,
        lambda n, s: _pov_cycles(s) / (DEFAULT_HZ * max(1, n - 1)), _verify_pov),
}


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
# what every cell shares
# ---------------------------------------------------------------------------


def _checkpoint_step(manager: Manager, delay: float,
                     finished: Callable[[], bool], targets: List[tuple],
                     **options: Any):
    """One step of a cell's checkpoint loop (generator): sleep ``delay``
    simulated seconds; return None if the application has ``finished()``
    by then, else checkpoint ``targets`` (``options`` go to
    :meth:`~repro.core.manager.Manager.checkpoint_task`) and return the
    :class:`~repro.core.manager.OpResult`.  A failed checkpoint raises
    ``RuntimeError``."""
    yield manager.cluster.engine.sleep(delay)
    if finished():
        return None
    result: OpResult = yield from manager.checkpoint_task(targets, **options)
    if not result.ok:
        raise RuntimeError(f"checkpoint op{result.op_id} {result.status}: "
                           f"{result.errors}")
    return result


def _run(cluster: Cluster, script, name: str, until: float) -> None:
    """Run the world to ``until`` with the cell's script spawned as a
    task; whatever the script raised is raised here."""
    task = cluster.engine.spawn(script, name=name)
    cluster.engine.run(until=until)
    if task.finished.exception is not None:
        raise task.finished.exception


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
    (``cell.phase_times``) the Figure 6(a) table prints.  A run that
    finishes before its first checkpoint raises ``RuntimeError``.
    """
    spec = APPS[app]
    cluster = build_cluster(nodes, seed=seed)
    tracer = SpanTracer(cluster.engine).install(cluster)
    manager = Manager.deploy(cluster)
    handle = spec.launch_pods(cluster, nodes, scale)
    targets = checkpoint_targets(handle, cluster)
    interval = max(spec.work_seconds(nodes, scale) / (n_checkpoints + 1), 0.02)
    results: List[OpResult] = []

    def ticker():
        for _ in range(n_checkpoints):
            result = yield from _checkpoint_step(
                manager, interval, lambda: handle.ok(cluster), targets,
                filters=filters)
            if result is None:
                return
            results.append(result)

    _run(cluster, ticker(), "fig6-ticker", until)
    if not handle.ok(cluster) or not spec.verify(cluster, handle):
        raise RuntimeError(f"{app} on {nodes} nodes failed under periodic checkpoints")
    if not results:
        raise RuntimeError(f"{app} on {nodes} nodes at scale {scale} "
                           "finished before its first checkpoint")
    cell = Fig6Cell(app, nodes)
    for result in results:
        cell.checkpoint_times.append(result.duration)
        cell.network_ckpt_times.append(result.max_stat("t_network"))
        cell.image_sizes.append(result.max_image_bytes())
        cell.raw_image_sizes.append(int(result.max_stat("raw_image_bytes")))
        cell.netstate_sizes.append(int(result.max_stat("netstate_bytes")))
        for stage in ("serialize", "filter", "write"):
            cell.add_stage_time(stage, result.max_stat(f"t_{stage}"))
        # per-phase breakdown: the layer table's agent rows (max across
        # pods, like the end-to-end latency, since the pods run in parallel)
        op_span = tracer.find(("op", result.op_id))
        if op_span is None:
            continue
        for phase, seconds in layer_table(tracer, op_span).agent.items():
            cell.add_phase_time(phase, seconds)
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
    exercising chain reassembly end to end.  A run that finishes before
    the restart raises ``RuntimeError``.
    """
    spec = APPS[app]
    cluster = build_cluster(nodes, seed=seed)
    manager = Manager.deploy(cluster)
    handle = spec.launch_pods(cluster, nodes, scale)
    targets = checkpoint_targets(handle, cluster)
    expected = spec.work_seconds(nodes, scale)
    interval = max(expected * (1.0 - at_frac) / (n_checkpoints + 1), 0.02)
    cell = Fig6Cell(app, nodes)

    def orchestrate():
        delay = max(expected * at_frac, 0.05)
        for _ in range(n_checkpoints):
            ckpt = yield from _checkpoint_step(
                manager, delay, lambda: handle.ok(cluster), targets,
                filters=filters)
            if ckpt is None:
                return
            cell.checkpoint_times.append(ckpt.duration)
            cell.image_sizes.append(ckpt.max_image_bytes())
            delay = interval
        # the pods die; recovery restarts them from the images in place
        for _node_name, pod_id, _uri in targets:
            cluster.find_pod(pod_id).destroy()
        restart = yield from manager.restart_task(targets)
        if not restart.ok:
            raise RuntimeError(f"fig6b restart failed: {restart.errors}")
        cell.restart_time = restart.duration
        cell.network_restart_time = restart.max_stat("t_network")

    _run(cluster, orchestrate(), "fig6b", until)
    if not handle.ok(cluster) or not spec.verify(cluster, handle):
        raise RuntimeError(f"{app} on {nodes} nodes failed across restart")
    if cell.restart_time is None:
        raise RuntimeError(f"{app} on {nodes} nodes at scale {scale} "
                           "finished before its restart")
    return cell


# ---------------------------------------------------------------------------
# the writer workload: live migration, generations, CAS
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


def _writer_world(seed: int, node: int, pod_ids: List[str], *, ballast: int,
                  dirty_rate: int, work_seconds: float):
    """The writer studies' world: two blades, a Manager, and on blade
    ``node`` one pod per id, each running ``harness.writer`` (``ballast``
    bytes rewritten at ``dirty_rate`` bytes per CPU-second, for
    ``work_seconds`` of CPU).  Returns ``(cluster, manager, finished)``;
    ``finished()`` says whether every writer has exited."""
    cluster = Cluster.build(2, seed=seed)
    manager = Manager.deploy(cluster)
    host = cluster.node(node)
    chunk = 30_000_000  # ~10 ms slices: frequent preemption points
    procs = []
    for pod_id in pod_ids:
        cluster.create_pod(host, pod_id)
        procs.append(host.kernel.spawn(
            build_program("harness.writer", ballast=ballast,
                          dirty_rate=dirty_rate, chunk_cycles=chunk,
                          chunks=max(1, int(work_seconds * DEFAULT_HZ) // chunk)),
            pod_id=pod_id))
    return cluster, manager, lambda: all(p.state == DEAD for p in procs)


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
    cluster, manager, _finished = _writer_world(
        seed, 0, ["mig-w"], ballast=ballast, dirty_rate=dirty_rate,
        work_seconds=work_seconds)
    src, dst = cluster.node(0), cluster.node(1)
    out: Dict[str, Any] = {}

    def orchestrate():
        yield cluster.engine.sleep(migrate_at)
        out["mig"] = yield from migrate_task(
            manager, [(src.name, "mig-w", dst.name)],
            live=precopy_rounds > 0, precopy_rounds=max(1, precopy_rounds),
            dirty_threshold=dirty_threshold)

    _run(cluster, orchestrate(), "mig-cell", until)
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


#: pipeline configuration per mode of the generations study.
INC_MODES: Dict[str, Optional[List[Dict[str, Any]]]] = {
    "full": None,
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
    every epoch; ``delta`` charges the bytes the pods wrote since the
    last epoch; ``delta-async`` adds the zero-stall path (pods resume
    after capture, encode/stream overlap application time).

    Besides per-epoch sizes and windows the cell audits chain
    integrity: every committed delta chain must reassemble
    byte-identical to the full base the Agent's pipeline state holds
    (``cell.chain_ok``).
    """
    filters = INC_MODES[mode]
    pod_ids = [f"inc-w{i}" for i in range(n_pods)]
    cluster, manager, finished = _writer_world(
        seed, 1, pod_ids, ballast=ballast, dirty_rate=dirty_rate,
        work_seconds=interval * (n_checkpoints + 2))
    host = cluster.node(1)
    targets = [(host.name, pod_id, "mem") for pod_id in pod_ids]
    results: List[OpResult] = []

    def ticker():
        for _ in range(n_checkpoints):
            result = yield from _checkpoint_step(
                manager, interval, finished, targets, filters=filters,
                async_ckpt=mode == "delta-async")
            if result is None:
                return
            results.append(result)

    _run(cluster, ticker(), "inc-ticker", until)
    if len(results) < n_checkpoints:
        raise RuntimeError(f"inc cell ({mode}) took "
                           f"{len(results)}/{n_checkpoints} snapshots")
    cell = IncCell(mode)
    for result in results:
        cell.checkpoint_times.append(result.duration)
        cell.image_sizes.append(result.max_image_bytes())
        cell.raw_image_sizes.append(int(result.max_stat("raw_image_bytes")))
        cell.suspend_windows.append(max(
            stats.get("t_suspend_window", stats.get("t_local", 0.0))
            for stats in result.pods.values()))
    if filters is not None:
        agent = manager.agents[host.name]
        for pod_id in pod_ids:
            tip = agent.pipeline_state.tip(pod_id)
            if not tip.chain or tip.base is None:
                cell.chain_ok = False
                continue
            reassembled = ImagePipeline.reassemble(list(tip.chain))
            cell.chain_ok = cell.chain_ok and reassembled.raw == tip.base
    return cell


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
    pod_ids = [f"cas-w{i}" for i in range(n_pods)]
    cluster, manager, finished = _writer_world(
        seed, 1, pod_ids, ballast=ballast, dirty_rate=dirty_rate,
        work_seconds=interval * (n_checkpoints + 2))
    host = cluster.node(1)
    targets = [(host.name, pod_id, f"{scheme}:/san/cas-cell-{pod_id}.img")
               for pod_id in pod_ids]
    cell = CasCell(mode)
    store = CasStore.on(cluster.san)

    def ticker():
        for _ in range(n_checkpoints):
            # the op's flush is acknowledged before it returns: the bytes
            # the store gained meanwhile are this op's
            stored_before = store.stored_bytes
            result = yield from _checkpoint_step(
                manager, interval, finished, targets, filters=filters)
            if result is None:
                return
            logical = sum(int(stats.get("image_bytes", 0))
                          for stats in result.pods.values())
            cell.logical_sizes.append(logical)
            cell.stored_sizes.append(store.stored_bytes - stored_before
                                     if scheme == "cas" else logical)
            cell.checkpoint_times.append(result.duration)

    _run(cluster, ticker(), "cas-ticker", until)
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
