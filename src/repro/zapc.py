"""The ZapC command line: ``python -m repro.zapc``.

The paper's Manager "is the front-end client invoked by the user and can
be run from anywhere"; a checkpoint "is initiated by invoking the
Manager with a list of tuples of the form «node, pod, URI»".  This CLI
exposes that surface against a self-contained demo cluster: it launches
one of the evaluation applications, performs the requested operation
mid-run, and prints the Manager's timeline.

Examples::

    python -m repro.zapc snapshot --app CPI --nodes 4
    python -m repro.zapc snapshot --app BT/NAS --nodes 4 --incremental --checkpoints 3
    python -m repro.zapc snapshot --trace out.json --trace-format chrome --metrics
    python -m repro.zapc snapshot --app CPI --nodes 4 --managers 2
    python -m repro.zapc migrate  --app BT/NAS --nodes 4 --compress 6
    python -m repro.zapc recover  --app PETSc --nodes 2
    python -m repro.zapc fleet --nodes 100 --pods 1000 --evacuate 75 \\
        --max-inflight 16 --faults 4
    python -m repro.zapc fleet --audit --budget 0.5
    python -m repro.zapc trace --campaign --seed 18 --trace campaign.jsonl

``--managers 2`` demonstrates the HA Manager: the active Manager is
crashed at a ledger phase boundary mid-checkpoint and a standby replica
claims the orphaned op from the durable op ledger and finishes it.

``fleet`` runs the fleet orchestration demo instead of an application:
a cluster of idle pods is evacuated in bounded-concurrency waves, and
the wave table, per-pod downtime distribution, and any threshold or
budget trips are printed.  With ``--audit`` the run is traced and
metered, the campaign trace is assembled from the op ledger + span
dump, and an SLO audit (budgets from the campaign's own policy, e.g.
``--budget``) decides the exit code; the simulator's own wall-time
profile prints alongside.

``trace --campaign`` runs one traced fleet-chaos episode (same worlds
the chaos battery audits; seed 18 crashes the Manager mid-campaign) and
writes the failover-stitched campaign trace — one causal tree spanning
every Manager incarnation — as JSONL plus a Chrome ``trace_event`` view
and the SLO report.  Same seed → byte-identical artifacts.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from .core.manager import Manager, OpResult
from .core.pipeline import parse_filter_args
from .core.streaming import (
    DEFAULT_DIRTY_THRESHOLD,
    DEFAULT_PRECOPY_ROUNDS,
    migrate_task,
)
from .harness import APPS, build_cluster, layout
from .middleware.daemon import checkpoint_targets
from .obs import MetricsRegistry, SpanTracer, export, phase_timeline


def _print_op(result, label: str) -> None:
    print(f"{label}: {result.status} in {result.duration * 1000:.0f} ms (simulated)")
    for pod_id, stats in sorted(result.pods.items()):
        line = f"  «{pod_id}»"
        if "image_bytes" in stats:
            line += f"  image {stats['image_bytes'] / 1e6:6.1f} MB"
        raw = stats.get("raw_image_bytes")
        if raw is not None and raw != stats.get("image_bytes"):
            line += f"  (raw {raw / 1e6:.1f} MB)"
        if "netstate_bytes" in stats:
            line += f"  netstate {stats['netstate_bytes']:6d} B"
        if "t_network" in stats:
            line += f"  network {stats['t_network'] * 1000:5.1f} ms"
        if "t_suspend_window" in stats:
            line += f"  suspend {stats['t_suspend_window'] * 1000:5.1f} ms"
        if stats.get("epoch"):
            line += f"  epoch {stats['epoch']}"
        print(line)
        chain = result.filters.get(pod_id) if hasattr(result, "filters") else None
        if chain:
            print("    pipeline: " + " | ".join(e["name"] for e in chain))
        rejected = getattr(result, "filters_rejected", {}).get(pod_id)
        if rejected:
            print("    rejected filters: "
                  + " | ".join(e.get("name", "?") for e in rejected))
    for err in result.errors:
        print(f"  error: {err}")


def run_demo(action: str, app: str, nodes: int, scale: float = 0.5,
             seed: int = 0, filters: Optional[List[dict]] = None,
             checkpoints: int = 1, trace: Optional[str] = None,
             trace_format: str = "chrome", metrics: bool = False,
             live: bool = False, precopy_rounds: int = DEFAULT_PRECOPY_ROUNDS,
             dirty_threshold: int = DEFAULT_DIRTY_THRESHOLD,
             managers: int = 1, async_ckpt: bool = False,
             cas: bool = False) -> bool:
    """Run one demo scenario; returns True when everything verified.

    ``trace`` writes a span trace of the whole run to a file
    (``trace_format``: ``chrome`` for ``chrome://tracing`` / Perfetto,
    ``jsonl`` for the deterministic line-delimited dump) and prints the
    phase timeline; ``metrics`` prints the metrics registry tables.
    ``live`` makes a migration pre-copy memory while the application
    keeps running (up to ``precopy_rounds`` rounds, stopping early once
    the residual falls to ``dirty_threshold`` bytes).

    ``async_ckpt`` takes zero-stall snapshots: the pods resume right
    after the short capture window and the encode + write-out overlap
    application time (the suspend window shrinks to capture only).

    ``cas`` routes the images through the content-addressed store
    instead of flat SAN containers (snapshot and recover actions): the
    chunk index dedups repeated bytes across epochs and pods, and the
    run ends with the store's cost accounting.

    ``managers`` > 1 turns a snapshot into the HA failover demo: the
    active Manager is crashed at the ``continue`` ledger crossing of the
    first checkpoint, and once its lease expires a standby replica scans
    the op ledger, claims the orphan, and resumes (or aborts) it.
    """
    spec = APPS[app]
    if nodes not in spec.node_counts:
        raise SystemExit(f"{app} supports node counts {spec.node_counts}")
    blades, _ = layout(nodes)
    cluster = build_cluster(nodes, seed=seed)
    tracer = SpanTracer(cluster.engine).install(cluster) if trace else None
    registry = MetricsRegistry().install(cluster) if metrics else None
    # migrations need destination blades: extend the cluster with spares
    if action == "migrate":
        from .cluster.node import Node
        from .net.addr import real_ip
        for i in range(blades, 2 * blades):
            cluster.nodes.append(Node(cluster.engine, i, f"blade{i}", real_ip(i),
                                      cluster.fabric, cluster.vnet, cluster.san))
    manager = Manager.deploy(cluster)
    if managers > 1 and action == "snapshot":
        from .cluster.faults import FaultInjector, FaultPlan, FaultSpec
        FaultInjector(cluster, FaultPlan(seed=seed, faults=[
            FaultSpec(kind="crash_manager", phase="manager.ledger.continue"),
        ])).install()
    handle = spec.launch_pods(cluster, nodes, scale)
    expected = spec.work_seconds(nodes, scale)
    print(f"{app} on {nodes} node(s) ({blades} blade(s)); "
          f"expected run ≈ {expected:.1f} s simulated")
    outcome = {}

    def orchestrate():
        yield cluster.engine.sleep(max(0.05, expected * 0.4))
        targets = checkpoint_targets(handle, cluster)
        if cas and action == "snapshot":
            targets = [(n, p, f"cas:/san/{p}.img") for n, p, _u in targets]
        if action == "snapshot":
            ops = []
            active = manager
            for i in range(max(1, checkpoints)):
                if i:
                    yield cluster.engine.sleep(max(0.02, expected * 0.05))
                if managers > 1 and i == 0:
                    lease_s = 3.0
                    task = active.checkpoint(targets, filters=filters,
                                             lease_s=lease_s,
                                             async_ckpt=async_ckpt)
                    yield cluster.engine.timeout(task.finished, 120.0)
                    if active.crashed:
                        print(f"{active.name} crashed mid-checkpoint; standby "
                              f"waits out the {lease_s:.0f} s ledger lease")
                        yield cluster.engine.sleep(lease_s + 1.0)
                        replica = Manager.deploy_replica(cluster, active.agents,
                                                         name="mgr1")
                        actions = yield from replica.takeover_task(
                            lease_s=lease_s)
                        for op_id, phase, what in actions:
                            print(f"  op {op_id}: orphaned at «{phase}» "
                                  f"-> {what}")
                        active = replica
                        result = replica.last_checkpoint
                        if result is None:
                            result = OpResult("checkpoint", "failed", 0.0,
                                              cluster.engine.now)
                    else:
                        result = task.finished.result
                else:
                    result = yield from active.checkpoint_task(
                        targets, filters=filters, async_ckpt=async_ckpt)
                ops.append((f"checkpoint #{i}" if checkpoints > 1 else "checkpoint",
                            result))
            outcome["ops"] = ops
        elif action == "migrate":
            moves = [(node, pod, f"blade{blades + i}")
                     for i, (node, pod, _u) in enumerate(targets)]
            print("migrating:", ", ".join(f"{p}:{s}->{d}" for s, p, d in moves))
            mig = yield from migrate_task(manager, moves, filters=filters,
                                          live=live, precopy_rounds=precopy_rounds,
                                          dirty_threshold=dirty_threshold)
            outcome["ops"] = [("checkpoint", mig.checkpoint), ("restart", mig.restart)]
            outcome["mig"] = mig
        elif action == "recover":
            scheme = "cas" if cas else "file"
            file_targets = [(n, p, f"{scheme}:/san/{p}.img")
                            for n, p, _u in targets]
            ops = []
            for i in range(max(1, checkpoints)):
                if i:
                    yield cluster.engine.sleep(max(0.02, expected * 0.05))
                ckpt = yield from manager.checkpoint_task(
                    file_targets, filters=filters, async_ckpt=async_ckpt)
                ops.append((f"checkpoint #{i}" if checkpoints > 1 else "checkpoint",
                            ckpt))
            # simulated crash of every pod, then recovery from the SAN
            for _n, pod_id, _u in targets:
                cluster.find_pod(pod_id).destroy()
            restart = yield from manager.restart_task(file_targets)
            outcome["ops"] = ops + [("restart", restart)]

    cluster.engine.spawn(orchestrate(), name="zapc-cli")
    cluster.engine.run(until=3600.0)
    for label, result in outcome.get("ops", []):
        _print_op(result, label)
    mig = outcome.get("mig")
    if mig is not None and mig.live:
        line = (f"live migration: downtime {mig.downtime * 1000:.1f} ms of "
                f"{mig.total_time * 1000:.0f} ms total; "
                f"{len(mig.rounds)} pre-copy round(s), "
                f"{mig.precopy_bytes / 1e6:.1f} MB pre-copied")
        if mig.bailout:
            line += f"; bailout: {mig.bailout}"
        print(line)
        for rnd in mig.rounds:
            print(f"  round {rnd['round']}: shipped {rnd['shipped_bytes'] / 1e6:6.1f} MB"
                  f" in {rnd['seconds'] * 1000:6.1f} ms"
                  f"  (dirty after: {rnd['dirty_bytes'] / 1e6:.1f} MB)")
    ok = all(r.ok for _l, r in outcome.get("ops", []))
    if cas:
        from .storage.cas import CasStore
        stats = CasStore.on(cluster.san).stats()
        print(f"cas: {stats['logical_bytes'] / 1e6:.1f} MB logical -> "
              f"{stats['stored_bytes'] / 1e6:.1f} MB stored "
              f"({stats['dedup_ratio']:.1f}x dedup); "
              f"footprint {stats['footprint_bytes'] / 1e6:.1f} MB, "
              f"gc reclaimed {stats['gc_reclaimed_bytes'] / 1e6:.1f} MB "
              f"over {stats['live_chunks']} live chunk(s)")
    finished = handle.ok(cluster)
    verified = finished and spec.verify(cluster, handle)
    print(f"application finished: {finished}; answer verified: {verified}")
    if tracer is not None:
        export(tracer, trace, fmt=trace_format)
        print(f"trace: {len(tracer.spans)} spans -> {trace} ({trace_format})")
        print(phase_timeline(tracer))
    if registry is not None:
        print(registry.render())
    return ok and verified


def run_campaign_trace(seed: int, out_path: str) -> bool:
    """Run one traced fleet-chaos episode; write the assembled artifacts.

    Writes the failover-stitched campaign trace as JSONL to
    ``out_path``, its Chrome ``trace_event`` view to
    ``out_path + ".chrome.json"`` and the SLO report to
    ``out_path + ".slo.json"``.  Deterministic: same seed, same bytes.
    """
    import json

    from .cluster import chaos
    from .obs import WallProfiler
    wall = WallProfiler()
    with wall.phase("simulate+assemble"):
        report = chaos.run("fleet", seed, trace_spans=True)
    got = report.outcome
    print(f"fleet-chaos seed {seed}: scenario {got['kind']}"
          + (f" targeting {','.join(got['targets'])}" if got["targets"] else "")
          + ("; Manager crashed mid-campaign and a replica finished the "
             "campaign" if report.manager_crashed else ""))
    if "assembled" not in got:
        print("no campaign was assembled (no campaign records in the ledger)")
        return False
    header = json.loads(got["assembled"].splitlines()[0])
    cov = header["coverage"]
    with wall.phase("write"):
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(got["assembled"])
        with open(out_path + ".chrome.json", "w", encoding="utf-8") as fh:
            fh.write(got["assembled_chrome"])
        with open(out_path + ".slo.json", "w", encoding="utf-8") as fh:
            json.dump(got["slo"], fh, sort_keys=True, indent=2)
            fh.write("\n")
    print(f"assembled campaign {header['cid']} ({header['kind']}, "
          f"{header['status']}): {header['nodes']} nodes, "
          f"owners {','.join(header['owners'])}")
    print(f"coverage: {cov['in_tree']}/{cov['units']} pod-units in tree"
          + (f", {len(cov['adopted'])} adopted after takeover"
             if cov["adopted"] else "")
          + ("" if cov["complete"] else f"; MISSING: {cov['missing']}"))
    print(f"trace: {out_path} (+ .chrome.json, .slo.json)")
    for v in report.violations:
        print(f"  violation: {v}")
    wall.render()
    return not report.violations


def run_fleet(nodes: int, pods: int, evacuate: int, seed: int = 0,
              max_inflight: int = 8, wave_size: Optional[int] = None,
              wave_barrier: bool = True, threshold: float = 0.25,
              retries: int = 1, budget: Optional[float] = None,
              faults: int = 0, audit: bool = False) -> bool:
    """Run the fleet evacuation demo and print the campaign report.

    With ``audit``, the run is traced and metered, the op ledger + span
    dump are stitched into one campaign trace, and the SLO auditor
    checks it against the budgets the campaign's own policy declared
    (``--budget`` becomes the per-pod downtime budget) — a failed audit
    fails the command.
    """
    from .fleet import run_evacuation_demo
    from .obs import WallProfiler
    wall = WallProfiler()
    print(f"fleet: evacuating blades 1..{evacuate} of {nodes} "
          f"({pods} pods), max {max_inflight} in flight"
          + (f", {faults} seeded soft fault(s)" if faults else ""))
    with wall.phase("simulate"):
        out = run_evacuation_demo(n_nodes=nodes, n_pods=pods,
                                  n_evacuate=evacuate, seed=seed,
                                  max_inflight=max_inflight,
                                  wave_size=wave_size,
                                  wave_barrier=wave_barrier,
                                  failure_threshold=threshold,
                                  retries=retries,
                                  downtime_budget=budget, n_faults=faults,
                                  trace_spans=audit, metrics=audit)
    res = out["result"]
    if res is None:
        print("campaign did not finish before the simulation horizon")
        return False
    counts = res.counts()
    print(f"campaign #{res.cid}: {res.status} in "
          f"{res.duration * 1000:.0f} ms (simulated); "
          f"{counts['ok']} ok / {counts['failed']} failed / "
          f"{counts['skipped']} skipped; peak {res.peak_inflight} in flight")
    print(f"  {'wave':>4}  {'pods':>4}  {'ok':>4}  {'failed':>6}  "
          f"{'window (ms)':>14}  {'max downtime':>12}")
    for w in res.waves:
        print(f"  {w.index:>4}  {w.ok + w.failed + w.skipped:>4}  "
              f"{w.ok:>4}  {w.failed:>6}  "
              f"{(w.t_end - w.t_start) * 1000:>11.1f} ms  "
              f"{w.max_downtime * 1000:>9.1f} ms")
    times = res.downtimes()
    if times:
        print(f"per-pod downtime over {len(times)} move(s): "
              + "  ".join(f"p{q} {res.downtime_percentile(q) * 1000:.1f} ms"
                          for q in (50, 90, 99)))
    if res.threshold_tripped:
        print(f"failure threshold ({threshold:.0%}) tripped: "
              "campaign halted, tail skipped")
    if res.budget_trips:
        print(f"downtime budget tripped on {len(res.budget_trips)} pod(s): "
              + ", ".join(sorted(res.budget_trips)[:8])
              + (" ..." if len(res.budget_trips) > 8 else ""))
    for err in res.errors:
        print(f"  error: {err}")
    if out["injector"] is not None and out["injector"].fired:
        for (t, kind, phase, node, pod) in out["injector"].fired:
            where = node or pod or "-"
            print(f"  fault @ {t * 1000:8.1f} ms: {kind} at «{phase}» ({where})")
    evac = set(out["evacuated"])
    cluster = out["cluster"]
    emptied = all(not cluster.node_by_name(n).kernel.pods for n in evac)
    landed = sum(len(n.kernel.pods) for n in cluster.nodes
                 if n.name not in evac)
    print(f"evacuated blades empty: {emptied}; "
          f"pods running on survivors: {landed}/{pods}")
    verdict = True
    if audit:
        from .obs import assemble_campaign, audit_campaign
        from .storage.ledger import OpLedger
        with wall.phase("assemble"):
            trace = assemble_campaign(OpLedger(cluster.san),
                                      dumps=(out["tracer"],), cid=res.cid)
        series = out["metrics"].series.to_columns()
        with wall.phase("audit"):
            slo = audit_campaign(trace, series=series)
        slo.render()
        wall.render()
        verdict = slo.ok
    return res.ok and emptied and landed == pods and verdict


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.zapc", description=__doc__)
    parser.add_argument("action",
                        choices=["snapshot", "migrate", "recover", "fleet",
                                 "trace"])
    parser.add_argument("--app", choices=list(APPS), default="CPI")
    parser.add_argument("--nodes", type=int, default=4)
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--compress", type=int, default=None, metavar="LEVEL",
                        choices=range(1, 10),
                        help="compress checkpoint images (zlib level 1-9)")
    parser.add_argument("--incremental", action="store_true",
                        help="delta-checkpoint against the previous epoch "
                             "(epoch 0 is full; later snapshots write dirty state)")
    parser.add_argument("--checkpoints", type=int, default=1,
                        help="snapshots to take (chains delta epochs)")
    parser.add_argument("--cas", action="store_true",
                        help="checkpoint through the content-addressed "
                             "store: chunked images, fleet-wide dedup, "
                             "refcounted GC (snapshot/recover actions)")
    parser.add_argument("--async", dest="async_ckpt", action="store_true",
                        help="zero-stall snapshots: resume the pods after "
                             "the capture window; encode and write-out "
                             "overlap application time")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a span trace of the run to PATH")
    parser.add_argument("--trace-format", choices=["jsonl", "chrome"],
                        default="chrome",
                        help="trace file format (default: chrome trace_event)")
    parser.add_argument("--metrics", action="store_true",
                        help="print the metrics registry after the run")
    parser.add_argument("--live", action="store_true",
                        help="migrate live: pre-copy memory while the app "
                             "runs, then stop-and-copy only the residual")
    parser.add_argument("--precopy-rounds", type=int,
                        default=DEFAULT_PRECOPY_ROUNDS, metavar="N",
                        help="max pre-copy rounds for --live "
                             f"(default: {DEFAULT_PRECOPY_ROUNDS})")
    parser.add_argument("--dirty-threshold", type=int,
                        default=DEFAULT_DIRTY_THRESHOLD, metavar="BYTES",
                        help="stop pre-copying once the residual dirty set "
                             f"falls to this (default: {DEFAULT_DIRTY_THRESHOLD})")
    parser.add_argument("--managers", type=int, default=1, metavar="N",
                        help="with N > 1, demo HA failover: crash the active "
                             "Manager mid-snapshot and let a standby replica "
                             "finish the op from the durable op ledger")
    fleet = parser.add_argument_group("fleet", "options for the fleet action")
    fleet.add_argument("--pods", type=int, default=96,
                       help="idle pods to populate (fleet action)")
    fleet.add_argument("--evacuate", type=int, default=None, metavar="N",
                       help="evacuate blades 1..N (default: 3/4 of --nodes)")
    fleet.add_argument("--max-inflight", type=int, default=8,
                       help="bounded concurrency: units in flight at once")
    fleet.add_argument("--wave-size", type=int, default=None,
                       help="units per wave (default: max-inflight)")
    fleet.add_argument("--no-barrier", action="store_true",
                       help="let waves overlap (no per-wave barrier)")
    fleet.add_argument("--threshold", type=float, default=0.25,
                       help="failed fraction that halts the campaign")
    fleet.add_argument("--retries", type=int, default=1,
                       help="per-pod retries before a unit counts failed")
    fleet.add_argument("--budget", type=float, default=None, metavar="S",
                       help="per-pod downtime budget in seconds (advisory)")
    fleet.add_argument("--faults", type=int, default=0, metavar="N",
                       help="inject N seeded soft faults at fleet phases")
    fleet.add_argument("--audit", action="store_true",
                       help="trace + meter the run, assemble the campaign "
                            "trace from the ledger, and SLO-audit it "
                            "against the policy's budgets (exit 1 on a "
                            "violated budget)")
    parser.add_argument("--campaign", action="store_true",
                        help="with the trace action: run a traced "
                             "fleet-chaos episode and write the assembled "
                             "failover-stitched campaign trace")
    args = parser.parse_args(argv)
    if args.action == "trace":
        if not args.campaign:
            raise SystemExit("the trace action requires --campaign")
        ok = run_campaign_trace(args.seed,
                                args.trace or "campaign-trace.jsonl")
        return 0 if ok else 1
    if args.action == "fleet":
        n_evac = args.evacuate if args.evacuate is not None \
            else max(1, (args.nodes * 3) // 4)
        ok = run_fleet(args.nodes, args.pods, n_evac, seed=args.seed,
                       max_inflight=args.max_inflight,
                       wave_size=args.wave_size,
                       wave_barrier=not args.no_barrier,
                       threshold=args.threshold, retries=args.retries,
                       budget=args.budget, faults=args.faults,
                       audit=args.audit)
        return 0 if ok else 1
    ok = run_demo(args.action, args.app, args.nodes, scale=args.scale,
                  seed=args.seed,
                  filters=parse_filter_args(args.compress, args.incremental) or None,
                  checkpoints=args.checkpoints, trace=args.trace,
                  trace_format=args.trace_format, metrics=args.metrics,
                  live=args.live, precopy_rounds=args.precopy_rounds,
                  dirty_threshold=args.dirty_threshold,
                  managers=args.managers, async_ckpt=args.async_ckpt,
                  cas=args.cas)
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    raise SystemExit(main())
