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

Each action reads only its own flags (:data:`FLAGS`); the checkpoint
and runbook flags set one :class:`~repro.fleet.FleetPolicy`.

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
import dataclasses
import json
from typing import List, Optional

from .cluster.builder import Cluster
from .core.manager import Manager, OpResult
from .core.pipeline import parse_filter_args
from .core.streaming import (
    DEFAULT_DIRTY_THRESHOLD,
    DEFAULT_PRECOPY_ROUNDS,
    migrate_task,
)
from .fleet import FleetPolicy, run_evacuation_demo
from .harness import APPS, _checkpoint_step, _run, layout
from .middleware.daemon import checkpoint_targets
from .obs import (MetricsRegistry, SpanTracer, WallProfiler, assemble_campaign,
                  audit_campaign, export, phase_timeline)

#: the application demos' default settings: unfiltered flat images, serial
#: checkpoints, stop-and-copy migration (live: 8 rounds, 1 MB residual).
DEMO_POLICY = FleetPolicy(live=False, precopy_rounds=DEFAULT_PRECOPY_ROUNDS,
                          dirty_threshold=DEFAULT_DIRTY_THRESHOLD)

#: the flags each action reads; any other flag set away from its default
#: is refused.  A flag whose ``dest`` is a :class:`FleetPolicy` field sets
#: that field (``--compress`` and ``--incremental`` set ``filters``).
FLAGS = {
    "snapshot": "--app --nodes --scale --seed --compress --incremental --checkpoints "
                "--cas --async --managers --trace --trace-format --metrics",
    "recover": "--app --nodes --scale --seed --compress --incremental --checkpoints "
               "--cas --async --trace --trace-format --metrics",
    "migrate": "--app --nodes --scale --seed --compress --incremental --live "
               "--precopy-rounds --dirty-threshold --trace --trace-format --metrics",
    "fleet": "--nodes --seed --pods --evacuate --max-inflight --wave-size --no-barrier "
             "--threshold --retries --budget --faults --audit",
    "trace": "--campaign --seed --trace",
}


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
        for title, chain in (("pipeline", result.filters.get(pod_id)),
                             ("rejected filters", result.filters_rejected.get(pod_id))):
            if chain:
                print(f"    {title}: " + " | ".join(e.get("name", "?") for e in chain))
    for err in result.errors:
        print(f"  error: {err}")


def _failover_checkpoint(manager: Manager, delay: float, targets, **options):
    """The HA demo's victim op (generator): after ``delay``, ``manager``
    is crashed at the checkpoint's ``continue`` crossing, and once its
    lease expires a standby replica claims the orphan from the op
    ledger.  Returns ``(result, the Manager now active)``."""
    engine = manager.cluster.engine
    lease_s = 3.0
    yield engine.sleep(delay)
    task = manager.checkpoint(targets, lease_s=lease_s, **options)
    yield engine.timeout(task.finished, 120.0)
    if not manager.crashed:
        return task.finished.result, manager
    print(f"{manager.name} crashed mid-checkpoint; standby "
          f"waits out the {lease_s:.0f} s ledger lease")
    yield engine.sleep(lease_s + 1.0)
    replica = Manager.deploy_replica(manager.cluster, manager.agents,
                                     name="mgr1")
    actions = yield from replica.takeover_task(lease_s=lease_s)
    for op_id, phase, what in actions:
        print(f"  op {op_id}: orphaned at «{phase}» -> {what}")
    return (replica.last_checkpoint
            or OpResult("checkpoint", "failed", 0.0, engine.now)), replica


def run_demo(action: str, app: str, nodes: int,
             policy: Optional[FleetPolicy] = None, scale: float = 0.5,
             seed: int = 0, checkpoints: int = 1, trace: Optional[str] = None,
             trace_format: str = "chrome", metrics: bool = False,
             managers: int = 1) -> bool:
    """Run one demo scenario; returns True when everything verified.

    ``policy`` (None = :data:`DEMO_POLICY`) holds the checkpoint and
    migration settings.  A migration moves the pods of blade *k* to
    spare blade ``blades + k``; with ``policy.cas`` the run ends with the
    store's cost accounting.

    ``trace`` writes a span trace of the whole run to a file
    (``trace_format``: ``chrome`` for ``chrome://tracing`` / Perfetto,
    ``jsonl`` for the deterministic line-delimited dump) and prints the
    phase timeline; ``metrics`` prints the metrics registry tables.

    ``managers`` > 1 turns a snapshot into the HA failover demo
    (:func:`_failover_checkpoint` is its first checkpoint).

    A failed checkpoint, or a run that finishes before its first one,
    raises ``RuntimeError``.
    """
    policy = policy if policy is not None else DEMO_POLICY
    spec = APPS[app]
    if nodes not in spec.node_counts:
        raise SystemExit(f"{app} supports node counts {spec.node_counts}")
    blades, ncpus = layout(nodes)
    spares = blades if action == "migrate" else 0  # a migration's destinations
    cluster = Cluster.build(blades + spares, ncpus=ncpus, seed=seed)
    engine = cluster.engine
    tracer = SpanTracer(engine).install(cluster) if trace else None
    registry = MetricsRegistry().install(cluster) if metrics else None
    manager = Manager.deploy(cluster)
    failover = managers > 1 and action == "snapshot"
    if failover:
        from .cluster.faults import FaultInjector, FaultPlan, FaultSpec
        FaultInjector(cluster, FaultPlan(seed=seed, faults=[
            FaultSpec(kind="crash_manager", phase="manager.ledger.continue"),
        ])).install()
    handle = spec.launch_pods(cluster, nodes, scale)
    expected = spec.work_seconds(nodes, scale)
    print(f"{app} on {nodes} node(s) ({blades} blade(s)); "
          f"expected run ≈ {expected:.1f} s simulated")
    via_cas = policy.cas and action != "migrate"
    targets = checkpoint_targets(handle, cluster)
    if via_cas or action == "recover":
        scheme = "cas" if via_cas else "file"
        targets = [(n, p, f"{scheme}:/san/{p}.img") for n, p, _u in targets]
    options = dict(filters=policy.filters, async_ckpt=policy.async_ckpt)
    ops, migs = [], []

    def orchestrate():
        delay = max(0.05, expected * 0.4)
        if action == "migrate":
            yield engine.sleep(delay)
            moves = [(n, p, f"blade{blades + cluster.node_by_name(n).index}")
                     for n, p, _u in targets]
            print("migrating:", ", ".join(f"{p}:{s}->{d}" for s, p, d in moves))
            mig = yield from migrate_task(
                manager, moves, filters=policy.filters, live=policy.live,
                precopy_rounds=policy.precopy_rounds,
                dirty_threshold=policy.dirty_threshold)
            ops.extend([("checkpoint", mig.checkpoint), ("restart", mig.restart)])
            migs.append(mig)
            return
        # the checkpoint loop snapshot and recover share; only the first
        # checkpoint needs the application still running
        active = manager
        for i in range(max(1, checkpoints)):
            if failover and i == 0:
                result, active = yield from _failover_checkpoint(
                    active, delay, targets, **options)
            else:
                result = yield from _checkpoint_step(
                    active, delay, lambda: not ops and handle.ok(cluster),
                    targets, **options)
            if result is None:
                raise RuntimeError(f"{app} on {nodes} nodes at scale {scale} "
                                   "finished before its first checkpoint")
            ops.append((f"checkpoint #{i}" if checkpoints > 1 else "checkpoint",
                        result))
            delay = max(0.02, expected * 0.05)
        if action == "recover":
            # simulated crash of every pod, then recovery from the SAN
            for _n, pod_id, _u in targets:
                cluster.find_pod(pod_id).destroy()
            restart = yield from manager.restart_task(targets)
            ops.append(("restart", restart))

    _run(cluster, orchestrate(), "zapc-cli", until=3600.0)
    for label, result in ops:
        _print_op(result, label)
    for mig in (m for m in migs if m.live):
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
    ok = all(r.ok for _l, r in ops)
    if via_cas:
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
    from .cluster import chaos
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


def run_fleet(nodes: int, pods: int, evacuate: int,
              policy: Optional[FleetPolicy] = None, seed: int = 0,
              faults: int = 0, audit: bool = False) -> bool:
    """Run the fleet evacuation demo under ``policy`` (None =
    :class:`FleetPolicy`'s defaults) and print the campaign report.

    With ``audit``, the run is traced and metered, the op ledger + span
    dump are stitched into one campaign trace, and the SLO auditor
    checks it against the budgets the campaign's own policy declared
    (``--budget`` becomes the per-pod downtime budget) — a failed audit
    fails the command.
    """
    policy = policy if policy is not None else FleetPolicy()
    wall = WallProfiler()
    print(f"fleet: evacuating blades 1..{evacuate} of {nodes} "
          f"({pods} pods), max {policy.max_inflight} in flight"
          + (f", {faults} seeded soft fault(s)" if faults else ""))
    with wall.phase("simulate"):
        out = run_evacuation_demo(n_nodes=nodes, n_pods=pods, n_evacuate=evacuate,
                                  seed=seed, policy=policy, n_faults=faults,
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
        print(f"failure threshold ({policy.failure_threshold:.0%}) tripped: "
              "campaign halted, tail skipped")
    if res.budget_trips:
        print(f"downtime budget tripped on {len(res.budget_trips)} pod(s): "
              + ", ".join(sorted(res.budget_trips)[:8])
              + (" ..." if len(res.budget_trips) > 8 else ""))
    for err in res.errors:
        print(f"  error: {err}")
    if out["injector"] is not None and out["injector"].fired:
        for (t, kind, phase, node, pod) in out["injector"].fired:
            print(f"  fault @ {t * 1000:8.1f} ms: {kind} at «{phase}» "
                  f"({node or pod or '-'})")
    evac = set(out["evacuated"])
    cluster = out["cluster"]
    emptied = all(not cluster.node_by_name(n).kernel.pods for n in evac)
    landed = sum(len(n.kernel.pods) for n in cluster.nodes
                 if n.name not in evac)
    print(f"evacuated blades empty: {emptied}; "
          f"pods running on survivors: {landed}/{pods}")
    verdict = True
    if audit:
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
    parser.add_argument("action", choices=list(FLAGS))
    fleet = parser.add_argument_group("fleet", "options for the fleet action")
    flags = []

    def flag(group, *names, **kw):
        flags.append(group.add_argument(*names, **kw))

    flag(parser, "--app", choices=list(APPS), default="CPI")
    flag(parser, "--nodes", type=int, default=4)
    flag(parser, "--scale", type=float, default=0.5)
    flag(parser, "--seed", type=int, default=0)
    flag(parser, "--compress", type=int, metavar="LEVEL", choices=range(1, 10),
         help="compress checkpoint images (zlib level 1-9)")
    flag(parser, "--incremental", action="store_true",
         help="delta-checkpoint against the previous epoch (epoch 0 is full)")
    flag(parser, "--checkpoints", type=int, default=1,
         help="snapshots to take (chains delta epochs)")
    flag(parser, "--cas", action="store_true",
         help="checkpoint through the content-addressed store (chunked, deduped)")
    flag(parser, "--async", dest="async_ckpt", action="store_true",
         help="zero-stall snapshots: encode and write-out overlap the application")
    flag(parser, "--trace", metavar="PATH", help="write a span trace of the run to PATH")
    flag(parser, "--trace-format", choices=["jsonl", "chrome"], default="chrome",
         help="trace file format (default: chrome trace_event)")
    flag(parser, "--metrics", action="store_true", help="print the metrics registry")
    flag(parser, "--live", action="store_true",
         help="migrate live: pre-copy memory, then stop-and-copy the residual")
    flag(parser, "--precopy-rounds", type=int, default=DEFAULT_PRECOPY_ROUNDS,
         metavar="N", help=f"max pre-copy rounds (default: {DEFAULT_PRECOPY_ROUNDS})")
    flag(parser, "--dirty-threshold", type=int, default=DEFAULT_DIRTY_THRESHOLD,
         metavar="BYTES", help="stop pre-copying once the residual dirty set "
                               f"falls to this (default: {DEFAULT_DIRTY_THRESHOLD})")
    flag(parser, "--managers", type=int, default=1, metavar="N",
         help="with N > 1, crash the active Manager mid-snapshot and let a "
              "standby replica finish the op from the durable op ledger")
    flag(fleet, "--pods", type=int, default=96, help="idle pods to populate")
    flag(fleet, "--evacuate", type=int, metavar="N",
         help="evacuate blades 1..N (default: 3/4 of --nodes)")
    flag(fleet, "--max-inflight", type=int, default=8, help="units in flight at once")
    flag(fleet, "--wave-size", type=int, help="units per wave (default: max-inflight)")
    flag(fleet, "--no-barrier", dest="wave_barrier", action="store_false",
         help="let waves overlap (no per-wave barrier)")
    flag(fleet, "--threshold", dest="failure_threshold", type=float, default=0.25,
         metavar="F", help="failed fraction that halts the campaign")
    flag(fleet, "--retries", type=int, default=1, help="per-pod retries before failing")
    flag(fleet, "--budget", dest="downtime_budget", type=float,
         metavar="S", help="per-pod downtime budget in seconds (advisory)")
    flag(fleet, "--faults", type=int, default=0, metavar="N",
         help="inject N seeded soft faults at fleet phases")
    flag(fleet, "--audit", action="store_true",
         help="trace, meter and SLO-audit the campaign against the policy's "
              "budgets (exit 1 on a violated budget)")
    flag(parser, "--campaign", action="store_true",
         help="with trace: write a traced fleet-chaos episode's campaign trace")
    args = parser.parse_args(argv)
    reads = FLAGS[args.action].split()
    settings = {field.name for field in dataclasses.fields(FleetPolicy)}
    fields = {}
    for opt in flags:
        name, value = opt.option_strings[0], getattr(args, opt.dest)
        if name not in reads:
            if value != opt.default:
                raise SystemExit(f"zapc: {name} does not apply to {args.action}")
        elif opt.dest in settings:
            fields[opt.dest] = value
    if "--compress" in reads:
        fields["filters"] = parse_filter_args(args.compress, args.incremental) or None
    base = FleetPolicy() if args.action == "fleet" else DEMO_POLICY
    policy = dataclasses.replace(base, **fields)
    if args.action == "trace":
        if not args.campaign:
            raise SystemExit("the trace action requires --campaign")
        ok = run_campaign_trace(args.seed, args.trace or "campaign-trace.jsonl")
    elif args.action == "fleet":
        n_evac = args.evacuate if args.evacuate is not None \
            else max(1, (args.nodes * 3) // 4)
        ok = run_fleet(args.nodes, args.pods, n_evac, policy, seed=args.seed,
                       faults=args.faults, audit=args.audit)
    else:
        try:
            ok = run_demo(args.action, args.app, args.nodes, policy, scale=args.scale,
                          seed=args.seed, checkpoints=args.checkpoints, trace=args.trace,
                          trace_format=args.trace_format, metrics=args.metrics,
                          managers=args.managers)
        except RuntimeError as err:
            # a run too short for its first checkpoint, or a failed
            # checkpoint, names itself; no traceback
            raise SystemExit(str(err)) from None
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    raise SystemExit(main())
