"""Command-line figure regeneration: ``python -m repro.figures``.

Prints every table of the paper's Section 6 (Figures 5, 6a, 6b, 6c and
the network-state size claim) from fresh simulation runs.  Options::

    python -m repro.figures                # everything, paper scale
    python -m repro.figures --fig 5       # one figure
    python -m repro.figures --scale 0.2   # shorter runs (sizes unchanged)
    python -m repro.figures --app CPI     # one application
"""

from __future__ import annotations

import argparse
from typing import Any, Dict, List, Optional

from .core.pipeline import parse_filter_args
from .harness import (APPS, run_fig5_row, run_fig6_cell, run_fig6b_cell,
                      run_migration_cell)
from .metrics import print_table

Filters = Optional[List[Dict[str, Any]]]


def fig5(apps: List[str], scale: float, filters: Filters = None) -> None:
    rows = []
    for app in apps:
        for nodes in APPS[app].node_counts:
            cell = run_fig5_row(app, nodes, scale=scale)
            rows.append((app, nodes, f"{cell.base_time:.3f}", f"{cell.zapc_time:.3f}",
                         f"{cell.overhead_pct:.4f}"))
    print_table("Figure 5 — completion time [s], Base vs ZapC",
                ("app", "nodes", "base", "zapc", "overhead %"), rows)


def fig6a(apps: List[str], scale: float, filters: Filters = None) -> None:
    rows = []
    phase_rows = []
    for app in apps:
        for nodes in APPS[app].node_counts:
            cell = run_fig6_cell(app, nodes, scale=scale, filters=filters)
            share = 100 * cell.mean_network_ckpt / cell.mean_checkpoint
            rows.append((app, nodes, len(cell.checkpoint_times),
                         f"{cell.mean_checkpoint * 1000:.0f}",
                         f"{cell.mean_network_ckpt * 1000:.2f}", f"{share:.1f}",
                         f"{cell.mean_stage('serialize') * 1000:.2f}",
                         f"{cell.mean_stage('filter') * 1000:.2f}",
                         f"{cell.mean_stage('write') * 1000:.2f}"))
            phase_rows.append((app, nodes,
                               f"{cell.mean_phase('suspend') * 1000:.2f}",
                               f"{cell.mean_phase('netstate') * 1000:.2f}",
                               f"{cell.mean_phase('meta_report') * 1000:.2f}",
                               f"{cell.mean_phase('standalone') * 1000:.2f}",
                               f"{cell.mean_phase('barrier') * 1000:.2f}",
                               f"{cell.mean_phase('commit') * 1000:.2f}"))
    print_table("Figure 6(a) — checkpoint time (with pipeline stage split)",
                ("app", "nodes", "ckpts", "mean [ms]", "network [ms]", "net share %",
                 "serialize [ms]", "filter [ms]", "write [ms]"),
                rows)
    print_table("Figure 6(a) — protocol phase breakdown from spans [ms, "
                "mean of per-checkpoint max across pods]",
                ("app", "nodes", "suspend", "netstate", "meta", "standalone",
                 "barrier", "commit"),
                phase_rows)


def fig6b(apps: List[str], scale: float, filters: Filters = None) -> None:
    rows = []
    for app in apps:
        for nodes in APPS[app].node_counts:
            cell = run_fig6b_cell(app, nodes, scale=scale, filters=filters)
            rows.append((app, nodes, f"{cell.restart_time * 1000:.0f}",
                         f"{cell.network_restart_time * 1000:.1f}"))
    print_table("Figure 6(b) — restart time from a mid-execution image",
                ("app", "nodes", "restart [ms]", "network restore [ms]"), rows)


def fig6c(apps: List[str], scale: float, filters: Filters = None) -> None:
    rows = []
    for app in apps:
        for nodes in APPS[app].node_counts:
            cell = run_fig6_cell(app, nodes, scale=scale, n_checkpoints=5,
                                 filters=filters)
            rows.append((app, nodes, f"{cell.mean_image_size / 1e6:.1f}",
                         f"{cell.mean_raw_image_mb:.1f}",
                         f"{cell.max_netstate}"))
    print_table("Figure 6(c) — largest-pod checkpoint image size",
                ("app", "nodes", "image [MB]", "raw [MB]", "network state [B]"),
                rows)


def figmig(apps: List[str], scale: float, filters: Filters = None) -> None:
    """Live migration: downtime vs pre-copy round cap (not a paper
    figure — the downtime study the paper's direct-migration section
    motivates).  A 256 MB pod rewriting 40 MB/s moves between blades;
    cap 0 is plain stop-and-copy."""
    rows = []
    for cap in (0, 1, 2, 4, 8):
        cell = run_migration_cell(cap)
        rows.append((cap, cell.rounds_run,
                     f"{cell.downtime * 1000:.1f}",
                     f"{cell.total_time * 1000:.0f}",
                     f"{100 * cell.downtime_ratio:.1f}",
                     f"{cell.precopy_bytes / 1e6:.1f}",
                     cell.bailout or "-"))
    print_table("Live migration — downtime vs pre-copy rounds "
                "(256 MB pod, 40 MB/s writes)",
                ("round cap", "rounds run", "downtime [ms]", "total [ms]",
                 "downtime %", "pre-copied [MB]", "bailout"), rows)


def figinc(apps: List[str], scale: float, filters: Filters = None) -> None:
    """Incremental generations: image bytes, suspend window and
    end-to-end time per epoch, by pipeline mode (not a paper figure —
    the dirty-delta / zero-stall study; the same writing workload is
    checkpointed under each configuration)."""
    from .harness import INC_MODES, run_inc_cell
    rows = []
    for mode in INC_MODES:
        cell = run_inc_cell(mode)
        for epoch, (img, raw, susp, e2e) in enumerate(zip(
                cell.image_sizes, cell.raw_image_sizes,
                cell.suspend_windows, cell.checkpoint_times)):
            rows.append((mode, epoch, f"{img / 1e6:.2f}", f"{raw / 1e6:.1f}",
                         f"{susp * 1000:.1f}", f"{e2e * 1000:.1f}",
                         "ok" if cell.chain_ok else "BROKEN"))
    print_table("Incremental generations — 2 writer pods, 64 MB ballast, "
                "8 MB/s writes (epoch 0 is the full base)",
                ("mode", "epoch", "image [MB]", "raw [MB]", "suspend [ms]",
                 "end-to-end [ms]", "chain"), rows)


def figcas(apps: List[str], scale: float, filters: Filters = None) -> None:
    """Content-addressed store: SAN bytes by sink mode (not a paper
    figure — the dedup study; the generational writer workload is
    checkpointed to the SAN under each sink configuration, and a fleet
    checkpoint over the evacuation world shows the cross-pod dedup)."""
    from .harness import CAS_MODES, run_cas_cell
    rows = []
    baseline = None
    for mode in CAS_MODES:
        cell = run_cas_cell(mode)
        if mode == "file-full":
            baseline = cell.stored_total
        reduction = baseline / cell.stored_total if cell.stored_total else 0.0
        for epoch, (logical, stored) in enumerate(zip(cell.logical_sizes,
                                                      cell.stored_sizes)):
            rows.append((mode, epoch, f"{logical / 1e6:.1f}",
                         f"{stored / 1e6:.2f}", f"{cell.dedup_ratio:.1f}",
                         f"{reduction:.1f}",
                         "ok" if cell.restore_ok else "BROKEN"))
    print_table("Content-addressed store — 2 writer pods, 64 MB ballast, "
                "4 MB/s writes, 8 generations",
                ("mode", "epoch", "logical [MB]", "to SAN [MB]",
                 "dedup ratio", "vs full", "restore"), rows)
    from .fleet import run_cas_fleet_demo
    out = run_cas_fleet_demo()
    rows = [(out["n_pods"], f"{out['logical_bytes'] / 1e6:.1f}",
             f"{out['stored_bytes'] / 1e6:.1f}",
             f"{out['cross_pod_dup_bytes'] / 1e6:.1f}",
             f"{out['dedup_ratio']:.1f}",
             f"{out['san_file_bytes'] / 1e6:.1f}")]
    print_table("Fleet checkpoint through the CAS — cross-pod dedup "
                "(evacuation world)",
                ("pods", "logical [MB]", "stored [MB]", "cross-pod dup [MB]",
                 "dedup ratio", "file-mode SAN [MB]"), rows)


def figfailover(apps: List[str], scale: float, filters: Filters = None) -> None:
    """HA Manager failover: one chaos episode per ledger crash point
    (not a paper figure — the Manager is the paper's lone unreplicated
    component; this table shows a standby replica resolving the orphan
    left at every phase boundary)."""
    from .cluster import chaos
    from .cluster.faults import MANAGER_PHASES
    rows = []
    for crash_phase in MANAGER_PHASES:
        rep = chaos.run("failover", 0, crash_phase=crash_phase)
        claimed = rep.outcome.get("takeover", [])
        rows.append((crash_phase.split("manager.ledger.")[-1],
                     ", ".join(f"op{o}@{p}" for o, p, _w in claimed) or "-",
                     ", ".join(w for _o, _p, w in claimed) or "none orphaned",
                     len(rep.ops),
                     "yes" if rep.app_finished else "no",
                     "ok" if not rep.violations else f"{len(rep.violations)}!"))
    print_table("Manager failover — replica takeover per ledger crash point "
                "(seed 0)",
                ("crash at", "orphan claimed", "outcome", "ops run",
                 "app done", "invariants"), rows)


def figfleet(apps: List[str], scale: float, filters: Filters = None) -> None:
    """Fleet orchestration: evacuation sweep over the in-flight cap (not
    a paper figure — rolling waves over the paper's per-pod ops; the
    table shows the concurrency/downtime trade at a fixed fleet)."""
    from .fleet import FleetPolicy, run_evacuation_demo
    rows = []
    for max_inflight in (1, 2, 4, 8, 16):
        out = run_evacuation_demo(n_nodes=24, n_pods=96, n_evacuate=18, seed=0,
                                  policy=FleetPolicy(max_inflight=max_inflight))
        res = out["result"]
        counts = res.counts()
        rows.append((max_inflight, len(res.waves),
                     f"{res.duration:.3f}",
                     f"{res.downtime_percentile(50) * 1000:.1f}",
                     f"{res.downtime_percentile(99) * 1000:.1f}",
                     f"{counts['ok']}/{len(res.pods)}",
                     res.peak_inflight))
    print_table("Fleet evacuation — 18 of 24 blades, 96 pods, by in-flight "
                "cap (seed 0)",
                ("max inflight", "waves", "campaign [s]", "p50 downtime [ms]",
                 "p99 downtime [ms]", "pods ok", "peak inflight"), rows)


def figtimeline(apps: List[str], scale: float, filters: Filters = None) -> None:
    """Fleet timeline: downtime / in-flight / bytes over simulated time
    (not a paper figure — the windowed-series view of the evacuation the
    fleet figure summarizes; each row is one window of the campaign)."""
    from .fleet import run_evacuation_demo
    out = run_evacuation_demo(metrics=True, series_window_s=0.05)
    cols = out["metrics"].series.to_columns()
    series = cols["series"]
    window_ms = cols["window_s"] * 1000

    def col(name, i, fmt="{:.1f}", scale_by=1.0):
        v = series.get(name, [None] * len(cols["t"]))[i]
        return "-" if v is None else fmt.format(v * scale_by)

    rows = []
    for i, t in enumerate(cols["t"]):
        moved = series.get("fleet.pod_downtime.count", [0] * len(cols["t"]))[i]
        bytes_rate = sum(
            (series.get(f"agent.{k}.bytes.rate", [0.0] * len(cols["t"]))[i]
             or 0.0) for k in ("netstate", "flush", "restore"))
        rows.append((f"{t * 1000:.0f}", col("fleet.inflight.max", i, "{:.0f}"),
                     moved,
                     col("fleet.pod_downtime.p50", i, "{:.1f}", 1000),
                     col("fleet.pod_downtime.p99", i, "{:.1f}", 1000),
                     f"{bytes_rate / 1e6:.1f}"))
    res = out["result"]
    print_table(
        f"Fleet timeline — campaign #{res.cid} ({res.status}), "
        f"{window_ms:.0f} ms windows",
        ("t [ms]", "inflight", "moved", "downtime p50 [ms]",
         "downtime p99 [ms]", "bytes [MB/s]"), rows)


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fig", choices=["5", "6a", "6b", "6c", "mig", "inc",
                                          "cas", "failover", "fleet",
                                          "timeline", "all"],
                        default="all")
    parser.add_argument("--app", choices=list(APPS), default=None)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="duration scale (image sizes unaffected)")
    parser.add_argument("--compress", type=int, default=None, metavar="LEVEL",
                        choices=range(1, 10),
                        help="compress images through the pipeline (zlib level 1-9)")
    parser.add_argument("--incremental", action="store_true",
                        help="delta-checkpoint against the previous epoch")
    args = parser.parse_args(argv)
    apps = [args.app] if args.app else list(APPS)
    filters = parse_filter_args(args.compress, args.incremental) or None
    runners = {"5": fig5, "6a": fig6a, "6b": fig6b, "6c": fig6c, "mig": figmig,
               "inc": figinc, "cas": figcas, "failover": figfailover,
               "fleet": figfleet, "timeline": figtimeline}
    for name, fn in runners.items():
        if args.fig in (name, "all"):
            try:
                fn(apps, args.scale, filters)
            except RuntimeError as err:
                # a cell that could not measure (a run too short for
                # its checkpoint, say) names itself; no traceback
                raise SystemExit(str(err)) from None


if __name__ == "__main__":
    main()
