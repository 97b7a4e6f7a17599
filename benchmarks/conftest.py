"""Shared fixtures for the figure-regeneration benchmarks.

Each benchmark runs one experiment cell through the harness (simulated
time is deterministic; wall time measures simulator cost) and appends a
paper-style row to a session report printed at the end of the run.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict

import pytest

#: simulated-duration scale for benchmark runs (1.0 = paper-scale
#: durations; image sizes and network volumes are unaffected by scale).
SCALE = 1.0

#: suite name for the committed perf-trajectory file (BENCH_<suite>.json).
BENCH_SUITE = "core"

_reports = defaultdict(list)
_bench_metrics = {}


@pytest.fixture
def report():
    """Append rows as (table-name, row-tuple); printed at session end."""

    def add(table: str, row: tuple) -> None:
        _reports[table].append(row)

    return add


@pytest.fixture
def bench_json():
    """Record one cell of the BENCH_<suite>.json perf trajectory.

    Only *simulated*-time metrics belong here: they are deterministic,
    so the emitted file is byte-stable and CI can diff a regenerated
    copy against the committed one to gate hot-path regressions
    (ROADMAP item 3).  Set ``BENCH_JSON=<path>`` to write the file at
    session end.  (What the simulation costs to *run* is ``perfbench``'s
    ``wall_s``, measured over fresh interpreters.)
    """

    def add(key: str, **metrics) -> None:
        _bench_metrics[key] = {
            k: (round(v, 6) if isinstance(v, float) else v)
            for k, v in sorted(metrics.items())
        }

    return add


def pytest_sessionfinish(session, exitstatus):
    from repro.metrics import print_table

    headers = {
        "fig5": ("app", "nodes", "base [s]", "zapc [s]", "overhead [%]"),
        "fig6a": ("app", "nodes", "checkpoints", "mean ckpt [ms]", "net ckpt [ms]", "net share [%]"),
        "fig6b": ("app", "nodes", "restart [ms]", "net restore [ms]"),
        "fig6c": ("app", "nodes", "largest pod image [MB]", "network state [KB]"),
        "livemig": ("round cap", "rounds run", "downtime [ms]", "total [ms]",
                    "downtime [%]", "bailout"),
        "fleet": ("max inflight", "waves", "campaign [s]",
                  "p50 downtime [ms]", "p99 downtime [ms]", "pods ok"),
        "inc": ("mode", "epoch0 [MB]", "steady [MB]", "suspend [ms]",
                "ckpt [ms]", "chain"),
        "cas": ("cell", "logical [MB]", "stored [MB]", "dedup", "gc [MB]",
                "restore"),
        "ablations": ("experiment", "variant", "metric", "value"),
    }
    titles = {
        "fig5": "Figure 5 — completion times, vanilla (Base) vs ZapC",
        "fig6a": "Figure 6(a) — average checkpoint time (10 evenly spaced checkpoints)",
        "fig6b": "Figure 6(b) — restart time from a mid-execution image",
        "fig6c": "Figure 6(c) — average checkpoint image size (largest pod)",
        "livemig": "Live migration — downtime vs pre-copy rounds "
                   "(256 MB pod, 40 MB/s writes)",
        "fleet": "Fleet evacuation — 18 of 24 blades, 96 pods, "
                 "by in-flight cap",
        "inc": "Incremental generations — 2 writer pods, 64 MB ballast, "
               "8 MB/s writes",
        "cas": "Content-addressed store — dedup vs full images, "
               "cross-pod sharing, GC reclaim",
        "ablations": "Design ablations",
    }
    for name in ("fig5", "fig6a", "fig6b", "fig6c", "livemig", "fleet",
                 "inc", "cas", "ablations"):
        rows = _reports.get(name)
        if rows:
            print()
            print_table(titles[name], headers[name], sorted(rows, key=lambda r: (str(r[0]), str(r[1]))))
    path = os.environ.get("BENCH_JSON")
    if path and _bench_metrics:
        payload = {"schema": 1, "suite": BENCH_SUITE,
                   "metrics": dict(sorted(_bench_metrics.items()))}
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nbench metrics -> {path} ({len(_bench_metrics)} cells)")
