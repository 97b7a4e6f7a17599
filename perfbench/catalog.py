"""Every metric the benchmark reports: name, unit, direction, bound.

``BENCHMARK.json`` at the repository root restates these lists for the
pipeline that runs the benchmark; ``--selftest`` fails when the two
disagree.  README.md explains each bound and maps every per-layer
metric to the end-to-end metric it should move.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .drills import DRILLS
from .layers import LAYERS, SPAN_TABLE_KEYS

#: timed seconds of one run of one workload (``--seconds``)
RUN_SECONDS = 12

#: (name, unit, better, bound): reported by every workload, tracing off.
#: ``bound`` is the share of the parent commit's median by which the
#: metric may worsen before a change counts as a regression.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("wall_s", "s", "lower", 0.20),
    ("sim_makespan_s", "s", "lower", 0.02),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
]

#: the paper's own numbers.  They apply to some workloads only (no
#: checkpoint is taken in apprun-mpi16, nothing restarts in ckpt-mpi16),
#: so they cannot be in END_TO_END, where every workload must report a
#: non-zero value; they read 0 where the workload has no such operation.
#: On the simulated clock they repeat exactly, so compare.py flags any
#: change at all.
PAPER: List[Tuple[str, str, str]] = [
    ("sim_ckpt_ms", "ms", "lower"),
    ("sim_restart_ms", "ms", "lower"),
    ("sim_downtime_ms", "ms", "lower"),
    ("sim_stored_mb", "MB", "lower"),
    ("sim_logical_mb", "MB", "lower"),
    ("ops_failed_ratio", "ratio", "lower"),
]

_ENGINE = [("sim.events", "count", "lower"), ("sim.us_per_event", "us", "lower")]

_SIM_TABLES = [(key, "ms", "lower") for key in SPAN_TABLE_KEYS] + [
    ("simck.serialize_ms", "ms", "lower"),
    ("simck.filter_ms", "ms", "lower"),
    ("simck.write_ms", "ms", "lower"),
    ("simck.network_ms", "ms", "lower"),
    ("simfl.waves", "count", "lower"),
    ("simfl.wave_p50_ms", "ms", "lower"),
    ("simfl.peak_inflight", "count", "higher"),
    ("simfl.ledger_appends", "count", "lower"),
]

_STORAGE = [
    ("cas.logical_mb", "MB", "lower"),
    ("cas.stored_mb", "MB", "lower"),
    ("cas.dedup_ratio", "ratio", "higher"),
    ("cas.live_chunks", "count", "lower"),
    ("cas.dup_hits", "count", "higher"),
    ("cas.gc_reclaimed_mb", "MB", "higher"),
    ("ledger.records", "count", "lower"),
    ("ledger.bytes", "bytes", "lower"),
    ("image.netstate_kb", "KB", "lower"),
]


def _drill_direction(name: str) -> str:
    return "lower" if name.endswith("_ms") else "higher"


PER_LAYER: List[Tuple[str, str, str]] = (
    [(f"host.{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [(f"host.{layer}.calls", "count", "lower") for layer in LAYERS]
    + _ENGINE + _SIM_TABLES + _STORAGE
    + [(name, unit, _drill_direction(name)) for name, (unit, _fn) in DRILLS.items()]
    + [("obs.trace_overhead", "ratio", "lower")]
    + PAPER
)

#: per-layer metrics that repeat exactly for one seed on one commit
EXACT_PREFIXES = ("sim", "cas.", "ledger.", "image.", "ops_failed_ratio")


def is_exact(name: str) -> bool:
    """True for counts and simulated-clock values (not host timings)."""
    return (name.startswith(EXACT_PREFIXES) and name != "sim.us_per_event") \
        or name.endswith(".calls")


def may_not_apply(name: str) -> bool:
    """True for per-layer metrics of operations a workload may not run
    (they then read 0); any other metric missing from a run is a bug."""
    return name.startswith(("sim_", "simck.", "simrs.", "simfl.", "cas.",
                            "image."))


def manifest(workloads: Dict[str, str]) -> Dict[str, object]:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "perfbench"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in workloads.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
