"""Result records and paper-style table/series formatting."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence


@dataclass
class Fig5Cell:
    """One point of Figure 5: completion time for (app, nodes, system)."""

    app: str
    nodes: int
    base_time: float
    zapc_time: float

    @property
    def overhead_pct(self) -> float:
        if self.base_time == 0:
            return 0.0
        return 100.0 * (self.zapc_time - self.base_time) / self.base_time


class _CheckpointSeries:
    """What a cell that takes a series of checkpoints reports:
    ``checkpoint_times``, one end-to-end time [s] (Manager invoke →
    commit) per checkpoint."""

    checkpoint_times: List[float]

    @property
    def mean_checkpoint(self) -> float:
        return statistics.mean(self.checkpoint_times) if self.checkpoint_times else 0.0


class _ImageSeries(_CheckpointSeries):
    """... plus ``image_sizes``, the largest pod's image per checkpoint
    (epoch 0 is the full base a delta filter diffs against)."""

    image_sizes: List[int]

    @property
    def epoch0_image_size(self) -> int:
        """The first (full) checkpoint image — the delta filter's base."""
        return self.image_sizes[0] if self.image_sizes else 0

    @property
    def steady_state_image_size(self) -> int:
        """Mean image size once incremental checkpointing is warm
        (every epoch after the first full image)."""
        tail = self.image_sizes[1:]
        return int(statistics.mean(tail)) if tail else 0


@dataclass
class Fig6Cell(_ImageSeries):
    """One point of Figure 6: checkpoint/restart metrics for (app, nodes)."""

    app: str
    nodes: int
    checkpoint_times: List[float] = field(default_factory=list)
    network_ckpt_times: List[float] = field(default_factory=list)
    restart_time: Optional[float] = None
    network_restart_time: Optional[float] = None
    image_sizes: List[int] = field(default_factory=list)
    netstate_sizes: List[int] = field(default_factory=list)
    #: per-checkpoint image sizes *before* any pipeline filter ran —
    #: equals ``image_sizes`` when no filters are configured.
    raw_image_sizes: List[int] = field(default_factory=list)
    #: per-stage pipeline timing, stage name -> one sample per checkpoint
    #: (``serialize`` / ``filter`` / ``write``).
    stage_times: Dict[str, List[float]] = field(default_factory=dict)
    #: span-derived protocol-phase timing, phase name -> one sample per
    #: checkpoint (max across pods, like the end-to-end latency).
    phase_times: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def mean_network_ckpt(self) -> float:
        return statistics.mean(self.network_ckpt_times) if self.network_ckpt_times else 0.0

    @property
    def mean_image_size(self) -> int:
        return int(statistics.mean(self.image_sizes)) if self.image_sizes else 0

    @property
    def mean_raw_image_mb(self) -> float:
        """Mean pre-filter image size, in MB (10^6 bytes)."""
        raw = self.raw_image_sizes
        return sum(raw) / len(raw) / 1e6 if raw else 0.0

    @property
    def max_netstate(self) -> int:
        return max(self.netstate_sizes, default=0)

    def add_stage_time(self, stage: str, seconds: float) -> None:
        self.stage_times.setdefault(stage, []).append(seconds)

    def mean_stage(self, stage: str) -> float:
        """Mean seconds one pipeline stage contributed per checkpoint."""
        samples = self.stage_times.get(stage)
        return statistics.mean(samples) if samples else 0.0

    def add_phase_time(self, phase: str, seconds: float) -> None:
        self.phase_times.setdefault(phase, []).append(seconds)

    def mean_phase(self, phase: str) -> float:
        """Mean seconds one protocol phase contributed per checkpoint
        (from the span tracer's per-operation breakdown)."""
        samples = self.phase_times.get(phase)
        return statistics.mean(samples) if samples else 0.0


@dataclass
class IncCell(_ImageSeries):
    """One mode of the incremental-generations study: a writing workload
    checkpointed every epoch under one image-pipeline configuration
    (``full`` / ``delta`` / ``delta-async``)."""

    mode: str
    #: per-epoch largest-pod image bytes (epoch 0 is the full base).
    image_sizes: List[int] = field(default_factory=list)
    raw_image_sizes: List[int] = field(default_factory=list)
    #: per-epoch pod suspend window [s]: capture-only under async,
    #: the whole local checkpoint otherwise.
    suspend_windows: List[float] = field(default_factory=list)
    #: per-epoch end-to-end checkpoint time [s] (manager invoke→commit).
    checkpoint_times: List[float] = field(default_factory=list)
    #: every committed delta chain reassembled byte-identical to the
    #: agent's full base (vacuously True for unchained modes).
    chain_ok: bool = True

    @property
    def mean_suspend(self) -> float:
        return statistics.mean(self.suspend_windows) if self.suspend_windows else 0.0


@dataclass
class CasCell(_CheckpointSeries):
    """One mode of the content-addressed-store study: the generational
    writer workload checkpointed to the SAN under one sink/pipeline
    configuration (``file-full`` / ``cas-full`` / ``cas-delta``)."""

    mode: str
    #: per-epoch logical image bytes (sum across pods — what a naive
    #: full-image store writes for the epoch).
    logical_sizes: List[int] = field(default_factory=list)
    #: per-epoch bytes that actually reached the SAN (new chunk data for
    #: the CAS modes; the full containers for ``file-full``).
    stored_sizes: List[int] = field(default_factory=list)
    #: per-epoch end-to-end checkpoint time [s].
    checkpoint_times: List[float] = field(default_factory=list)
    #: final store counters (zero for the file baseline).
    footprint_bytes: int = 0
    dup_bytes: int = 0
    carried_bytes: int = 0
    gc_reclaimed_bytes: int = 0
    live_chunks: int = 0
    #: every restored chain byte-identical to the Agent's in-memory
    #: ground truth (and reassembling to the full base under filters).
    restore_ok: bool = True

    @property
    def logical_total(self) -> int:
        return sum(self.logical_sizes)

    @property
    def stored_total(self) -> int:
        return sum(self.stored_sizes)

    @property
    def dedup_ratio(self) -> float:
        """Logical bytes per byte that reached the SAN."""
        return self.logical_total / self.stored_total if self.stored_total \
            else 0.0


@dataclass
class MigrationCell:
    """One point of the live-migration study: downtime for a given
    pre-copy round cap (cap 0 is plain stop-and-copy)."""

    rounds_cap: int
    downtime: float
    total_time: float
    precopy_bytes: int
    bailout: Optional[str]
    #: per-round accounting dicts straight from ``MigrationResult.rounds``
    rounds: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def rounds_run(self) -> int:
        return len(self.rounds)

    @property
    def downtime_ratio(self) -> float:
        """Downtime as a fraction of the whole migration (1.0 when the
        application was stopped for all of it)."""
        if self.total_time == 0:
            return 0.0
        return self.downtime / self.total_time


def fmt_seconds(t: float) -> str:
    """Human-scale duration."""
    if t < 1.0:
        return f"{t * 1000:7.1f} ms"
    return f"{t:7.2f} s "


def fmt_bytes(n: int) -> str:
    """Human-scale byte count."""
    if n >= 1_000_000_000:
        return f"{n / 1e9:7.2f} GB"
    if n >= 1_000_000:
        return f"{n / 1e6:7.1f} MB"
    if n >= 1_000:
        return f"{n / 1e3:7.1f} KB"
    return f"{n:7d} B "


def print_table(title: str, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Render and print a fixed-width table; returns the text."""
    widths = [max([len(str(h))] + [len(str(r[i])) for r in rows])
              for i, h in enumerate(header)]
    lines = [f"== {title} =="]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))
    text = "\n".join(lines)
    print("\n" + text)
    return text
