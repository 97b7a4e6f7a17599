"""Observability: simulated-time span tracing, metrics, exporters.

The subsystem decomposes checkpoint/restart latency into the protocol
phases of the paper's Figure 6 — suspend, network block, netstate save,
meta-data report, the single continue barrier, parallel standalone save
— and makes the decomposition exportable (JSONL, Chrome ``trace_event``,
text tables) and assertable (determinism and reconciliation checks).

Everything runs on the simulated clock: recording is a pure append, so
an installed tracer perturbs nothing, and traces of the same seed are
byte-identical — the tracer doubles as a determinism oracle.
"""

from .assemble import (
    CampaignTrace,
    TraceNode,
    assemble_campaign,
    assemble_campaigns,
)
from .exporters import (
    dumps_chrome,
    export,
    lane_of,
    phase_timeline,
    to_chrome,
    to_jsonl,
)
from .metrics import (
    DEFAULT_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile,
)
from .series import DEFAULT_WINDOW_S, SeriesBank
from .slo import (
    SloBudget,
    SloReport,
    SloVerdict,
    WallProfiler,
    audit_campaign,
)
from .tracer import (
    FAULT,
    MARK,
    NULL_SPAN,
    OP,
    PHASE,
    POST,
    SIM_TICK_S,
    STAGE,
    WINDOW,
    LayerTable,
    Span,
    SpanTracer,
    layer_table,
    reconcile_op,
)
from .validate import (
    CHECKPOINT_SPAN_NAMES,
    FLEET_SPAN_NAMES,
    KNOWN_CATEGORIES,
    validate_campaign,
    validate_chrome,
    validate_file,
)

__all__ = [
    "CHECKPOINT_SPAN_NAMES", "CampaignTrace", "Counter", "DEFAULT_BOUNDS",
    "DEFAULT_WINDOW_S", "FAULT", "FLEET_SPAN_NAMES", "Gauge", "Histogram",
    "KNOWN_CATEGORIES", "LayerTable", "MARK", "MetricsRegistry", "NULL_SPAN",
    "OP", "PHASE", "POST", "SIM_TICK_S", "STAGE", "SeriesBank", "SloBudget",
    "SloReport", "SloVerdict", "Span", "SpanTracer", "TraceNode", "WINDOW",
    "WallProfiler", "assemble_campaign", "assemble_campaigns", "audit_campaign",
    "dumps_chrome", "export", "lane_of", "layer_table", "percentile",
    "phase_timeline", "reconcile_op", "to_chrome", "to_jsonl",
    "validate_campaign", "validate_chrome", "validate_file",
]
