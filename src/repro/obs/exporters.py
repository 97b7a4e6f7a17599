"""Trace exporters: deterministic JSONL, Chrome ``trace_event``, text.

Three consumers, three formats:

* :func:`to_jsonl` — one JSON object per span, in span-id order, keys
  sorted.  Byte-identical across runs of the same seed; the determinism
  oracle the chaos tests diff.
* :func:`to_chrome` / :func:`dumps_chrome` — the Chrome ``trace_event``
  JSON loadable in ``chrome://tracing`` / Perfetto.  One track per
  protocol actor: the Manager's op lane, one ``manager→pod`` lane per
  target, and one ``node/pod`` lane per Agent — with the paper's
  evaluation layout (one pod per node) that is exactly one track per
  node.  Phase spans become matched ``B``/``E`` pairs, overlapping
  windows become async ``b``/``e`` pairs, trace-point crossings and
  fault activations become instants.
* :func:`phase_timeline` — a fixed-width text table of the protocol
  phases (via :func:`repro.metrics.print_table`).

Simulated seconds are exported as Chrome microsecond timestamps, so one
``ts`` unit is one sim tick (:data:`repro.obs.tracer.SIM_TICK_S`).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from ..metrics import print_table
from ..sim.clock import to_ticks
from .tracer import FAULT, MARK, OP, PHASE, POST, STAGE, WINDOW, Span, SpanTracer


def to_jsonl(tracer: SpanTracer) -> str:
    """All spans, one JSON object per line, deterministically ordered."""
    tracer.close_open()
    lines = [json.dumps(span.to_dict(), sort_keys=True, separators=(",", ":"))
             for span in sorted(tracer.spans, key=lambda s: s.span_id)]
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Chrome trace_event
# ---------------------------------------------------------------------------

#: Chrome pid used for the whole simulated cluster.
TRACE_PID = 1


def lane_of(span: Span) -> str:
    """The display track a span belongs to."""
    if span.name.startswith("manager.") or span.node is None:
        if span.category == OP or span.pod is None:
            return "manager"
        return f"manager→{span.pod}"
    if span.pod is None:
        return span.node
    return f"{span.node}/{span.pod}"


def _lane_order(tracer: SpanTracer) -> Dict[str, int]:
    """lane → tid, Manager lanes first, then node lanes by first use."""
    lanes: List[str] = []
    for span in tracer.spans:
        lane = lane_of(span)
        if lane not in lanes:
            lanes.append(lane)
    ordered = (["manager"] if "manager" in lanes else []) \
        + sorted(l for l in lanes if l.startswith("manager→")) \
        + [l for l in lanes if l != "manager" and not l.startswith("manager→")]
    return {lane: tid for tid, lane in enumerate(ordered)}


def _args_of(span: Span) -> Dict[str, Any]:
    args: Dict[str, Any] = {"span": span.span_id, "status": span.status}
    if span.parent_id is not None:
        args["parent"] = span.parent_id
    if span.pod is not None:
        args["pod"] = span.pod
    args.update(span.attrs)
    return args


def to_chrome(tracer: SpanTracer) -> Dict[str, Any]:
    """Chrome ``trace_event`` document (plain dict, ready to serialize)."""
    tracer.close_open()
    tids = _lane_order(tracer)
    events: List[Tuple[Tuple[float, int, int, float], Dict[str, Any]]] = []

    us = to_ticks

    for span in tracer.spans:
        tid = tids[lane_of(span)]
        base = {"pid": TRACE_PID, "tid": tid, "name": span.name,
                "cat": span.category, "args": _args_of(span)}
        t0, t1 = span.t_start, span.t_end if span.t_end is not None else span.t_start
        if span.category in (MARK, FAULT):
            events.append(((t0, tid, 2, 0.0),
                           dict(base, ph="i", ts=us(t0), s="t")))
        elif span.category == WINDOW:
            # overlaps phase spans on the same track: async pair, which
            # trace viewers render on their own sub-row
            events.append(((t0, tid, 2, 0.0),
                           dict(base, ph="b", ts=us(t0), id=span.span_id)))
            events.append(((t1, tid, 2, 0.0),
                           dict(base, ph="e", ts=us(t1), id=span.span_id)))
        elif t1 <= t0:
            # zero-duration slice: a complete event needs no E partner
            events.append(((t0, tid, 2, 0.0),
                           dict(base, ph="X", ts=us(t0), dur=0.0)))
        else:
            # duration slice.  Sort keys keep per-track nesting valid at
            # equal timestamps: E before B (priority 0 < 1); among
            # same-time B's the longer span (the parent) first; among
            # same-time E's the later-started span (the child) first.
            events.append(((t0, tid, 1, -t1),
                           dict(base, ph="B", ts=us(t0))))
            events.append(((t1, tid, 0, -t0),
                           dict(base, ph="E", ts=us(t1))))

    events.sort(key=lambda pair: pair[0])
    out: List[Dict[str, Any]] = []
    out.append({"ph": "M", "pid": TRACE_PID, "tid": 0, "ts": 0,
                "name": "process_name", "args": {"name": "zapc cluster (simulated)"}})
    for lane, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        out.append({"ph": "M", "pid": TRACE_PID, "tid": tid, "ts": 0,
                    "name": "thread_name", "args": {"name": lane}})
    out.extend(ev for _key, ev in events)
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def dumps_chrome(tracer: SpanTracer) -> str:
    """Serialized Chrome trace, deterministic byte-for-byte."""
    return json.dumps(to_chrome(tracer), sort_keys=True, separators=(",", ":"))


def export(tracer: SpanTracer, path: str, fmt: str = "chrome") -> None:
    """Write the trace to a real file in the requested format."""
    if fmt == "jsonl":
        text = to_jsonl(tracer)
    elif fmt == "chrome":
        text = dumps_chrome(tracer)
    else:
        raise ValueError(f"unknown trace format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# text timeline
# ---------------------------------------------------------------------------


def phase_timeline(tracer: SpanTracer, include_stages: bool = False) -> str:
    """Protocol phases as a fixed-width table; returns the text."""
    tracer.close_open()
    wanted = {OP, PHASE, WINDOW, POST} | ({STAGE} if include_stages else set())
    rows = []
    for span in sorted(tracer.spans, key=lambda s: (s.t_start, s.span_id)):
        if span.category not in wanted:
            continue
        rows.append((f"{span.t_start * 1e3:10.3f}",
                     f"{span.t_end * 1e3:10.3f}",
                     f"{span.duration * 1e3:9.3f}",
                     lane_of(span), span.name, span.status))
    return print_table(
        "phase timeline [ms, simulated]",
        ("start", "end", "duration", "track", "phase", "status"), rows)
