"""Span tracer driven by the simulated clock.

A :class:`SpanTracer` records nested spans (operation → node → pod →
phase) against the *simulated* time of the cluster's
:class:`~repro.sim.engine.Engine`.  Opening or closing a span is a pure
bookkeeping append — it schedules no events and advances no clock — so
an installed tracer never perturbs the simulation: a traced run and an
untraced run of the same seed produce identical latencies, and two
traced runs of the same seed produce byte-identical exports.  That
second property makes the tracer double as a determinism oracle for the
chaos harness.

Span categories:

``op``
    One coordinated operation as the Manager sees it (checkpoint,
    restart, recover).  Keyed by ``("op", op_id)`` so Agent-side spans
    on other nodes can attach themselves as children.
``phase``
    One protocol phase.  Phase spans of one actor (one manager→pod
    lane, or one node/pod lane) are contiguous and disjoint, so their
    durations sum to that actor's share of the operation latency — the
    reconciliation the exporters and tests check.
``stage``
    A pipeline stage (serialize / filter / write) nested inside a phase.
``window``
    A state interval that overlaps phases (the netfilter block window).
``mark`` / ``fault``
    Zero-length instants: protocol trace-point crossings and fault
    injector activations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

#: span categories (see module docstring).
OP = "op"
PHASE = "phase"
STAGE = "stage"
WINDOW = "window"
MARK = "mark"
FAULT = "fault"
POST = "post"

from ..sim.clock import TICK

#: smallest distinguishable unit of exported simulated time: one
#: microsecond (Chrome trace ``ts`` resolution).  Reconciliation checks
#: allow a ±1 tick slack for float rounding.
SIM_TICK_S = TICK

#: decimal places kept on exported timestamps (sub-tick noise removed so
#: exports are stable against float formatting).
_TIME_DECIMALS = 9


class Span:
    """One recorded interval (or instant) of simulated time."""

    __slots__ = ("tracer", "span_id", "parent_id", "name", "t_start", "t_end",
                 "node", "pod", "category", "status", "attrs",
                 "pending_status", "pending_attrs")

    def __init__(self, tracer: "SpanTracer", span_id: int, name: str,
                 t_start: float, parent_id: Optional[int] = None,
                 node: Optional[str] = None, pod: Optional[str] = None,
                 category: str = PHASE,
                 attrs: Optional[Dict[str, Any]] = None) -> None:
        self.tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.t_start = t_start
        self.t_end: Optional[float] = None
        self.node = node
        self.pod = pod
        self.category = category
        self.status = "ok"
        self.attrs: Dict[str, Any] = attrs or {}
        self.pending_status: Optional[str] = None
        self.pending_attrs: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    def end(self, status: Optional[str] = None, **attrs: Any) -> "Span":
        """Close the span at the current simulated time (idempotent)."""
        if self.t_end is None:
            self.t_end = self.tracer.now
        if status is not None:
            self.status = status
        if attrs:
            self.attrs.update(attrs)
        return self

    def annotate(self, **attrs: Any) -> "Span":
        """Attach attributes without closing the span."""
        self.attrs.update(attrs)
        return self

    def finalize_with(self, status: str, **attrs: Any) -> "Span":
        """Register the terminal status/attrs a later sweep must apply.

        A halting campaign cannot ``end()`` spans owned by the tasks it
        is about to abandon — they may still be running and will never
        resume to close themselves.  Registering the outcome here makes
        :meth:`SpanTracer.close_open` close the span with *this* status
        and these attrs instead of the generic ``"unclosed"``, so the
        dump records *why* the span never finished (e.g. ``"halted"``
        when the failure threshold tripped mid-wave).  On an
        already-closed span this degrades to an attribute update.
        """
        if self.t_end is not None:
            self.status = status
            self.attrs.update(attrs)
            return self
        self.pending_status = status
        if attrs:
            merged = dict(self.pending_attrs or {})
            merged.update(attrs)
            self.pending_attrs = merged
        return self

    @property
    def open(self) -> bool:
        return self.t_end is None

    @property
    def duration(self) -> float:
        return (self.t_end if self.t_end is not None else self.t_start) - self.t_start

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic plain-dict form (exporters serialize this)."""
        return {
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "t0": round(self.t_start, _TIME_DECIMALS),
            "t1": None if self.t_end is None else round(self.t_end, _TIME_DECIMALS),
            "node": self.node,
            "pod": self.pod,
            "cat": self.category,
            "status": self.status,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Span({self.span_id}, {self.name!r}, {self.t_start:.6f}"
                f"→{self.t_end if self.t_end is not None else '…'})")


class _NullSpan:
    """Inert stand-in returned when no tracer is installed.

    Every call site writes ``sp = cluster.span(...); ...; sp.end()``
    unconditionally; with no tracer the whole exchange is two attribute
    lookups and costs nothing — the zero-overhead property the chaos
    harness asserts.
    """

    __slots__ = ()
    span_id = None
    parent_id = None
    duration = 0.0
    open = False

    def end(self, status: Optional[str] = None, **attrs: Any) -> "_NullSpan":
        return self

    def annotate(self, **attrs: Any) -> "_NullSpan":
        return self

    def finalize_with(self, status: str, **attrs: Any) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()

#: anything :meth:`SpanTracer.begin` accepts as a parent.
ParentRef = Any


class SpanTracer:
    """Records spans against an engine's simulated clock.

    Install on a cluster with :meth:`install`; protocol code reaches it
    through :meth:`repro.cluster.builder.Cluster.span` (which degrades
    to :data:`NULL_SPAN` when no tracer is present).
    """

    def __init__(self, engine) -> None:
        self.engine = engine
        self.spans: List[Span] = []
        self._next_id = 1
        self._keys: Dict[Tuple[Any, ...], Span] = {}
        #: ambient attrs stamped onto every span parented by a key — the
        #: receiving side of span context riding the wire (an Agent binds
        #: ``mspan`` = the Manager incarnation's op-span id, and every
        #: Agent-side span under that op inherits it).
        self._contexts: Dict[Tuple[Any, ...], Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.engine.now

    def install(self, cluster) -> "SpanTracer":
        """Attach to ``cluster`` so instrumentation points reach us."""
        cluster.tracer = self
        return self

    # ------------------------------------------------------------------
    def _resolve_parent(self, parent: ParentRef) -> Optional[int]:
        if parent is None or parent is NULL_SPAN:
            return None
        if isinstance(parent, Span):
            return parent.span_id
        if isinstance(parent, tuple):  # a key registered via begin(key=...)
            found = self._keys.get(parent)
            return found.span_id if found is not None else None
        return None

    def _stamp(self, parent: ParentRef, attrs: Dict[str, Any]) -> Dict[str, Any]:
        """Stamp key context onto a key-parented span's attrs.

        A span parented by a tuple key like ``("op", 7)`` inherits that
        key as an attr (``op=7``) plus any ambient context bound to the
        key via :meth:`set_context` — which is what lets the campaign
        assembler join spans to ledger records across dumps without
        every call site threading ids through by hand.  Explicit attrs
        always win.
        """
        if isinstance(parent, tuple) and len(parent) == 2:
            attrs.setdefault(str(parent[0]), parent[1])
            for k, v in self._contexts.get(parent, {}).items():
                attrs.setdefault(k, v)
        return attrs

    def set_context(self, key: Tuple[Any, ...], **attrs: Any) -> None:
        """Bind ambient attrs to ``key``: every later span parented by
        the key inherits them (see :meth:`_stamp`)."""
        self._contexts.setdefault(key, {}).update(attrs)

    def begin(self, name: str, node: Optional[str] = None,
              pod: Optional[str] = None, parent: ParentRef = None,
              category: str = PHASE, key: Optional[Tuple[Any, ...]] = None,
              **attrs: Any) -> Span:
        """Open a span at the current simulated time."""
        attrs = self._stamp(parent, dict(attrs))
        span = Span(self, self._next_id, name, self.now,
                    parent_id=self._resolve_parent(parent),
                    node=node, pod=pod, category=category,
                    attrs=attrs or None)
        self._next_id += 1
        self.spans.append(span)
        if key is not None:
            self._keys[key] = span
        return span

    def add(self, name: str, t_start: float, t_end: float,
            node: Optional[str] = None, pod: Optional[str] = None,
            parent: ParentRef = None, category: str = STAGE,
            **attrs: Any) -> Span:
        """Record a span with explicit start/end times (modeled stages:
        the caller slept once for several stages and subdivides here)."""
        attrs = self._stamp(parent, dict(attrs))
        span = Span(self, self._next_id, name, t_start,
                    parent_id=self._resolve_parent(parent),
                    node=node, pod=pod, category=category,
                    attrs=attrs or None)
        self._next_id += 1
        span.t_end = t_end
        self.spans.append(span)
        return span

    def instant(self, name: str, node: Optional[str] = None,
                pod: Optional[str] = None, parent: ParentRef = None,
                category: str = MARK, **attrs: Any) -> Span:
        """Record a zero-length mark at the current simulated time."""
        return self.add(name, self.now, self.now, node=node, pod=pod,
                        parent=parent, category=category, **attrs)

    # ------------------------------------------------------------------
    def find(self, key: Tuple[Any, ...]) -> Optional[Span]:
        """Span registered under ``key`` (e.g. ``("op", op_id)``)."""
        return self._keys.get(key)

    def close_open(self, status: str = "unclosed") -> int:
        """Close every still-open span at the current time.

        A cancelled protocol task never resumes to call ``end()``; the
        exporters call this first so the dump has no dangling spans.
        Spans that registered a terminal outcome via
        :meth:`Span.finalize_with` close with *that* status and attrs
        instead of the blanket default.  Returns how many spans were
        closed.
        """
        n = 0
        for span in self.spans:
            if span.t_end is None:
                span.end(status=span.pending_status or status,
                         **(span.pending_attrs or {}))
                n += 1
        return n

    def by_category(self, category: str) -> List[Span]:
        return [s for s in self.spans if s.category == category]

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]


# ---------------------------------------------------------------------------
# the layer table: where one operation's simulated time went
# ---------------------------------------------------------------------------


@dataclass
class LayerTable:
    """One operation's latency decomposition, read off its child spans.

    Manager lanes are contiguous (invocation → that pod's done), so the
    critical lane's phases plus ``unaccounted`` equal ``latency``; a
    phase nobody named still lands in the lane instead of vanishing.
    Agent phases run in parallel across pods, so each is the max over
    pods.  ``lanes`` keeps every ``(actor, pod)`` sum — actor
    ``"manager"`` or the Agent's node — for the check of an Agent lane
    against that Agent's own ``t_local``.
    """

    #: pod of the critical manager lane: the one whose phases sum
    #: highest, the first in span order on a tie.
    critical_pod: Optional[str]
    #: phase -> seconds on the critical manager lane.
    manager: Dict[str, float]
    #: phase -> seconds, max over pods, in first-span order.
    agent: Dict[str, float]
    #: (actor, pod) -> summed ``phase`` seconds, in first-span order.
    lanes: Dict[Tuple[str, Optional[str]], float]
    #: longest ``manager.post.*`` span: the image's journey after resume.
    post: float
    #: the reported latency (``duration_s``, else the span's duration).
    latency: float
    #: ``latency`` minus the critical lane's sum.
    unaccounted: float


def layer_table(tracer: SpanTracer, op_span: Span) -> LayerTable:
    """The :class:`LayerTable` of one operation span."""
    by_pod: Dict[Optional[str], Dict[str, float]] = {}
    agent: Dict[str, float] = {}
    lanes: Dict[Tuple[str, Optional[str]], float] = {}
    post = 0.0
    for span in tracer.children_of(op_span):
        kind, _, phase = span.name.rpartition(".")
        if kind == "manager.post":
            post = max(post, span.duration)
            continue
        if span.category != PHASE:
            continue
        if kind == "manager.phase":
            actor = "manager"
            lane = by_pod.setdefault(span.pod, {})
            lane[phase] = lane.get(phase, 0.0) + span.duration
        else:
            actor = span.node or "?"
            agent[phase] = max(agent.get(phase, 0.0), span.duration)
        lanes[(actor, span.pod)] = lanes.get((actor, span.pod), 0.0) + span.duration
    critical_pod, manager = max(by_pod.items(), key=lambda lane: sum(lane[1].values()),
                                default=(None, {}))
    latency = op_span.attrs.get("duration_s", op_span.duration)
    return LayerTable(critical_pod, manager, agent, lanes, post, latency,
                      latency - sum(manager.values()))


def reconcile_op(tracer: SpanTracer, op_span: Span,
                 tolerance: float = SIM_TICK_S) -> List[str]:
    """Check one operation's phase accounting; returns problem strings.

    The Manager measures the operation as invocation → last pod done;
    each manager lane covers invocation → that pod's done, so the
    critical lane's sum must equal the reported latency to within one
    sim tick.  (Agent lanes start later — at command receipt — and are
    reconciled against the Agent's own ``t_local`` by the caller, which
    has the stats message.)
    """
    table = layer_table(tracer, op_span)
    if not table.manager:
        return [f"op span {op_span.span_id} ({op_span.name}) has no manager phase spans"]
    if abs(table.unaccounted) <= tolerance:
        return []
    return [f"{op_span.name} op {op_span.attrs.get('op')}: manager phase sum "
            f"{table.latency - table.unaccounted:.9f}s != reported latency "
            f"{table.latency:.9f}s"]
