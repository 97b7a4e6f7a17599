"""Failover-stitched campaign traces: one causal tree per campaign.

A fleet campaign that survives Manager failover leaves its story in two
places, neither complete on its own.  The *op ledger* records every
durable fact — the wave plan, each pod's outcome, every op's phase
crossings, who owned what and when — but no sub-record timing.  Each
*span dump* records fine-grained timing — phases, stages, net-block
windows — but only what one tracer saw, and a crashed incarnation's
spans end at ``close_open`` time with no terminal attrs.

The assembler joins the two: ledger records give the skeleton
(campaign → wave → pod-unit → op) and provenance (owners, claims,
adopted moves); span dumps flesh each op out with its phase tree.  Spans
join to the skeleton through the ``op`` / ``campaign`` attrs that
:meth:`~repro.obs.tracer.SpanTracer.begin` stamps onto every key-parented
span, so a span from *any* incarnation's dump lands under the right op —
including ops adopted after takeover, whose pod record was written by a
different Manager than the one that ran them.

Everything here is a pure function of its inputs (record list + dumps),
so the exported artifact is byte-identical across same-seed runs — the
assembled trace extends the chaos determinism oracle to fleet scale.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..storage.ledger import CAMPAIGNS, LedgerCampaign, fold
from .tracer import _TIME_DECIMALS

#: schema version stamped on the assembled-trace JSONL header.
CAMPAIGN_TRACE_SCHEMA = 1

#: node kinds the assembler synthesizes from ledger records; span-derived
#: nodes keep their span category (op/phase/stage/window/post/mark/fault).
SYNTH_KINDS = ("campaign", "wave", "unit", "op")

#: unit statuses the assembler emits beyond the ledger's ok/failed.
UNIT_UNRECORDED = "unrecorded"


def _r(t: Optional[float]) -> Optional[float]:
    return None if t is None else round(float(t), _TIME_DECIMALS)


@dataclass
class TraceNode:
    """One node of an assembled campaign tree."""

    kind: str
    name: str
    t0: float = 0.0
    t1: float = 0.0
    status: str = "ok"
    node: Optional[str] = None
    pod: Optional[str] = None
    #: provenance: ``"ledger"`` for synthesized nodes, ``"span:<dump>"``
    #: for nodes lifted from dump ``<dump>``'s span list.
    src: str = "ledger"
    attrs: Dict[str, Any] = field(default_factory=dict)
    children: List["TraceNode"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def walk(self) -> Iterable["TraceNode"]:
        """Depth-first pre-order over this subtree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def sort(self) -> None:
        """Deterministic child order: time, then provenance, then name."""
        self.children.sort(key=lambda n: (n.t0, n.src, n.name, n.pod or ""))
        for child in self.children:
            child.sort()


class _Dump:
    """One parsed span dump with parent/child indexes."""

    def __init__(self, index: int, spans: List[Dict[str, Any]]) -> None:
        self.index = index
        self.spans = spans
        self.kids: Dict[int, List[Dict[str, Any]]] = {}
        for s in spans:
            if s.get("parent") is not None:
                self.kids.setdefault(s["parent"], []).append(s)
        for v in self.kids.values():
            v.sort(key=lambda s: s["span"])


def _parse_dump(index: int, dump: Any) -> _Dump:
    if hasattr(dump, "spans"):  # a live SpanTracer
        spans = [s.to_dict() for s in dump.spans]
    elif isinstance(dump, str):
        spans = [json.loads(line) for line in dump.splitlines() if line]
    else:
        spans = [dict(s) for s in dump]
    return _Dump(index, spans)


def _node_from_span(dump: _Dump, s: Dict[str, Any],
                    skip: Tuple[str, ...] = ()) -> TraceNode:
    """Lift one span (and its in-dump descendants) into the tree."""
    t0 = float(s["t0"])
    t1 = t0 if s.get("t1") is None else float(s["t1"])
    node = TraceNode(kind=s.get("cat", "phase"), name=s["name"],
                     t0=t0, t1=t1, status=s.get("status", "ok"),
                     node=s.get("node"), pod=s.get("pod"),
                     src=f"span:{dump.index}", attrs=dict(s.get("attrs") or {}))
    for child in dump.kids.get(s["span"], []):
        if child["name"] in skip:
            continue
        node.children.append(_node_from_span(dump, child, skip=skip))
    return node


@dataclass
class CampaignTrace:
    """One campaign's assembled causal tree plus its coverage ledger."""

    cid: int
    kind: str
    status: str
    owners: List[str]
    root: TraceNode
    policy: Dict[str, Any] = field(default_factory=dict)
    #: pods the ledger knows about (planned or recorded) that have a
    #: unit node in the tree / are missing from it.
    pods_in_tree: List[str] = field(default_factory=list)
    pods_missing: List[str] = field(default_factory=list)
    #: pods whose unit record carries the adopted-after-takeover flag.
    adopted: List[str] = field(default_factory=list)
    #: ledger op ids attached under some unit / left unattached.
    ops_in_tree: List[int] = field(default_factory=list)
    ops_unattached: List[int] = field(default_factory=list)

    @property
    def t0(self) -> float:
        return self.root.t0

    @property
    def t1(self) -> float:
        return self.root.t1

    def nodes(self) -> List[TraceNode]:
        return list(self.root.walk())

    def units(self) -> List[TraceNode]:
        return [n for n in self.root.walk() if n.kind == "unit"]

    def coverage(self) -> Dict[str, Any]:
        """Does the tree account for every pod-unit in the ledger?"""
        return {
            "units": len(self.pods_in_tree) + len(self.pods_missing),
            "in_tree": len(self.pods_in_tree),
            "missing": list(self.pods_missing),
            "adopted": list(self.adopted),
            "ops": len(self.ops_in_tree),
            "ops_unattached": list(self.ops_unattached),
            "complete": not self.pods_missing,
        }

    # -- exports ---------------------------------------------------------
    def to_jsonl(self) -> str:
        """One JSONL artifact: a header record then one record per node,
        depth-first, ids in pre-order (parent always precedes child).
        Byte-identical for identical inputs."""
        header = {
            "rec": "campaign-trace", "schema": CAMPAIGN_TRACE_SCHEMA,
            "cid": self.cid, "kind": self.kind, "status": self.status,
            "owners": self.owners, "t0": _r(self.root.t0),
            "t1": _r(self.root.t1), "nodes": sum(1 for _ in self.root.walk()),
            "coverage": self.coverage(),
        }
        lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
        ids: Dict[int, int] = {}
        for i, node in enumerate(self.root.walk()):
            ids[id(node)] = i
            rec = {
                "rec": "node", "id": i,
                "parent": None if i == 0 else ids[id(node._parent)],  # type: ignore[attr-defined]
                "kind": node.kind, "name": node.name,
                "t0": _r(node.t0), "t1": _r(node.t1),
                "status": node.status, "node": node.node, "pod": node.pod,
                "src": node.src, "attrs": node.attrs,
            }
            lines.append(json.dumps(rec, sort_keys=True, separators=(",", ":")))
        return "\n".join(lines) + "\n"

    def to_chrome(self) -> Dict[str, Any]:
        """Chrome ``trace_event`` form of the assembled tree.

        Every interval renders as an *async* ``b``/``e`` pair (unique id
        per node) so overlapping structure — waves without a barrier,
        an unclosed crashed-incarnation span overlapping its successor —
        never violates the synchronous-stack rules that ``B``/``E``
        events carry.  Lanes: campaign+waves on one track, one track per
        pod.
        """
        pid = 1
        lanes: Dict[str, int] = {"campaign": 0}
        for unit in self.units():
            lane = unit.pod or "?"
            if lane not in lanes:
                lanes[lane] = len(lanes)
        events: List[Dict[str, Any]] = [
            {"ph": "M", "pid": pid, "tid": 0, "name": "process_name",
             "args": {"name": f"campaign {self.cid} (assembled)"}},
        ]
        for lane, tid in lanes.items():
            events.append({"ph": "M", "pid": pid, "tid": tid,
                           "name": "thread_name", "args": {"name": lane}})
        meta_n = len(events)

        def lane_of(node: TraceNode, inherited: int) -> int:
            if node.kind in ("campaign", "wave"):
                return 0
            if node.kind == "unit":
                return lanes.get(node.pod or "?", inherited)
            return inherited

        body: List[Dict[str, Any]] = []
        ids: Dict[int, int] = {}
        for i, node in enumerate(self.root.walk()):
            ids[id(node)] = i

        def emit(node: TraceNode, inherited: int) -> None:
            tid = lane_of(node, inherited)
            nid = ids[id(node)]
            args = dict(node.attrs)
            args["status"] = node.status
            us0 = int(round(node.t0 * 1e6))
            us1 = int(round(node.t1 * 1e6))
            if us1 <= us0:
                body.append({"ph": "i", "pid": pid, "tid": tid,
                             "name": node.name, "cat": node.kind,
                             "ts": us0, "s": "t", "args": args})
            else:
                body.append({"ph": "b", "pid": pid, "tid": tid,
                             "name": node.name, "cat": node.kind,
                             "id": nid, "ts": us0, "args": args})
            for child in node.children:
                emit(child, tid)
            if us1 > us0:
                body.append({"ph": "e", "pid": pid, "tid": tid,
                             "name": node.name, "cat": node.kind,
                             "id": nid, "ts": us1, "args": {}})

        emit(self.root, 0)
        body.sort(key=lambda e: e["ts"])  # stable: generation order ties
        return {"traceEvents": events[:meta_n] + body,
                "displayTimeUnit": "ms",
                "metadata": {"campaign": self.cid, "kind": self.kind,
                             "status": self.status, "assembled": True}}

    def dumps_chrome(self) -> str:
        return json.dumps(self.to_chrome(), sort_keys=True,
                          separators=(",", ":")) + "\n"


def _records_of(source: Any) -> List[Dict[str, Any]]:
    if hasattr(source, "records"):
        return source.records()
    return list(source)


def assemble_campaigns(records: Any, dumps: Sequence[Any] = (),
                       cid: Optional[int] = None) -> List[CampaignTrace]:
    """Assemble one causal tree per campaign found in ``records``.

    ``records`` is an :class:`~repro.storage.ledger.OpLedger` or a raw
    record list; ``dumps`` is any number of span dumps (JSONL strings,
    span-dict lists, or live tracers) — typically one per episode, with
    all Manager incarnations of a run sharing the episode's tracer.
    Passing ``cid`` restricts assembly to that campaign.
    """
    recs = _records_of(records)
    campaigns = fold(recs, CAMPAIGNS)
    ops = fold(recs)

    # the per-campaign wave timing skeleton
    camp_t1: Dict[int, float] = {}
    wave_t: Dict[Tuple[int, int], float] = {}
    wave_done_t: Dict[Tuple[int, int], float] = {}
    owners: Dict[int, List[str]] = {}
    for rec in recs:
        if not CAMPAIGNS.owns(rec):
            continue
        t = float(rec.get("t", 0.0))
        c = int(rec["cid"])
        own = rec.get("owner")
        if own and own not in owners.setdefault(c, []):
            owners[c].append(own)
        phase = rec.get("phase")
        if phase == "wave":
            wave_t.setdefault((c, int(rec.get("wave", -1))), t)
        elif phase == "wave-done":
            wave_done_t.setdefault((c, int(rec.get("wave", -1))), t)
        elif phase in CAMPAIGNS.terminal:
            camp_t1[c] = t

    parsed = [_parse_dump(i, d) for i, d in enumerate(dumps)]

    # span indexes: top-level op spans, campaign spans, wave spans, and
    # loose spans (key-parented spans whose parent lived in another
    # incarnation's dump, or fleet trace-point marks)
    op_spans: Dict[int, List[Tuple[_Dump, Dict[str, Any]]]] = {}
    camp_spans: Dict[int, List[Tuple[_Dump, Dict[str, Any]]]] = {}
    wave_spans: Dict[Tuple[int, int], List[Tuple[_Dump, Dict[str, Any]]]] = {}
    loose_op: Dict[int, List[Tuple[_Dump, Dict[str, Any]]]] = {}
    loose_camp: Dict[int, List[Tuple[_Dump, Dict[str, Any]]]] = {}
    for dump in parsed:
        for s in dump.spans:
            attrs = s.get("attrs") or {}
            top = s.get("parent") is None
            if s.get("name") == "fleet.wave" and "campaign" in attrs:
                key = (int(attrs["campaign"]), int(attrs.get("wave", -1)))
                wave_spans.setdefault(key, []).append((dump, s))
            elif s.get("cat") == "op" and "campaign" in attrs and top:
                camp_spans.setdefault(int(attrs["campaign"]), []).append(
                    (dump, s))
            elif s.get("cat") == "op" and "op" in attrs and top:
                op_spans.setdefault(int(attrs["op"]), []).append((dump, s))
            elif top and "op" in attrs:
                loose_op.setdefault(int(attrs["op"]), []).append((dump, s))
            elif top and "campaign" in attrs:
                loose_camp.setdefault(int(attrs["campaign"]), []).append(
                    (dump, s))

    def span_nodes(pairs: List[Tuple[_Dump, Dict[str, Any]]],
                   skip: Tuple[str, ...] = ()) -> List[TraceNode]:
        pairs = sorted(pairs, key=lambda p: (float(p[1]["t0"]),
                                             p[0].index, p[1]["span"]))
        return [_node_from_span(d, s, skip=skip) for d, s in pairs]

    def build_op_node(op_id: int, pod: str) -> Optional[TraceNode]:
        op = ops.get(op_id)
        if op is None:
            return None
        node = TraceNode(kind="op", name=op.kind, t0=op.t_first, t1=op.t_last,
                         status=op.phase, pod=pod,
                         attrs={"op": op_id, "context": op.context,
                                "owner": op.owner,
                                "claims": list(op.claims)})
        node.children.extend(span_nodes(op_spans.get(op_id, [])))
        node.children.extend(span_nodes(loose_op.get(op_id, [])))
        if node.children:
            node.t0 = min([node.t0] + [c.t0 for c in node.children])
            node.t1 = max([node.t1] + [c.t1 for c in node.children])
        return node

    out: List[CampaignTrace] = []
    for c in sorted(campaigns):
        if cid is not None and c != cid:
            continue
        lc: LedgerCampaign = campaigns[c]
        root = TraceNode(kind="campaign", name=f"fleet.{lc.kind}",
                         t0=lc.t_first, t1=lc.t_last,
                         status=lc.phase,
                         attrs={"campaign": c, "units": len(lc.units),
                                "waves": len(lc.waves),
                                "policy": dict(lc.policy)})
        if c in camp_t1:
            root.t1 = camp_t1[c]
        root.children.extend(span_nodes(camp_spans.get(c, []),
                                        skip=("fleet.wave",)))
        root.children.extend(span_nodes(loose_camp.get(c, [])))

        # wave membership: the journaled plan plus any recorded pod the
        # plan did not cover (a messy failover's stray outcome record)
        planned: Dict[int, List[str]] = {
            w: list(pods) for w, pods in enumerate(lc.waves)}
        for pod, rec in sorted(lc.pods.items()):
            w = int(rec.get("wave", -1))
            target = planned.setdefault(w if w >= 0 else len(planned), [])
            if pod not in target:
                target.append(pod)

        pods_in_tree: List[str] = []
        adopted: List[str] = []
        attached_ops: List[int] = []
        for w in sorted(planned):
            pods = planned[w]
            wnode = TraceNode(kind="wave", name="fleet.wave",
                              t0=wave_t.get((c, w), root.t0),
                              t1=wave_done_t.get((c, w), root.t1),
                              status="ok" if w in lc.waves_done else "open",
                              attrs={"campaign": c, "wave": w,
                                     "pods": len(pods),
                                     "owner": lc.wave_owners.get(w)})
            wnode.children.extend(span_nodes(wave_spans.get((c, w), [])))
            for pod in pods:
                rec = lc.pods.get(pod)
                unit = TraceNode(
                    kind="unit", name=f"unit.{pod}", pod=pod,
                    t0=wnode.t0, t1=wnode.t1,
                    status=rec.get("status", UNIT_UNRECORDED) if rec
                    else UNIT_UNRECORDED,
                    attrs={"campaign": c, "wave": w})
                if rec:
                    unit.t1 = float(rec.get("t", wnode.t1))
                    for k in ("op", "downtime", "attempts", "adopted"):
                        if k in rec:
                            unit.attrs[k] = rec[k]
                    if rec.get("adopted"):
                        adopted.append(pod)
                    op_id = rec.get("op")
                    if op_id is not None:
                        opnode = build_op_node(int(op_id), pod)
                        if opnode is not None:
                            unit.children.append(opnode)
                            attached_ops.append(int(op_id))
                # sibling ops that touched this pod inside the campaign
                # window (retries that failed, the migrate/restart legs)
                for oid in sorted(ops):
                    if oid in attached_ops:
                        continue
                    op = ops[oid]
                    if not any(t[1] == pod for t in op.targets):
                        continue
                    if op.t_first < root.t0 or op.t_first > unit.t1:
                        continue
                    opnode = build_op_node(oid, pod)
                    if opnode is not None:
                        unit.children.append(opnode)
                        attached_ops.append(oid)
                if unit.children:
                    unit.t0 = min([unit.t0] + [ch.t0 for ch in unit.children])
                    unit.t1 = max([unit.t1] + [ch.t1 for ch in unit.children])
                pods_in_tree.append(pod)
                wnode.children.append(unit)
            if wnode.children:
                wnode.t0 = min([wnode.t0] + [ch.t0 for ch in wnode.children])
                wnode.t1 = max([wnode.t1] + [ch.t1 for ch in wnode.children])
            root.children.append(wnode)
        if root.children:
            root.t1 = max([root.t1] + [ch.t1 for ch in root.children])
        root.sort()

        # parent back-links for JSONL export (walk order needs them)
        for node in root.walk():
            for child in node.children:
                child._parent = node  # type: ignore[attr-defined]

        referenced = {int(r["op"]) for r in lc.pods.values()
                      if r.get("op") is not None}
        out.append(CampaignTrace(
            cid=c, kind=lc.kind, status=lc.phase,
            owners=owners.get(c, []), root=root,
            policy=dict(lc.policy),
            pods_in_tree=sorted(pods_in_tree),
            pods_missing=sorted(
                (set(p for ps in planned.values() for p in ps)
                 | set(lc.pods)) - set(pods_in_tree)),
            adopted=sorted(adopted),
            ops_in_tree=sorted(set(attached_ops)),
            ops_unattached=sorted(referenced - set(attached_ops)),
        ))
    return out


def assemble_campaign(records: Any, dumps: Sequence[Any] = (),
                      cid: Optional[int] = None) -> CampaignTrace:
    """Assemble exactly one campaign (the only one, or ``cid``)."""
    traces = assemble_campaigns(records, dumps, cid=cid)
    if not traces:
        raise ValueError("no campaign records to assemble"
                         + (f" for cid {cid}" if cid is not None else ""))
    if len(traces) > 1:
        raise ValueError(
            f"{len(traces)} campaigns in ledger; pass cid= to pick one")
    return traces[0]
