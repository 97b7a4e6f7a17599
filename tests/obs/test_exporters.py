"""Exporter unit tests: JSONL shape, lanes, Chrome schema, validator."""

import json

import pytest

from repro.obs.exporters import (
    dumps_chrome,
    lane_of,
    phase_timeline,
    to_chrome,
    to_jsonl,
)
from repro.obs.tracer import FAULT, OP, PHASE, STAGE, WINDOW, SpanTracer
from repro.obs.validate import validate_chrome


class FakeEngine:
    def __init__(self):
        self.now = 0.0


@pytest.fixture
def tracer():
    return SpanTracer(FakeEngine())


def checkpoint_like(tracer):
    """A miniature two-pod checkpoint shaped like the real protocol."""
    op = tracer.begin("manager.checkpoint", category=OP, key=("op", 1), op=1)
    for i, (node, pod) in enumerate((("blade1", "p0"), ("blade2", "p1"))):
        tracer.add("manager.phase.connect", 0.0, 0.2, pod=pod,
                   parent=op, category=PHASE)
        base = 0.2 + i * 0.01
        tracer.add("agent.net_block", base, base + 0.5, node=node, pod=pod,
                   parent=op, category=WINDOW)
        phase = tracer.add("agent.phase.suspend", base, base + 0.1,
                           node=node, pod=pod, parent=op, category=PHASE)
        tracer.add("stage.serialize", base, base + 0.05, node=node, pod=pod,
                   parent=phase, category=STAGE)
        tracer.add("manager.phase.commit", 0.2, 0.9, pod=pod,
                   parent=op, category=PHASE)
    tracer.instant("agent.suspend", node="blade1", pod="p0")
    tracer.instant("fault.hang", node="blade2", pod="p1", category=FAULT)
    tracer.engine.now = 1.0
    op.end(duration_s=1.0)
    return op


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------


def test_jsonl_one_line_per_span_in_id_order(tracer):
    checkpoint_like(tracer)
    text = to_jsonl(tracer)
    assert text.endswith("\n")
    lines = text.splitlines()
    assert len(lines) == len(tracer.spans)
    ids = [json.loads(line)["span"] for line in lines]
    assert ids == sorted(ids)
    # keys are sorted and the encoding is compact (no spaces)
    first = lines[0]
    keys = list(json.loads(first))
    assert keys == sorted(keys)
    assert ": " not in first and ", " not in first


def test_jsonl_closes_dangling_spans(tracer):
    tracer.begin("never.ended")
    tracer.engine.now = 5.0
    record = json.loads(to_jsonl(tracer))
    assert record["t1"] == 5.0
    assert record["status"] == "unclosed"


def test_jsonl_empty_tracer(tracer):
    assert to_jsonl(tracer) == ""


# ---------------------------------------------------------------------------
# lanes
# ---------------------------------------------------------------------------


def test_lane_of_mapping(tracer):
    op = tracer.begin("manager.checkpoint", category=OP)
    assert lane_of(op) == "manager"
    mgr = tracer.begin("manager.phase.meta", pod="p0")
    assert lane_of(mgr) == "manager→p0"
    agent = tracer.begin("agent.phase.suspend", node="blade1", pod="p0")
    assert lane_of(agent) == "blade1/p0"
    bare = tracer.begin("node.probe", node="blade1")
    assert lane_of(bare) == "blade1"


def test_lane_order_manager_first(tracer):
    checkpoint_like(tracer)
    doc = to_chrome(tracer)
    names = {ev["tid"]: ev["args"]["name"]
             for ev in doc["traceEvents"]
             if ev["ph"] == "M" and ev["name"] == "thread_name"}
    assert names[0] == "manager"
    assert names[1] == "manager→p0"
    assert names[2] == "manager→p1"
    assert set(names.values()) >= {"blade1/p0", "blade2/p1"}


# ---------------------------------------------------------------------------
# Chrome trace_event
# ---------------------------------------------------------------------------


def test_chrome_doc_passes_validator(tracer):
    checkpoint_like(tracer)
    doc = to_chrome(tracer)
    assert validate_chrome(doc) == []


def test_chrome_events_sorted_and_paired(tracer):
    checkpoint_like(tracer)
    events = [ev for ev in to_chrome(tracer)["traceEvents"] if ev["ph"] != "M"]
    ts = [ev["ts"] for ev in events]
    assert ts == sorted(ts)
    assert len([e for e in events if e["ph"] == "B"]) \
        == len([e for e in events if e["ph"] == "E"])
    # windows export as async pairs, instants as 'i'
    assert {e["ph"] for e in events if e["name"] == "agent.net_block"} == {"b", "e"}
    assert [e["ph"] for e in events if e["name"] == "agent.suspend"] == ["i"]
    assert [e["ph"] for e in events if e["name"] == "fault.hang"] == ["i"]


def test_chrome_zero_duration_becomes_complete_event(tracer):
    span = tracer.begin("blip", node="b0", pod="p0")
    span.end()  # zero sim time elapsed
    events = [ev for ev in to_chrome(tracer)["traceEvents"] if ev["ph"] != "M"]
    assert len(events) == 1 and events[0]["ph"] == "X" and events[0]["dur"] == 0.0


def test_chrome_nesting_order_at_equal_timestamps(tracer):
    # parent and child open at the same instant; child also closes
    # exactly when the next sibling opens — stress the sort keys
    parent = tracer.add("outer", 0.0, 2.0, node="b0", pod="p0", category=PHASE)
    tracer.add("inner.a", 0.0, 1.0, node="b0", pod="p0",
               parent=parent, category=PHASE)
    tracer.add("inner.b", 1.0, 2.0, node="b0", pod="p0",
               parent=parent, category=PHASE)
    doc = to_chrome(tracer)
    assert validate_chrome(doc) == []
    track = [(ev["ph"], ev["name"]) for ev in doc["traceEvents"] if ev["ph"] != "M"]
    assert track == [("B", "outer"), ("B", "inner.a"), ("E", "inner.a"),
                     ("B", "inner.b"), ("E", "inner.b"), ("E", "outer")]


def test_dumps_chrome_deterministic(tracer):
    checkpoint_like(tracer)
    other = SpanTracer(FakeEngine())
    checkpoint_like(other)
    assert dumps_chrome(tracer) == dumps_chrome(other)


# ---------------------------------------------------------------------------
# validator negatives
# ---------------------------------------------------------------------------


def _ev(ph, ts, name="x", tid=0, **extra):
    return dict({"ph": ph, "pid": 1, "tid": tid, "ts": ts, "name": name}, **extra)


def test_validator_rejects_non_document():
    assert validate_chrome([]) != []
    assert validate_chrome({"events": []}) != []


def test_validator_rejects_unsorted_timestamps():
    doc = {"traceEvents": [_ev("i", 5, s="t"), _ev("i", 1, s="t")]}
    assert any("before previous" in p for p in validate_chrome(doc))


def test_validator_rejects_unmatched_pairs():
    doc = {"traceEvents": [_ev("E", 1)]}
    assert any("no open B" in p for p in validate_chrome(doc))
    doc = {"traceEvents": [_ev("B", 1)]}
    assert any("unclosed B" in p for p in validate_chrome(doc))
    doc = {"traceEvents": [_ev("B", 1, name="a"), _ev("E", 2, name="b")]}
    assert any("improper nesting" in p for p in validate_chrome(doc))


def test_validator_rejects_unmatched_async():
    doc = {"traceEvents": [_ev("b", 1, id=9)]}
    assert any("unclosed async" in p for p in validate_chrome(doc))
    doc = {"traceEvents": [_ev("e", 1, id=9)]}
    assert any("never opened" in p for p in validate_chrome(doc))


def test_validator_required_names():
    doc = {"traceEvents": [_ev("i", 1, name="present", s="t")]}
    assert validate_chrome(doc, require=["present"]) == []
    assert any("absent" in p
               for p in validate_chrome(doc, require=["missing.phase"]))


# ---------------------------------------------------------------------------
# text exporters
# ---------------------------------------------------------------------------


def test_phase_timeline(tracer, capsys):
    checkpoint_like(tracer)
    timeline = phase_timeline(tracer)
    assert "manager.checkpoint" in timeline
    assert "blade1/p0" in timeline
    assert "stage.serialize" not in timeline
    assert "stage.serialize" in phase_timeline(tracer, include_stages=True)
    capsys.readouterr()
