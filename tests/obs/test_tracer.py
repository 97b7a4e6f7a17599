"""Span tracer unit tests: nesting, keys, no-op path, reconciliation."""

import pytest

from repro.obs.tracer import (
    FAULT,
    MARK,
    NULL_SPAN,
    OP,
    PHASE,
    SIM_TICK_S,
    SpanTracer,
    layer_table,
    reconcile_op,
)


class FakeEngine:
    def __init__(self):
        self.now = 0.0


@pytest.fixture
def tracer():
    return SpanTracer(FakeEngine())


def test_span_records_sim_time_interval(tracer):
    tracer.engine.now = 1.5
    span = tracer.begin("phase.x", node="blade0", pod="p0")
    assert span.open and span.t_start == 1.5
    tracer.engine.now = 2.0
    span.end()
    assert not span.open
    assert span.duration == pytest.approx(0.5)
    assert span.status == "ok"


def test_end_is_idempotent(tracer):
    span = tracer.begin("x")
    tracer.engine.now = 1.0
    span.end()
    tracer.engine.now = 9.0
    span.end(status="late")
    assert span.t_end == 1.0          # first close wins
    assert span.status == "late"      # but status/attrs still update


def test_nesting_via_parent_span(tracer):
    op = tracer.begin("manager.checkpoint", category=OP)
    child = tracer.begin("manager.phase.connect", parent=op)
    grandchild = tracer.begin("stage.serialize", parent=child)
    assert child.parent_id == op.span_id
    assert grandchild.parent_id == child.span_id
    assert [s.span_id for s in tracer.children_of(op)] == [child.span_id]


def test_nesting_via_key_lookup_crosses_actors(tracer):
    # the Manager registers the op under a key; an Agent on another node
    # only knows the op_id from the wire message
    op = tracer.begin("manager.checkpoint", category=OP, key=("op", 7))
    remote = tracer.begin("agent.phase.suspend", node="blade3", parent=("op", 7))
    assert remote.parent_id == op.span_id
    assert tracer.find(("op", 7)) is op
    # an unknown key degrades to no parent, never an error
    orphan = tracer.begin("agent.phase.suspend", parent=("op", 999))
    assert orphan.parent_id is None


def test_span_ids_are_sequential_and_unique(tracer):
    ids = [tracer.begin(f"s{i}").span_id for i in range(5)]
    assert ids == sorted(set(ids))


def test_instant_and_explicit_time_spans(tracer):
    tracer.engine.now = 3.0
    mark = tracer.instant("agent.suspend", node="b0")
    assert mark.category == MARK and mark.duration == 0.0
    fault = tracer.instant("fault.hang", category=FAULT)
    assert fault.category == FAULT
    staged = tracer.add("stage.compress", 1.0, 2.5, node="b0")
    assert staged.t_start == 1.0 and staged.t_end == 2.5


def test_close_open_sweeps_dangling_spans(tracer):
    a = tracer.begin("a")
    b = tracer.begin("b")
    b.end()
    tracer.engine.now = 4.0
    assert tracer.close_open() == 1
    assert a.t_end == 4.0 and a.status == "unclosed"
    assert tracer.close_open() == 0


def test_null_span_is_inert():
    assert NULL_SPAN.end(status="x") is NULL_SPAN
    assert NULL_SPAN.annotate(a=1) is NULL_SPAN
    assert NULL_SPAN.duration == 0.0
    assert NULL_SPAN.open is False


def test_to_dict_rounds_timestamps(tracer):
    tracer.engine.now = 0.1 + 0.2  # 0.30000000000000004
    span = tracer.begin("x")
    span.end()
    d = span.to_dict()
    assert d["t0"] == 0.3 and d["t1"] == 0.3


def test_layer_table_lanes_and_reconcile(tracer):
    op = tracer.begin("manager.checkpoint", category=OP, key=("op", 1), op=1)
    # manager lane: two contiguous phases, 0 → 2.0
    tracer.add("manager.phase.connect", 0.0, 0.5, pod="p0",
               parent=op, category=PHASE)
    tracer.add("manager.phase.commit", 0.5, 2.0, pod="p0",
               parent=op, category=PHASE)
    # agent lane starts later (command receipt)
    tracer.add("agent.phase.suspend", 0.6, 1.9, node="blade1", pod="p0",
               parent=op, category=PHASE)
    tracer.engine.now = 2.0
    op.end(duration_s=2.0)
    table = layer_table(tracer, op)
    assert table.lanes[("manager", "p0")] == pytest.approx(2.0)
    assert table.lanes[("blade1", "p0")] == pytest.approx(1.3)
    assert table.critical_pod == "p0"
    assert table.manager == {"connect": 0.5, "commit": 1.5}
    assert table.agent == {"suspend": pytest.approx(1.3)}
    assert table.unaccounted == 0.0
    assert reconcile_op(tracer, op) == []


def test_reconcile_flags_unaccounted_time(tracer):
    op = tracer.begin("manager.checkpoint", category=OP, op=2)
    tracer.add("manager.phase.connect", 0.0, 0.5, pod="p0",
               parent=op, category=PHASE)
    tracer.engine.now = 2.0
    op.end(duration_s=2.0)  # 1.5 s of the op is unaccounted for
    problems = reconcile_op(tracer, op)
    assert len(problems) == 1 and "phase sum" in problems[0]
    # slack is one sim tick, no more
    assert reconcile_op(tracer, op, tolerance=1.5 + SIM_TICK_S) == []


def test_reconcile_requires_manager_phases(tracer):
    op = tracer.begin("manager.restart", category=OP)
    op.end()
    assert "no manager phase spans" in reconcile_op(tracer, op)[0]


# ---------------------------------------------------------------------------
# finalize_with: terminal outcomes for spans a halt strands open
# ---------------------------------------------------------------------------


def test_finalize_with_applies_at_close_open(tracer):
    # a halting campaign cannot end() the unit span of a task it is
    # abandoning; the registered outcome must land at sweep time
    span = tracer.begin("fleet.wave", category=OP)
    span.finalize_with("halted", stop="threshold", failures=3)
    tracer.engine.now = 7.0
    assert tracer.close_open() == 1
    assert span.t_end == 7.0
    assert span.status == "halted"              # not the blanket "unclosed"
    assert span.attrs["stop"] == "threshold"
    assert span.attrs["failures"] == 3


def test_finalize_with_merges_repeat_registrations(tracer):
    span = tracer.begin("x")
    span.finalize_with("halted", a=1)
    span.finalize_with("aborted", b=2)          # newest status wins
    tracer.close_open()
    assert span.status == "aborted"
    assert span.attrs == {"a": 1, "b": 2}


def test_finalize_with_on_closed_span_updates_in_place(tracer):
    span = tracer.begin("x")
    tracer.engine.now = 1.0
    span.end()
    span.finalize_with("halted", stop="threshold")
    assert span.status == "halted" and span.attrs["stop"] == "threshold"
    assert span.t_end == 1.0                    # close time untouched
    assert tracer.close_open() == 0


def test_normal_end_wins_over_pending_outcome(tracer):
    # a task that does finish closes itself; the registered halt
    # outcome must not overwrite the real one
    span = tracer.begin("x")
    span.finalize_with("halted")
    span.end()
    assert span.status == "ok"


def test_null_span_finalize_with_is_inert():
    assert NULL_SPAN.finalize_with("halted", a=1) is NULL_SPAN


# ---------------------------------------------------------------------------
# key context: ambient attrs stamped onto key-parented spans
# ---------------------------------------------------------------------------


def test_key_parent_stamps_key_attr(tracer):
    tracer.begin("manager.checkpoint", category=OP, key=("op", 7))
    child = tracer.begin("agent.phase.suspend", node="b1", parent=("op", 7))
    assert child.attrs["op"] == 7


def test_set_context_attrs_inherited_by_key_parented_spans(tracer):
    op = tracer.begin("manager.checkpoint", category=OP, key=("op", 7))
    tracer.set_context(("op", 7), mspan=op.span_id, owner="mgr0")
    child = tracer.begin("agent.phase.suspend", node="b1", parent=("op", 7))
    assert child.attrs == {"op": 7, "mspan": op.span_id, "owner": "mgr0"}
    # spans parented by Span object (not key) are not stamped
    direct = tracer.begin("stage.serialize", parent=op)
    assert "owner" not in direct.attrs


def test_explicit_attrs_beat_key_context(tracer):
    tracer.begin("manager.checkpoint", category=OP, key=("op", 1))
    tracer.set_context(("op", 1), owner="mgr0")
    span = tracer.begin("agent.phase.suspend", parent=("op", 1), owner="mgr1")
    assert span.attrs["owner"] == "mgr1"


def test_set_context_accumulates_and_overwrites(tracer):
    tracer.set_context(("op", 1), owner="mgr0")
    tracer.set_context(("op", 1), mspan=42)
    tracer.set_context(("op", 1), owner="mgr1")   # takeover rebinds
    span = tracer.begin("x", parent=("op", 1))
    assert span.attrs["owner"] == "mgr1" and span.attrs["mspan"] == 42
