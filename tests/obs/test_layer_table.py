"""``obs.layer_table`` against the benchmark's own copy of the table.

The benchmark (``perfbench/layers.py``, frozen) reads the ``simck.*`` /
``simrs.*`` rows off the span dump with its own walk.  Both walks sum
the same spans in the same order, so on every traced operation below —
a serial checkpoint, a zero-stall checkpoint, a restart and a small
fleet evacuation — every row must be *exactly* equal, not approximately.
A hand-built trace pins the one choice no real run exercises: of two
manager lanes tied for longest, the first in span order is critical.
"""

from perfbench.layers import (
    CKPT_AGENT_ROWS,
    CKPT_MGR_ROWS,
    RESTART_AGENT_ROWS,
    RESTART_MGR_ROWS,
    _op_rows,
)
from repro.cluster import Cluster
from repro.core import Manager
from repro.fleet import run_evacuation_demo
from repro.obs import SpanTracer, layer_table
from repro.obs.tracer import OP, PHASE, POST

from ..core.testapps import launch_pingpong
from .test_trace_determinism import traced_async_checkpoint_run, traced_checkpoint_run

#: op span name -> the benchmark's (manager rows, agent rows).
ROWS = {"manager.checkpoint": (CKPT_MGR_ROWS, CKPT_AGENT_ROWS),
        "manager.restart": (RESTART_MGR_ROWS, RESTART_AGENT_ROWS)}


def _rows(table, mgr_rows, agent_rows):
    """A layer table in the benchmark's row names."""
    rows = {row: table.manager.get(phase, 0.0) for phase, row in mgr_rows.items()}
    rows.update({row: table.agent.get(phase, 0.0)
                 for phase, row in agent_rows.items()})
    rows.update(flush=table.post, latency=table.latency,
                unaccounted=table.unaccounted)
    return rows


def assert_matches_perfbench(tracer):
    """Every ok checkpoint/restart op: the two tables agree exactly.
    Returns the layer tables checked, by op span name."""
    checked = {}
    for op in tracer.by_category(OP):
        if op.name not in ROWS or op.status != "ok":
            continue
        mgr_rows, agent_rows = ROWS[op.name]
        table = layer_table(tracer, op)
        expected = _op_rows(op, tracer.children_of(op), mgr_rows, agent_rows)
        assert _rows(table, mgr_rows, agent_rows) == expected, op.attrs.get("op")
        checked.setdefault(op.name, []).append(table)
    return checked


class FakeEngine:
    now = 0.0


def test_a_tie_goes_to_the_first_lane_in_span_order():
    """Two manager lanes that sum to the same latency: the critical one
    is the first opened (as ``max`` picks it), whatever its split."""
    tracer = SpanTracer(FakeEngine())
    op = tracer.begin("manager.checkpoint", category=OP, op=1)
    for pod, connect in (("p0", 0.25), ("p1", 0.5)):
        tracer.add("manager.phase.connect", 0.0, connect, pod=pod,
                   parent=op, category=PHASE)
    for pod, connect in (("p0", 0.25), ("p1", 0.5)):
        tracer.add("manager.phase.commit", connect, 1.0, pod=pod,
                   parent=op, category=PHASE)
        tracer.add("agent.phase.suspend", connect, 0.75, node=f"n-{pod}",
                   pod=pod, parent=op, category=PHASE)
        tracer.add("manager.post.flush", 1.0, 1.0 + connect, pod=pod,
                   parent=op, category=POST)
    tracer.engine.now = 1.0
    op.end(duration_s=1.0)
    table = layer_table(tracer, op)
    assert (table.critical_pod, table.manager) == ("p0", {"connect": 0.25,
                                                          "commit": 0.75})
    assert (table.agent, table.post, table.unaccounted) == (
        {"suspend": 0.5}, 0.5, 0.0)
    assert _rows(table, CKPT_MGR_ROWS, CKPT_AGENT_ROWS) == _op_rows(
        op, tracer.children_of(op), CKPT_MGR_ROWS, CKPT_AGENT_ROWS)


def traced_restart_run(seed=7):
    """Checkpoint a ping-pong pair to the SAN, kill it, restart it on
    other blades; returns the tracer."""
    cluster = Cluster.build(4, seed=seed)
    tracer = SpanTracer(cluster.engine).install(cluster)
    manager = Manager.deploy(cluster)
    launch_pingpong(cluster, rounds=800)
    holder = {}

    def kick():
        holder["ckpt"] = manager.checkpoint([
            ("blade0", "pp-srv", "file:/san/lt-srv.img"),
            ("blade1", "pp-cli", "file:/san/lt-cli.img")])

    def crash_and_restart():
        cluster.find_pod("pp-srv").destroy()
        cluster.find_pod("pp-cli").destroy()
        holder["restart"] = manager.restart([
            ("blade2", "pp-srv", "file:/san/lt-srv.img"),
            ("blade3", "pp-cli", "file:/san/lt-cli.img")])

    cluster.engine.schedule(0.15, kick)
    cluster.engine.schedule(1.0, crash_and_restart)
    cluster.engine.run(until=300.0)
    assert holder["restart"].finished.result.ok
    return tracer


def test_serial_checkpoint_matches_perfbench():
    tracer, result = traced_checkpoint_run(7)
    (table,) = assert_matches_perfbench(tracer)["manager.checkpoint"]
    assert table.latency == result.duration
    assert set(table.manager) == set(CKPT_MGR_ROWS)
    assert abs(table.unaccounted) < 1e-9
    # the flush to the SAN is acknowledged after the pods resumed
    assert table.post > 0.0
    # the critical lane is the longest manager lane of the two pods
    manager = {pod: total for (actor, pod), total in table.lanes.items()
               if actor == "manager"}
    assert len(manager) == 2
    assert table.critical_pod == max(manager, key=manager.get)


def test_async_checkpoint_matches_perfbench():
    tracer, _result = traced_async_checkpoint_run(7)
    (table,) = assert_matches_perfbench(tracer)["manager.checkpoint"]
    assert set(CKPT_AGENT_ROWS) <= set(table.agent)


def test_restart_matches_perfbench():
    checked = assert_matches_perfbench(traced_restart_run())
    (table,) = checked["manager.restart"]
    assert set(table.manager) == set(RESTART_MGR_ROWS)
    assert set(RESTART_AGENT_ROWS) <= set(table.agent)


def test_fleet_evacuation_matches_perfbench():
    out = run_evacuation_demo(n_nodes=8, n_pods=12, n_evacuate=4, seed=5,
                              trace_spans=True)
    assert out["result"] is not None and out["result"].ok
    checked = assert_matches_perfbench(out["tracer"])
    assert len(checked["manager.checkpoint"]) >= 4
    assert len(checked["manager.restart"]) >= 4
