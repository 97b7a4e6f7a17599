"""Integration tests: real traced checkpoints.

Three properties the subsystem guarantees:

* determinism — two runs of the same seed export byte-identical traces,
  even while a seeded fault plan is firing;
* reconciliation — phase span durations account for the reported
  operation latency (manager lanes) and each pod's local checkpoint
  time (agent lanes) to within one sim tick;
* zero overhead — installing the tracer changes no simulated latency,
  and with neither tracer nor fault injector the trace hooks record
  nothing at all.
"""

import json

import pytest

from repro.cluster import Cluster
from repro.cluster import chaos
from repro.core import Manager, migrate
from repro.obs import (
    SpanTracer,
    layer_table,
    reconcile_op,
    to_chrome,
    to_jsonl,
    validate_chrome,
)
from repro.obs.tracer import SIM_TICK_S
from repro.obs.validate import CHECKPOINT_SPAN_NAMES

from ..core.testapps import launch_pingpong

ROUNDS = 800


def traced_checkpoint_run(seed: int, trace: bool = True, at: float = 0.15):
    """One snapshot checkpoint over a ping-pong pair; returns
    (tracer, OpResult) — tracer is None when ``trace`` is False."""
    cluster = Cluster.build(4, seed=seed)
    tracer = SpanTracer(cluster.engine).install(cluster) if trace else None
    manager = Manager.deploy(cluster)
    launch_pingpong(cluster, rounds=ROUNDS)
    holder = {}

    def kick():
        holder["task"] = manager.checkpoint([
            ("blade0", "pp-srv", "file:/san/obs-srv.img"),
            ("blade1", "pp-cli", "file:/san/obs-cli.img"),
        ])

    cluster.engine.schedule(at, kick)
    cluster.engine.run(until=120.0)
    result = holder["task"].finished.result
    assert result.ok, result.errors
    return tracer, result


def traced_live_migration_run(seed: int, at: float = 0.15):
    """One live (pre-copy) migration of a writing ping-pong pair;
    returns (tracer, MigrationResult)."""
    cluster = Cluster.build(4, seed=seed)
    tracer = SpanTracer(cluster.engine).install(cluster)
    manager = Manager.deploy(cluster)
    launch_pingpong(cluster, rounds=6000, ballast=64_000_000,
                    dirty_rate=48_000_000)
    holder = {}
    cluster.engine.schedule(at, lambda: holder.update(mig=migrate(
        manager,
        [("blade0", "pp-srv", "blade2"), ("blade1", "pp-cli", "blade3")],
        live=True, precopy_rounds=4)))
    cluster.engine.run(until=300.0)
    mig = holder["mig"].finished.result
    assert mig.ok, (mig.checkpoint.errors, mig.restart.errors)
    assert mig.rounds, "live migration ran no pre-copy rounds"
    return tracer, mig


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_same_seed_byte_identical_jsonl():
    tr_a, _ = traced_checkpoint_run(7)
    tr_b, _ = traced_checkpoint_run(7)
    dump_a, dump_b = to_jsonl(tr_a), to_jsonl(tr_b)
    assert dump_a == dump_b
    assert len(dump_a.splitlines()) > 20  # a real trace, not a stub


def traced_async_checkpoint_run(seed: int, at: float = 0.15):
    """One zero-stall incremental snapshot over a writing ping-pong
    pair; returns (tracer, OpResult)."""
    cluster = Cluster.build(4, seed=seed)
    tracer = SpanTracer(cluster.engine).install(cluster)
    manager = Manager.deploy(cluster)
    launch_pingpong(cluster, rounds=ROUNDS, ballast=16_000_000,
                    dirty_rate=8_000_000)
    holder = {}

    def kick():
        holder["task"] = manager.checkpoint(
            [("blade0", "pp-srv", "mem"), ("blade1", "pp-cli", "mem")],
            filters=[{"name": "delta"}], async_ckpt=True)

    cluster.engine.schedule(at, kick)
    cluster.engine.run(until=120.0)
    result = holder["task"].finished.result
    assert result.ok, result.errors
    return tracer, result


def test_async_checkpoint_same_seed_byte_identical_jsonl():
    """The zero-stall path (capture, post-resume encode, COW charge,
    overlapped flush) is part of the deterministic trace surface."""
    tr_a, res_a = traced_async_checkpoint_run(7)
    tr_b, res_b = traced_async_checkpoint_run(7)
    dump_a, dump_b = to_jsonl(tr_a), to_jsonl(tr_b)
    assert dump_a == dump_b
    assert "agent.post.encode" in dump_a
    for stats in res_a.pods.values():
        assert "t_suspend_window" in stats
        assert stats["t_suspend_window"] < stats["t_local"]
    assert res_a.duration == res_b.duration


def test_async_checkpoint_post_work_outside_commit_phase():
    """Async accounting: the agent's phase spans cover only the suspend
    window (the commit phase ends at resume); the encode rides in a
    ``post``-category span under the same operation."""
    tracer, result = traced_async_checkpoint_run(7)
    op_span = tracer.find(("op", result.op_id))
    sums = layer_table(tracer, op_span).lanes
    for pod_id, stats in result.pods.items():
        agent_lanes = [total for (actor, pod), total in sums.items()
                       if actor != "manager" and pod == pod_id]
        assert agent_lanes, f"no agent phase lane for {pod_id}"
        assert sum(agent_lanes) == pytest.approx(stats["t_suspend_window"],
                                                 abs=2 * SIM_TICK_S)
    posts = [s for s in tracer.children_of(op_span) if s.category == "post"]
    assert len(posts) == len(result.pods)
    for span in posts:
        assert span.name == "agent.post.encode"
        assert span.duration > 0


def test_live_migration_same_seed_byte_identical_jsonl():
    """Pre-copy rounds are part of the deterministic trace surface."""
    tr_a, _ = traced_live_migration_run(7)
    tr_b, _ = traced_live_migration_run(7)
    dump_a, dump_b = to_jsonl(tr_a), to_jsonl(tr_b)
    assert dump_a == dump_b
    assert "precopy-round" in dump_a
    assert "agent.phase.precopy" in dump_a


def test_live_migration_chrome_args_carry_round_bytes():
    """The exported Chrome trace exposes per-round byte accounting on
    the pre-copy spans, matching the MigrationResult's round log."""
    tracer, mig = traced_live_migration_run(7)
    doc = to_chrome(tracer)
    assert validate_chrome(doc) == []
    rounds = [ev for ev in doc["traceEvents"]
              if ev.get("name") == "manager.phase.precopy-round"
              and ev["ph"] == "B"]  # duration slices export as B/E pairs
    assert rounds, "no pre-copy round spans in the Chrome export"
    for ev in rounds:
        assert "shipped_bytes" in ev["args"] and "dirty_bytes" in ev["args"]
        assert "round" in ev["args"]
    # per (round, pod) the span accounting equals the result's round log
    by_round: dict = {}
    for ev in rounds:
        by_round.setdefault(int(ev["args"]["round"]), []).append(ev)
    for rnd in mig.rounds:
        evs = by_round[rnd["round"]]
        assert sum(int(e["args"]["shipped_bytes"]) for e in evs) \
            == rnd["shipped_bytes"]
        assert sum(int(e["args"]["dirty_bytes"]) for e in evs) \
            == rnd["dirty_bytes"]


def test_different_schedules_diverge():
    """The trace reflects simulated time, not a canned constant."""
    tr_a, _ = traced_checkpoint_run(7, at=0.15)
    tr_b, _ = traced_checkpoint_run(7, at=0.25)
    assert to_jsonl(tr_a) != to_jsonl(tr_b)


def test_chaos_span_dump_identical_under_faults():
    """Determinism holds with an active FaultPlan injecting failures."""
    a = chaos.run("serial", 11, rounds=120, until=120.0, trace_spans=True)
    b = chaos.run("serial", 11, rounds=120, until=120.0, trace_spans=True)
    assert a.span_dump is not None and a.span_dump == b.span_dump
    assert a.fired == b.fired
    # fault activations show up as spans when any fault fired
    if a.fired:
        cats = {json.loads(line)["cat"] for line in a.span_dump.splitlines()}
        assert "fault" in cats


# ---------------------------------------------------------------------------
# reconciliation & schema
# ---------------------------------------------------------------------------


def test_checkpoint_phases_reconcile_with_latency():
    tracer, result = traced_checkpoint_run(7)
    op = tracer.find(("op", result.op_id))
    assert op is not None
    assert op.attrs["duration_s"] == pytest.approx(result.duration)
    assert reconcile_op(tracer, op) == []
    # agent lanes sum to each pod's locally measured checkpoint time
    lanes = layer_table(tracer, op).lanes
    for pod_id in ("pp-srv", "pp-cli"):
        agent = [total for (actor, pod), total in lanes.items()
                 if pod == pod_id and actor != "manager"]
        assert len(agent) == 1
        assert agent[0] == pytest.approx(result.pods[pod_id]["t_local"],
                                         abs=SIM_TICK_S)


def test_traced_checkpoint_passes_chrome_schema():
    tracer, _ = traced_checkpoint_run(7)
    doc = to_chrome(tracer)
    assert validate_chrome(doc, require=list(CHECKPOINT_SPAN_NAMES)) == []
    # per-node tracks exist for both pods (one pod per node here)
    lanes = {ev["args"]["name"] for ev in doc["traceEvents"]
             if ev["ph"] == "M" and ev["name"] == "thread_name"}
    assert {"manager", "blade0/pp-srv", "blade1/pp-cli"} <= lanes


# ---------------------------------------------------------------------------
# zero overhead
# ---------------------------------------------------------------------------


def test_tracer_does_not_perturb_simulated_latency():
    _, traced = traced_checkpoint_run(7, trace=True)
    _, untraced = traced_checkpoint_run(7, trace=False)
    assert traced.duration == untraced.duration  # exact float equality
    assert traced.t_start == untraced.t_start
    for pod_id in ("pp-srv", "pp-cli"):
        assert traced.pods[pod_id]["t_local"] == untraced.pods[pod_id]["t_local"]


def test_chaos_episode_identical_with_and_without_tracer():
    """Tracing changes nothing even under an active fault schedule."""
    traced = chaos.run("serial", 11, rounds=120, until=120.0, trace_spans=True)
    bare = chaos.run("serial", 11, rounds=120, until=120.0, trace_spans=False)
    assert bare.span_dump is None
    assert traced.ops == bare.ops
    assert traced.fired == bare.fired
    assert traced.trace == bare.trace  # timestamps included
    assert traced.violations == bare.violations


def test_no_tracer_no_injector_records_nothing():
    cluster = Cluster.build(2, seed=3)
    assert cluster.tracer is None and cluster.injector is None
    # every hook is a no-op returning the inert span / nothing
    span = cluster.span("agent.phase.suspend", node="blade0", pod="p")
    assert span.end() is span and span.duration == 0.0
    assert cluster.span_at("stage.serialize", 0.0, 1.0).span_id is None
    # trace() is a generator the protocol drives with `yield from`; with
    # nothing installed it finishes immediately with empty directives
    gen = cluster.trace("manager.op_start", node="blade0")
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == {}
    cluster.count("x")
    cluster.observe("y", 1.0)
    cluster.gauge_set("z", 2.0)
    assert cluster.tracer is None and cluster.metrics is None
