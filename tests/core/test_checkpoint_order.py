"""The §4 ordering ablation is the default schedule with one step moved.

``order="standalone-first"`` runs the same Agent sequence as the default
``net-first``, with the standalone step (capture and encode) moved ahead
of the meta-data report, so nothing overlaps the Manager's sync.  Same
world as ``benchmarks/test_ablations.py`` (PETSc, 4 pods, seed 2,
checkpoint at 0.4 s), traced.
"""

import pytest

from repro.core import Manager
from repro.harness import APPS, build_cluster
from repro.middleware.daemon import checkpoint_targets
from repro.obs import SpanTracer, reconcile_op

ORDERS = ("net-first", "standalone-first")


def _checkpoint(order, **args):
    cluster = build_cluster(4, seed=2)
    manager = Manager.deploy(cluster)
    tracer = SpanTracer(cluster.engine).install(cluster)
    handle = APPS["PETSc"].launch_pods(cluster, 4, 1.0)
    out = {}

    def orchestrate():
        yield cluster.engine.sleep(0.4)
        out["result"] = yield from manager.checkpoint_task(
            checkpoint_targets(handle, cluster), order=order, **args)

    cluster.engine.spawn(orchestrate(), name="order")
    cluster.engine.run(until=600.0)
    assert out["result"].ok, out["result"].errors
    assert handle.ok(cluster)
    return tracer, out["result"]


@pytest.fixture(scope="module")
def runs():
    return {order: _checkpoint(order) for order in ORDERS}


def _lanes(tracer):
    """pod -> its Agent phase spans, in the order they were opened."""
    lanes = {}
    for span in tracer.spans:
        if span.name.startswith("agent.phase."):
            lanes.setdefault(span.pod, []).append(span)
    return lanes


def test_overlapping_the_sync_is_not_slower(runs):
    net_first = runs["net-first"][1].duration
    assert net_first <= runs["standalone-first"][1].duration + 1e-9


def test_standalone_first_charges_the_same_network_time(runs):
    """The standalone charge is the standalone step's, under either order."""
    net_first = runs["net-first"][1].pods
    standalone_first = runs["standalone-first"][1].pods
    assert set(standalone_first) == set(net_first)
    for pod_id, stats in standalone_first.items():
        assert stats["t_network"] == pytest.approx(
            net_first[pod_id]["t_network"], abs=1e-12), pod_id


@pytest.mark.parametrize("order", ORDERS)
def test_one_standalone_span_per_lane_in_step_order(runs, order):
    tracer, result = runs[order]
    lanes = _lanes(tracer)
    assert set(lanes) == set(result.pods)
    for pod_id, spans in lanes.items():
        names = [s.name for s in spans]
        assert names.count("agent.phase.standalone") == 1, (pod_id, names)
        standalone = spans[names.index("agent.phase.standalone")]
        meta = spans[names.index("agent.phase.meta_report")]
        netstate = spans[names.index("agent.phase.netstate")]
        if order == "net-first":
            assert meta.t_end <= standalone.t_start, pod_id
        else:
            assert netstate.t_end <= standalone.t_start, pod_id
            assert standalone.t_end <= meta.t_start, pod_id


@pytest.mark.parametrize("order", ORDERS)
def test_phases_reconcile_under_either_order(runs, order):
    tracer, result = runs[order]
    assert reconcile_op(tracer, tracer.find(("op", result.op_id))) == []


def test_standalone_first_wins_over_async():
    """An async request under standalone-first encodes inside the outage
    window; under net-first it defers the encode past resume."""
    for order, deferred in (("net-first", True), ("standalone-first", False)):
        tracer, _ = _checkpoint(order, async_ckpt=True)
        post = [s for s in tracer.spans if s.name == "agent.post.encode"]
        assert bool(post) == deferred, order
