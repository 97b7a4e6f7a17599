"""Dirty-delta incremental checkpoints: chain integrity and acceptance.

Four layers:

* a hypothesis property at the pipeline level — an epoch-0 full image
  plus N measured-dirty delta epochs reassembles byte-identical to the
  latest capture, under any random stream of alloc/free/resize/touch
  against a real :class:`~repro.vos.memory.Memory`;
* a hypothesis differential at the Agent level — the one dirty count an
  Agent takes at suspend prices every delta exactly as the frozen
  per-process, per-segment clamp of the dirty tables did, and it is the
  count the image carries for the CAS block model;
* a simulation regression — live-migration pre-copy rounds and
  incremental checkpoints interleave in one run without corrupting each
  other's dirty baseline (the bug the per-consumer generations fix);
* the PR's acceptance criteria on the writing workload — epoch ≥ 1
  dirty-delta images ≥ 5× smaller than full images, the zero-stall path
  cuts the pod suspend window ≥ 3× at an identical restored state.
"""

import pytest

from repro.cluster import Cluster
from repro.core import Manager, agent, codec
from repro.core.image import build_payload
from repro.core.pipeline import (
    DeltaFilter, ImagePipeline, PipelineState, image_extends_chain)
from repro.harness import run_inc_cell
from repro.vos import build_program, imm, program
from repro.vos.memory import Memory

from ..mutation import mutant
from .testapps import expected_sums, final_sums, launch_pingpong


# ---------------------------------------------------------------------------
# property: full + N dirty-delta epochs restore byte-identical
# ---------------------------------------------------------------------------

hyp = pytest.importorskip("hypothesis")
from hypothesis import Phase, given, settings, strategies as st  # noqa: E402

SEGMENTS = ("heap", "grid")
CONSUMER = "ckpt"

_op = st.one_of(
    st.tuples(st.just("alloc"), st.sampled_from(SEGMENTS), st.integers(0, 1 << 16)),
    st.tuples(st.just("free"), st.sampled_from(SEGMENTS), st.integers(0, 1 << 16)),
    st.tuples(st.just("resize"), st.sampled_from(SEGMENTS), st.integers(0, 1 << 16)),
    st.tuples(st.just("touch"), st.sampled_from(SEGMENTS), st.integers(0, 1 << 16)),
)


def _apply(m, op):
    kind, seg, n = op
    if kind == "alloc":
        m.alloc(n, seg)
    elif kind == "free":
        m.free(min(n, m.segment(seg)), seg)
    elif kind == "resize":
        m.resize(n, seg)
    elif kind == "touch":
        m.touch(n, seg)


def _standalone(mem: Memory, epoch: int):
    """A minimal pod capture around one real Memory: enough for the
    pipeline (pod_id, per-proc segment tables) plus an epoch-varying
    register file so every capture has distinct payload bytes."""
    return {
        "pod_id": "prop",
        "vip": "10.1.0.1",
        "vtime": float(epoch),
        "time_virtualization": True,
        "procs": [{"vpid": 1, "memory": mem.to_image(),
                   "regs": {"epoch": epoch}}],
        "files": [],
        "timers": [],
        "zombies": {},
    }


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(_op, max_size=12), min_size=1, max_size=6))
def test_dirty_delta_chain_restores_byte_identical(epochs):
    """Epoch-0 full + N measured dirty-delta epochs == the last capture,
    byte for byte, at every link of the chain."""
    mem = Memory(heap=4096)
    state = PipelineState()
    pipeline = ImagePipeline([DeltaFilter()])

    def snapshot(epoch):
        std = _standalone(mem, epoch)
        image = pipeline.pack(std, [], [], state=state,
                              dirty_bytes=mem.dirty_in(CONSUMER))
        mem.clear_dirty(CONSUMER)
        state.commit("prop")
        return std, image

    _std0, img0 = snapshot(0)
    chain = [img0]
    for i, batch in enumerate(epochs):
        for op in batch:
            _apply(mem, op)
        std, image = snapshot(i + 1)
        chain.append(image)
        assert image.epoch == i + 1
        out = ImagePipeline.reassemble(list(chain))
        assert out.raw == codec.encode(build_payload(std, [], []))
        # the measured model never charges more than a full image of the
        # current capture
        assert image.accounted_bytes <= image.raw_accounted_bytes


@settings(max_examples=60, deadline=None)
@given(st.lists(_op, max_size=12))
def test_untouched_epoch_accounts_near_zero(ops):
    """An epoch where the application wrote nothing is charged (almost)
    nothing, whatever history preceded it — the whole point of measured
    dirty tracking."""
    mem = Memory(heap=1 << 20)
    state = PipelineState()
    pipeline = ImagePipeline([DeltaFilter()])
    for op in ops:
        _apply(mem, op)
    std = _standalone(mem, 0)
    pipeline.pack(std, [], [], state=state,
                  dirty_bytes=mem.dirty_in(CONSUMER))
    mem.clear_dirty(CONSUMER)
    state.commit("prop")
    # nothing written since: the next epoch's accounted size is only
    # envelope framing, not memory
    std1 = _standalone(mem, 1)
    img1 = pipeline.pack(std1, [], [], state=state,
                         dirty_bytes=mem.dirty_in(CONSUMER))
    state.commit("prop")
    assert img1.accounted_bytes == 0


# ---------------------------------------------------------------------------
# differential: one dirty count prices a delta as the per-segment clamp did
# ---------------------------------------------------------------------------


def _frozen_clamp(accounted, proc_memory, proc_dirty):
    """The delta charge as it was computed before the count existed,
    frozen verbatim: each process's dirty table clamped per segment to
    the segment's size (a process or segment the tracker never saw
    charged in full), as a share of the pod's accounted bytes."""
    raw_total = sum(sum(t.values()) for t in proc_memory.values())
    if raw_total <= 0:
        return 0
    dirty = 0
    for vpid, table in proc_memory.items():
        seen = proc_dirty.get(vpid, {})
        dirty += sum(min(size, seen.get(seg, size))
                     for seg, size in table.items())
    return int(accounted * (dirty / raw_total))


def _frozen_stamp(proc_dirty):
    """The dirty total the Agent stamped on the image for the CAS block
    model, frozen verbatim: the same tables, summed unclamped."""
    return sum(sum(table.values()) for table in proc_dirty.values())


@program("testapp.idle")
def _idle(b, *, ballast):
    b.alloc(imm(ballast), "heap")
    b.syscall(None, "sleep", imm(1000.0))
    b.halt(imm(0))


_proc_op = st.tuples(st.integers(0, 2), st.one_of(
    _op,
    st.tuples(st.sampled_from(("begin", "commit", "abort")), st.just(""),
              st.just(0))))


def _apply_history(mem, op):
    """A memory op, or a clear of the checkpoint consumer's baseline
    (begun, committed or aborted) outside any checkpoint."""
    kind = op[0]
    if kind == "begin":
        mem.begin_clear(CONSUMER)
    elif kind == "commit":
        mem.commit_clear(CONSUMER)
    elif kind == "abort":
        mem.abort_clear(CONSUMER)
    else:
        _apply(mem, op)


def _count_matches_the_clamp(nprocs, epochs):
    """Checkpoint an idle pod of ``nprocs`` processes once per history
    in ``epochs`` (a delta to ``mem``), writing each history straight
    into the processes' memories first.  Every image must carry the
    clamp's dirty total, and every delta must charge the clamp's bytes."""
    cluster = Cluster.build(1, seed=3)
    manager = Manager.deploy(cluster)
    node = cluster.node(0)
    cluster.create_pod(node, "dc")
    for _ in range(nprocs):
        node.kernel.spawn(build_program("testapp.idle", ballast=1 << 16),
                          pod_id="dc")
    cluster.engine.run(until=0.5)
    procs = cluster.find_pod("dc").processes()
    sink = manager.agents[node.name].mem_sink
    seen = []

    def driver():
        for history in [[]] + epochs:
            for which, op in history:
                _apply_history(procs[which % nprocs].memory, op)
            # an idle pod writes nothing more before its suspend: these
            # are the tables the Agent would have captured there
            proc_dirty = {p.vpid: p.memory.dirty_table(CONSUMER) for p in procs}
            charge = _frozen_clamp(
                sum(p.memory.rss for p in procs),
                {p.vpid: p.memory.to_image() for p in procs}, proc_dirty)
            res = yield from manager.checkpoint_task(
                [(node.name, "dc", "mem")], filters=[{"name": "delta"}])
            assert res.ok, res.errors
            seen.append((charge, _frozen_stamp(proc_dirty),
                         sink.load("dc")[-1]))

    cluster.engine.spawn(driver(), name="differential")
    cluster.engine.run(until=cluster.engine.now + 60.0)
    assert len(seen) == len(epochs) + 1
    for charge, dirty, image in seen:
        assert image.acct_dirty_bytes == dirty
        if image_extends_chain(image):
            assert image.accounted_bytes == charge


_histories = (st.integers(1, 3),
              st.lists(st.lists(_proc_op, max_size=10), min_size=1, max_size=4))


@settings(max_examples=40, deadline=None)
@given(*_histories)
def test_one_dirty_count_prices_deltas_as_the_segment_clamp(nprocs, epochs):
    _count_matches_the_clamp(nprocs, epochs)


def test_a_count_taken_after_the_baseline_clear_is_caught(monkeypatch):
    """Hand mutation: the Agent counts after staging its baseline clear,
    so every checkpoint looks clean."""
    twin = mutant(
        agent,
        "            ck.dirty_bytes = count_dirty(pod.processes(), CKPT_CONSUMER)\n"
        "            for p in pod.processes():\n"
        "                p.memory.begin_clear(CKPT_CONSUMER)\n",
        "            for p in pod.processes():\n"
        "                p.memory.begin_clear(CKPT_CONSUMER)\n"
        "            ck.dirty_bytes = count_dirty(pod.processes(), CKPT_CONSUMER)\n")
    monkeypatch.setattr(agent.Agent, "_capture", twin.Agent._capture)

    @settings(max_examples=40, deadline=None, database=None,
              phases=[Phase.generate])
    @given(*_histories)
    def mutated(nprocs, epochs):
        _count_matches_the_clamp(nprocs, epochs)

    with pytest.raises(AssertionError):
        mutated()


# ---------------------------------------------------------------------------
# regression: pre-copy and incremental checkpoints interleave safely
# ---------------------------------------------------------------------------


def test_precopy_and_incremental_share_one_run():
    """Pre-copy rounds (``precopy`` consumer) and incremental
    checkpoints (``ckpt`` consumer) interleave in one run; each must
    keep seeing the dirtiness accumulated since *its own* last visit,
    and the delta chain must still restore byte-identical."""
    cluster = Cluster.build(4, seed=11)
    manager = Manager.deploy(cluster)
    launch_pingpong(cluster, rounds=4000, ballast=32_000_000,
                    dirty_rate=16_000_000)
    moves = [("blade0", "pp-srv", "blade2"), ("blade1", "pp-cli", "blade3")]
    targets = [("blade0", "pp-srv", "mem"), ("blade1", "pp-cli", "mem")]
    out = {"ckpts": [], "rounds": []}

    def driver():
        engine = cluster.engine
        yield engine.sleep(0.3)
        # epoch 0: full base
        res = yield from manager.checkpoint_task(targets,
                                                 filters=[{"name": "delta"}])
        assert res.ok, res.errors
        out["ckpts"].append(res)
        yield engine.sleep(0.2)
        # pre-copy round 1 ships the full resident set
        op = manager.ledger.new_id()
        stats, errors = yield from manager.precopy_round(moves, 1, op_id=op)
        assert not errors, errors
        out["rounds"].append(stats)
        yield engine.sleep(0.2)
        # incremental epoch 1 — must see writes since epoch 0, not since
        # the pre-copy round's clear
        res = yield from manager.checkpoint_task(targets,
                                                 filters=[{"name": "delta"}])
        assert res.ok, res.errors
        out["ckpts"].append(res)
        # pre-copy round 2, immediately after the checkpoint: must see
        # writes since round 1, not since the checkpoint's clear
        stats, errors = yield from manager.precopy_round(moves, 2, op_id=op)
        assert not errors, errors
        out["rounds"].append(stats)
        yield engine.sleep(0.2)
        # incremental epoch 2 right after the pre-copy clear
        res = yield from manager.checkpoint_task(targets,
                                                 filters=[{"name": "delta"}])
        assert res.ok, res.errors
        out["ckpts"].append(res)

    cluster.engine.spawn(driver(), name="interleave")
    cluster.engine.run(until=120.0)
    assert len(out["ckpts"]) == 3 and len(out["rounds"]) == 2
    assert final_sums(cluster) == expected_sums(4000)

    # each epoch ≥ 1 saw real dirtiness: the writer keeps rewriting, so
    # a baseline clobbered by the pre-copy clear would account ~0 here
    # only if the windows were empty — and far more than the measured
    # window if the clear had been lost entirely
    full = out["ckpts"][0].max_stat("raw_image_bytes")
    for res in out["ckpts"][1:]:
        inc = res.max_stat("image_bytes")
        assert 0 < inc < 0.5 * full, (inc, full)
    # round 2 shipped only the dirtiness since round 1 — nonzero (the
    # interleaved checkpoint's clear didn't steal it) and nowhere near
    # the full resident set (its own round-1 clear held)
    r1 = sum(s["shipped_bytes"] for s in out["rounds"][0].values())
    r2 = sum(s["shipped_bytes"] for s in out["rounds"][1].values())
    assert r2 > 0
    assert r2 < 0.5 * r1, (r2, r1)

    # the chains on both source agents still restore byte-identically
    for node_name, pod_id in (("blade0", "pp-srv"), ("blade1", "pp-cli")):
        agent = manager.agents[node_name]
        chain = agent.pipeline_state.chains[pod_id]
        assert len(chain) == 3
        reassembled = ImagePipeline.reassemble(list(chain))
        assert reassembled.raw == agent.pipeline_state.bases[pod_id]


# ---------------------------------------------------------------------------
# regression: a delta is only published where its base is
# ---------------------------------------------------------------------------

DELTA = [{"name": "delta"}]


def _ckpt_sequence(uris_per_op, filters=DELTA):
    """Checkpoints of the ping-pong pair (delta ones by default), one
    per entry of ``uris_per_op`` (each a ``{pod: uri}``), then the
    world."""
    cluster = Cluster.build(4, seed=11)
    manager = Manager.deploy(cluster)
    launch_pingpong(cluster, rounds=4000, ballast=2_000_000,
                    dirty_rate=4_000_000)
    hosts = {"pp-srv": "blade0", "pp-cli": "blade1"}
    results = []

    def driver():
        for uris in uris_per_op:
            yield cluster.engine.sleep(0.3)
            res = yield from manager.checkpoint_task(
                [(hosts[pod], pod, uri) for pod, uri in uris.items()],
                filters=filters)
            assert res.ok, res.errors
            results.append(res)

    cluster.engine.spawn(driver(), name="seq")
    cluster.engine.run(until=30.0)
    assert len(results) == len(uris_per_op)
    return cluster, manager, results


def test_a_request_for_the_unmeasured_delta_is_rejected():
    """``measured: False`` named a dirty model that no longer exists:
    the Agent refuses the stage, says so, and writes full images."""
    legacy = [{"name": "delta", "measured": False}]
    _cluster, manager, results = _ckpt_sequence(
        [{"pp-srv": "mem"}, {"pp-srv": "mem"}], filters=legacy)
    for res in results:
        assert res.filters_rejected == {"pp-srv": legacy}
        assert res.max_stat("image_bytes") == res.max_stat("raw_image_bytes")
    (image,) = manager.agents["blade0"].mem_sink.load("pp-srv")
    assert image.filters == [] and not image_extends_chain(image)


def test_delta_to_a_fresh_path_is_restartable():
    """Two delta checkpoints to *different* file paths: the second path
    has no base to patch, so its image must be full — and restart from
    it must work (it published a lone delta before)."""
    first = {p: f"file:/san/g1-{p}.img" for p in ("pp-srv", "pp-cli")}
    second = {p: f"file:/san/g2-{p}.img" for p in ("pp-srv", "pp-cli")}
    cluster, manager, results = _ckpt_sequence([first, second])
    targets = results[-1].targets
    out = {}

    def restart():
        for _node, pod_id, _uri in targets:
            cluster.find_pod(pod_id).destroy()
        out["res"] = yield from manager.restart_task(targets)

    cluster.engine.spawn(restart(), name="restart")
    cluster.engine.run(until=300.0)
    assert out["res"].ok, out["res"].errors
    assert final_sums(cluster) == expected_sums(4000)


@pytest.mark.parametrize("scheme", ["file", "cas"])
def test_stable_path_with_a_generation_elsewhere_stays_contiguous(scheme):
    """Path, memory, same path again: the third image cannot extend the
    first (epoch 1 never reached that sink) — a chain with epochs [0, 2]
    would patch the wrong base silently."""
    from repro.core.sinks import resolve_sink

    san = {p: f"{scheme}:/san/st-{p}.img" for p in ("pp-srv", "pp-cli")}
    mem = {p: "mem" for p in san}
    cluster, manager, _results = _ckpt_sequence([san, mem, san, san])
    for pod, uri in san.items():
        sink = resolve_sink(uri, cluster, cluster.node(0).kernel.vfs)
        chain = sink.load(pod)
        assert [img.epoch for img in chain] == [2, 3]
        agent = manager.agents[cluster.node_of_pod(pod).name]
        assert ImagePipeline.reassemble(chain).raw == \
            agent.pipeline_state.bases[pod]


def test_readers_reject_headless_and_gapped_chains():
    """The read-back guard behind ``flushed``: a chain whose head is a
    delta, or whose epochs skip, is not restartable — whichever sink
    holds it."""
    from repro.core.pipeline import FileSink
    from repro.errors import RestartError
    from repro.storage.cas import CasSink

    cluster, manager, _results = _ckpt_sequence(
        [{"pp-srv": "mem"}, {"pp-srv": "mem"}, {"pp-srv": "mem"}])
    full, d1, d2 = manager.agents["blade0"].mem_sink.load("pp-srv")
    vfs = cluster.node(0).kernel.vfs
    for make_sink in (FileSink, CasSink):
        headless = make_sink(cluster.san, vfs, "/san/bad-headless.img")
        headless.store(d1, op_id=1)
        with pytest.raises(RestartError, match="delta"):
            headless.load("pp-srv")
        gapped = make_sink(cluster.san, vfs, "/san/bad-gapped.img")
        gapped.store(full, op_id=2)
        gapped.store(d2, op_id=3)
        with pytest.raises(RestartError, match="epoch"):
            gapped.load("pp-srv")
        for sink, op in ((headless, 1), (gapped, 3), (gapped, 2)):
            sink.rollback(op)


# ---------------------------------------------------------------------------
# acceptance: generational shrink and the zero-stall suspend window
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def inc_cells():
    return {mode: run_inc_cell(mode)
            for mode in ("full", "delta", "delta-async")}


def test_dirty_delta_epochs_at_least_5x_smaller(inc_cells):
    """Acceptance: with dirty tracking on, every epoch ≥ 1 image is at
    least 5× smaller than the full image."""
    full = inc_cells["full"]
    delta = inc_cells["delta"]
    assert delta.image_sizes[0] == pytest.approx(full.image_sizes[0], rel=0.01)
    for size in delta.image_sizes[1:]:
        assert size * 5 <= full.steady_state_image_size, delta.image_sizes
    assert delta.chain_ok


def test_async_cuts_suspend_window_at_least_3x(inc_cells):
    """Acceptance: the zero-stall path shrinks the pod suspend window
    ≥ 3× against the serial incremental path, and the chain it commits
    still reassembles byte-identical to the agent's full base."""
    serial = inc_cells["delta"]
    zero_stall = inc_cells["delta-async"]
    assert zero_stall.mean_suspend * 3 <= serial.mean_suspend, (
        zero_stall.suspend_windows, serial.suspend_windows)
    assert zero_stall.chain_ok and serial.chain_ok
