"""End-to-end coverage of the image pipeline under the full protocol.

The property: whatever filter chain is configured — plain, compress,
delta, or compress∘delta — checkpoint→crash→restart produces a pod whose
application state is checksum-identical to an uncheckpointed run.  Plus
a golden pin that the unfiltered v1 on-disk image format written before
the pipeline existed still restarts, and a small-scale version of the
incremental size-drop acceptance criterion.
"""

from dataclasses import replace

import pytest

from repro.cluster import Cluster, FaultInjector, FaultPlan, FaultSpec
from repro.core import Manager, codec, migrate
from repro.core.pipeline import FileSink
from repro.errors import RestartError
from repro.storage.cas import CasSink

from .testapps import expected_sums, final_sums, launch_pingpong

ROUNDS = 800
BALLAST = 2_000_000

#: the chains of the round-trip property, by id.
CHAINS = {
    "plain": None,
    "compress": [{"name": "compress", "level": 4}],
    "delta": [{"name": "delta"}],
    "delta+compress": [{"name": "delta"}, {"name": "compress", "level": 4}],
}


@pytest.fixture
def world():
    cluster = Cluster.build(4, seed=42)
    manager = Manager.deploy(cluster)
    return cluster, manager


@pytest.mark.parametrize("chain", list(CHAINS), ids=list(CHAINS))
def test_any_chain_restores_checksum_identical_pods(world, chain):
    """Two checkpoints (building a chain), crash, restart, verify sums."""
    cluster, manager = world
    filters = CHAINS[chain]
    launch_pingpong(cluster, rounds=ROUNDS, ballast=BALLAST)
    targets = [("blade0", "pp-srv", "mem"), ("blade1", "pp-cli", "mem")]
    holder = {}

    def kick(i):
        holder[i] = manager.checkpoint(targets, filters=filters)

    def crash_and_restart():
        cluster.find_pod("pp-srv").destroy()
        cluster.find_pod("pp-cli").destroy()
        holder["restart"] = manager.restart(targets)

    cluster.engine.schedule(0.15, kick, 0)
    cluster.engine.schedule(0.55, kick, 1)
    cluster.engine.schedule(1.0, crash_and_restart)
    cluster.engine.run(until=300.0)
    for i in (0, 1):
        result = holder[i].finished.result
        assert result.ok, result.errors
        if filters:
            assert result.filters["pp-srv"] == filters
    restart = holder["restart"].finished.result
    assert restart.ok, restart.errors
    if chain.startswith("delta"):
        assert restart.max_stat("chain_epochs") == 2
    assert final_sums(cluster) == expected_sums(ROUNDS)


def test_filtered_migration_restores_checksums(world):
    cluster, manager = world
    launch_pingpong(cluster, rounds=ROUNDS, ballast=BALLAST)
    holder = {}

    def kick():
        holder["mig"] = migrate(manager, [
            ("blade0", "pp-srv", "blade2"),
            ("blade1", "pp-cli", "blade3"),
        ], filters=[{"name": "delta"}, {"name": "compress", "level": 4}])

    cluster.engine.schedule(0.15, kick)
    cluster.engine.run(until=300.0)
    mig = holder["mig"].finished.result
    assert mig.ok, (mig.checkpoint.errors, mig.restart.errors)
    # off-node delta degrades to a self-contained full record: the
    # destination restarts from a single image, no chain
    assert mig.restart.max_stat("chain_epochs") == 1
    assert final_sums(cluster) == expected_sums(ROUNDS)


def test_golden_v1_file_image_still_restarts(world):
    """The unfiltered on-SAN container is byte-for-byte the pre-pipeline
    format, and an image written that way restarts (the golden pin)."""
    cluster, manager = world
    launch_pingpong(cluster, rounds=ROUNDS, ballast=BALLAST)
    targets = [("blade0", "pp-srv", "file:/san/g-srv.img"),
               ("blade1", "pp-cli", "file:/san/g-cli.img")]
    holder = {}

    def kick():
        holder["ckpt"] = manager.checkpoint(targets)

    def check_and_recover():
        # the flushed file must be exactly what the historic writer
        # produced: codec({"data", "accounted", "netstate"}) around a
        # format-1 payload
        image = manager.agents["blade0"].mem_sink.load("pp-srv")[-1]
        golden = codec.encode({
            "data": image.data,
            "accounted": image.accounted_bytes,
            "netstate": image.netstate_bytes,
        })
        on_disk = bytes(cluster.san.lookup("/g-srv.img").data)
        assert on_disk == golden
        assert codec.decode(image.data)["format"] == 1
        # a crash later, the v1 file restarts on different blades
        cluster.find_pod("pp-srv").destroy()
        cluster.find_pod("pp-cli").destroy()
        holder["restart"] = manager.restart([
            ("blade2", "pp-srv", "file:/san/g-srv.img"),
            ("blade3", "pp-cli", "file:/san/g-cli.img"),
        ])

    cluster.engine.schedule(0.15, kick)
    cluster.engine.schedule(1.5, check_and_recover)
    cluster.engine.run(until=300.0)
    assert holder["ckpt"].finished.result.ok
    assert holder["restart"].finished.result.ok, holder["restart"].finished.result.errors
    assert final_sums(cluster) == expected_sums(ROUNDS)


@pytest.mark.parametrize("make_sink", [FileSink, CasSink], ids=["file", "cas"])
def test_partial_container_is_never_accepted_by_the_reader(world, make_sink):
    """Sink conformance, through the protocol only.  A write cut short
    at *any* point must be rejected by the reader — a partial flush can
    never masquerade as a restartable image — and rolling it back leaves
    the previous generation (a sink that tracks ownership) or nothing (a
    sink whose rollback is a delete), idempotently.  For the file sink
    this doubles as the golden-format pin, negative direction."""
    cluster, manager = world
    launch_pingpong(cluster, rounds=ROUNDS, ballast=BALLAST)
    holder = {}

    def kick():
        holder["ckpt"] = manager.checkpoint(
            [("blade0", "pp-srv", "file:/san/pin-srv.img"),
             ("blade1", "pp-cli", "file:/san/pin-cli.img")])

    cluster.engine.schedule(0.15, kick)
    cluster.engine.run(until=300.0)
    assert holder["ckpt"].finished.result.ok
    image = manager.agents["blade0"].mem_sink.load("pp-srv")[-1]
    # a second generation with different bytes everywhere
    other = replace(image, data=bytes(b ^ 0xFF for b in image.data))
    vfs = cluster.node(0).kernel.vfs
    sink = make_sink(cluster.san, vfs, "/san/pin-part.img")

    # stage -> publish -> load round-trips
    sink.stage(image, op_id=1)
    assert sink.publish(1)
    assert sink.exists()
    assert [i.data for i in sink.load("pp-srv")] == [image.data]

    for op_id, fraction in enumerate((0.05, 0.25, 0.5, 0.9, 0.999), start=2):
        sink.stage(other, op_id=op_id, truncate=fraction)
        assert sink.publish(op_id)
        with pytest.raises(RestartError):
            sink.load("pp-srv")
        assert sink.rollback(op_id)
        for _again in range(2):
            if sink.tracks_ops:
                assert [i.data for i in sink.load("pp-srv")] == [image.data]
            else:
                assert not sink.exists()
            assert not sink.rollback(op_id)  # idempotent

    if sink.tracks_ops:
        # publish refuses a stage another op owns, leaving both alone
        sink.stage(other, op_id=50)
        assert not sink.publish(51)
        assert [i.data for i in sink.load("pp-srv")] == [image.data]
        assert sink.publish(50)
        assert [i.data for i in sink.load("pp-srv")] == [other.data]
    # the intact container still loads (the truncation is what breaks it)
    FileSink(cluster.san, vfs, "/san/pin-srv.img").load("pp-srv")


def test_truncate_fault_leaves_no_restartable_file(world):
    """End-to-end: an injected partial write makes the flush fail, the
    Agent unlinks the junk, and the operation reports the failure —
    nothing half-written stays visible on the SAN."""
    cluster, manager = world
    srv, cli = launch_pingpong(cluster, rounds=ROUNDS, ballast=BALLAST)
    FaultInjector(cluster, FaultPlan(seed=0, faults=[
        FaultSpec(kind="truncate_image", phase="agent.flush",
                  node="blade0", fraction=0.4),
    ])).install()
    holder = {}

    def kick():
        holder["ckpt"] = manager.checkpoint(
            [("blade0", "pp-srv", "file:/san/trunc-srv.img"),
             ("blade1", "pp-cli", "file:/san/trunc-cli.img")])

    cluster.engine.schedule(0.15, kick)
    cluster.engine.run(until=300.0)
    result = holder["ckpt"].finished.result
    assert not result.ok
    assert any("flush" in e for e in result.errors)
    vfs = cluster.node(0).kernel.vfs
    # neither file survived: the partial one was unlinked by the Agent,
    # the complete sibling was garbage-collected (inconsistent cut)
    assert not FileSink(cluster.san, vfs, "/san/trunc-srv.img").exists()
    assert not FileSink(cluster.san, vfs, "/san/trunc-cli.img").exists()
    assert manager.last_checkpoint is None
    # the application kept running
    cluster.engine.run(until=500.0)
    assert final_sums(cluster) == expected_sums(ROUNDS)


def test_san_stall_at_cas_write_delays_the_flush_it_was_aimed_at(world):
    """A ``san_stall`` injected at one pod's ``cas.write`` crossing is
    paid by that pod's flush — not by whichever Agent flushes next."""
    from repro.obs import SpanTracer

    cluster, manager = world
    launch_pingpong(cluster, rounds=ROUNDS, ballast=BALLAST)
    tracer = SpanTracer(cluster.engine).install(cluster)
    stall = 1.5
    FaultInjector(cluster, FaultPlan(seed=0, faults=[
        FaultSpec(kind="san_stall", phase="cas.write", node="blade0",
                  seconds=stall),
    ])).install()
    targets = [("blade0", "pp-srv", "cas:/san/stall-srv.img"),
               ("blade1", "pp-cli", "cas:/san/stall-cli.img")]
    holder = {}
    cluster.engine.schedule(0.15, lambda: holder.update(
        a=manager.checkpoint(targets)))
    cluster.engine.schedule(3.0, lambda: holder.update(
        b=manager.checkpoint(targets)))
    cluster.engine.run(until=300.0)
    assert holder["a"].finished.result.ok and holder["b"].finished.result.ok
    flushes = {"pp-srv": [], "pp-cli": []}
    for span in tracer.by_category("cas"):
        if span.name == "cas.flush":
            flushes[span.pod].append(span.duration)
    (srv_a, srv_b), (cli_a, cli_b) = flushes["pp-srv"], flushes["pp-cli"]
    # the stalled flush grew by the stall; nobody else's did
    assert srv_a >= stall
    assert max(cli_a, srv_b, cli_b) < stall


def test_incremental_steady_state_images_shrink(world):
    """Small-scale acceptance: after the epoch-0 full image, delta
    checkpoints drop mean image size by well over 40%."""
    cluster, manager = world
    launch_pingpong(cluster, rounds=ROUNDS, ballast=BALLAST)
    targets = [("blade0", "pp-srv", "mem"), ("blade1", "pp-cli", "mem")]
    results = []

    def kick():
        task = manager.checkpoint(targets, filters=[{"name": "delta"}])
        task.finished.add_done_callback(lambda f: results.append(f.result))

    for i in range(4):
        cluster.engine.schedule(0.15 + 0.25 * i, kick)
    cluster.engine.run(until=300.0)
    assert len(results) == 4 and all(r.ok for r in results)
    sizes = [r.max_image_bytes() for r in results]
    steady = sum(sizes[1:]) / len(sizes[1:])
    assert steady < 0.6 * sizes[0], sizes
    # raw size stays at full scale — only the written bytes shrink
    assert results[-1].max_stat("raw_image_bytes") > 0.95 * sizes[0]
    assert final_sums(cluster) == expected_sums(ROUNDS)


def test_a_migrated_pods_first_delta_starts_its_own_chain(world):
    """A delta extends a chain only if this Agent's tip generation is
    the chain's tip (compose chaos seed 56's sequence).  The pods checkpoint a full CAS epoch at home,
    live-migrate (the destination restarts from the pushed image and its
    epoch counter restarts at 1), then checkpoint with the delta filter
    again.  The home chain's epoch-0 tip matches that delta by number
    alone; appended to it, the delta would patch a base it was never
    diffed against."""
    from repro.core.sinks import resolve_sink
    from repro.core.streaming import migrate_task

    cluster, manager = world
    launch_pingpong(cluster, rounds=ROUNDS, ballast=BALLAST)
    uri = "cas:/san/moved-{pod}.img"
    delta = [{"name": "delta"}]
    moves = [("blade0", "pp-srv", "blade2"), ("blade1", "pp-cli", "blade3")]
    results = {}

    def drive():
        yield cluster.engine.sleep(0.15)
        results["home"] = yield from manager.checkpoint_task(
            [(src, pod, uri.format(pod=pod)) for src, pod, _dst in moves],
            filters=delta, async_ckpt=True)
        results["mig"] = yield from migrate_task(manager, moves, live=True)
        results["away"] = yield from manager.checkpoint_task(
            [(dst, pod, uri.format(pod=pod)) for _src, pod, dst in moves],
            filters=delta, async_ckpt=True)

    cluster.engine.spawn(drive(), name="seed-56-replay")
    cluster.engine.run(until=300.0)
    assert results["home"].ok and results["mig"].ok and results["away"].ok
    vfs = cluster.node(0).kernel.vfs
    for _src, pod, dst in moves:
        # the stored chain is, entry for entry, the one the pod's Agent
        # committed and diffs its next delta against
        stored = resolve_sink(uri.format(pod=pod), cluster, vfs).load(pod)
        committed = manager.agents[dst].mem_sink.load(pod)
        assert [i.data for i in stored] == [i.data for i in committed], pod
    assert final_sums(cluster) == expected_sums(ROUNDS)
