"""File-system snapshot integration: checkpoint + rollback of files.

The paper pairs process checkpoints with storage-level snapshots instead
of copying file data into images: "a file-system snapshot (if desired)
may be taken immediately prior to reactivating the pod".
"""

import pytest

from repro.cluster import Cluster
from repro.core import Manager
from repro.vos import DEAD, build_program, imm, program


@program("testapp.file-writer")
def _file_writer(b, *, rounds, pause=0.2):
    """Append one record per round to a file in the pod's chroot."""
    b.syscall("fd", "open", imm("/journal.log"), imm("a"))
    with b.for_range("i", imm(0), imm(rounds)):
        b.op("line", lambda i: b"round-%d\n" % i, "i")
        b.syscall(None, "write", "fd", "line")
        b.syscall(None, "sleep", imm(pause))
    b.syscall(None, "close", "fd")
    b.halt(imm(0))


@pytest.fixture
def world():
    cluster = Cluster.build(2, seed=77)
    manager = Manager.deploy(cluster)
    return cluster, manager


def test_checkpoint_with_fs_snapshot_captures_file_state(world):
    cluster, manager = world
    cluster.create_pod(cluster.node(0), "fw")
    proc = cluster.node(0).kernel.spawn(
        build_program("testapp.file-writer", rounds=10), pod_id="fw")
    holder = {}

    def kick():
        holder["ckpt"] = manager.checkpoint([("blade0", "fw", "mem")],
                                            fs_snapshot=True)

    cluster.engine.schedule(0.5, kick)
    cluster.engine.run(until=30.0)
    assert proc.state == DEAD and proc.exit_code == 0
    result = holder["ckpt"].finished.result
    assert result.ok
    snap_id = result.pods["fw"]["fs_snapshot"]
    assert snap_id is not None
    # the snapshot froze the journal at the checkpoint instant...
    snap = cluster.snapshots.latest("san")
    snap_journal = b"".join(snap.files["/pods/fw/journal.log"])
    assert 0 < snap_journal.count(b"round-") < 10
    # ...while the live file kept growing afterwards
    live = bytes(cluster.san.lookup("/pods/fw/journal.log").data)
    assert live.count(b"round-") == 10
    assert live.startswith(snap_journal)


def test_restore_snapshot_rolls_files_back(world):
    cluster, manager = world
    cluster.create_pod(cluster.node(0), "fw")
    cluster.node(0).kernel.spawn(
        build_program("testapp.file-writer", rounds=10), pod_id="fw")
    holder = {}
    cluster.engine.schedule(0.5, lambda: holder.update(
        c=manager.checkpoint([("blade0", "fw", "mem")], fs_snapshot=True)))
    cluster.engine.run(until=30.0)
    assert holder["c"].finished.result.ok
    snap = cluster.snapshots.latest("san")
    frozen = b"".join(snap.files["/pods/fw/journal.log"])
    # roll the SAN back: the journal returns to the checkpoint instant
    cluster.snapshots.restore(cluster.san, snap)
    assert bytes(cluster.san.lookup("/pods/fw/journal.log").data) == frozen


def test_checkpoint_without_snapshot_records_none(world):
    cluster, manager = world
    cluster.create_pod(cluster.node(0), "fw")
    cluster.node(0).kernel.spawn(
        build_program("testapp.file-writer", rounds=3), pod_id="fw")
    holder = {}
    cluster.engine.schedule(0.3, lambda: holder.update(
        c=manager.checkpoint([("blade0", "fw", "mem")])))
    cluster.engine.run(until=30.0)
    result = holder["c"].finished.result
    assert result.ok
    assert result.pods["fw"]["fs_snapshot"] is None
    assert len(cluster.snapshots) == 0
