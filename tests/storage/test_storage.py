"""Shared-storage and snapshot tests."""

import tracemalloc

import pytest

from repro.core.image import PodImage
from repro.core.pipeline import FileSink
from repro.errors import ReproError
from repro.storage import SharedStorage, SnapshotManager
from repro.vos.filesystem import VFS, FileSystem, ensure_dirs


def test_san_transfer_delay_scales_with_bytes():
    san = SharedStorage()
    d1 = san.flush_delay(10 * 2**20)
    d2 = san.flush_delay(20 * 2**20)
    assert d2 > d1 > 0
    # 200 MB/s: 20 MiB should take about a tenth of a second
    assert d2 == pytest.approx(0.5e-3 + 20 * 2**20 / 200e6)


def test_snapshot_restores_files_and_dirs():
    fs = FileSystem("t")
    ensure_dirs(fs, "/data")
    fs.create("/data/a").data.extend(b"one")
    mgr = SnapshotManager()
    snap = mgr.take(fs, now=1.0)
    # mutate after the snapshot
    fs.create("/data/b").data.extend(b"two")
    fs.files["/data/a"].data.extend(b"-more")
    mgr.restore(fs, snap)
    assert bytes(fs.lookup("/data/a").data) == b"one"
    assert not fs.exists("/data/b")


def test_snapshot_is_isolated_from_later_writes():
    fs = FileSystem("t")
    fs.create("/f").data.extend(b"v1")
    mgr = SnapshotManager()
    snap = mgr.take(fs)
    fs.files["/f"].data.extend(b"v2")
    assert b"".join(snap.files["/f"]) == b"v1"
    assert snap.total_bytes == 2


def test_a_snapshot_shares_a_staged_image():
    """A SAN file a sink staged is captured and restored by its fragments:
    no image-sized buffer either way, and the restored file is the same
    bytes — the image's own among its fragments — until written again."""
    image_bytes = 8 << 20
    san, vfs = FileSystem("san"), VFS()
    vfs.mount("/san", san)
    image = PodImage(pod_id="p", data=bytes(image_bytes), encoded_bytes=image_bytes,
                     accounted_bytes=0, netstate_bytes=0)
    FileSink(None, vfs, "/san/p.img").stage(image)
    staged = b"".join(san.lookup("/p.img").fragments)
    mgr = SnapshotManager()
    tracemalloc.start()
    try:
        snap = mgr.take(san)
        san.unlink("/p.img")
        mgr.restore(san, snap)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * image_bytes, f"snapshot peaked at {peak / image_bytes:.2f} images"
    restored = san.lookup("/p.img")
    assert any(part is image.data for part in restored.fragments)
    assert b"".join(restored.fragments) == staged and snap.total_bytes == len(staged)
    restored.data[:4] = b"edit"                  # a write copies; the snapshot keeps its bytes
    assert b"".join(snap.files["/p.img"]) == staged


def test_latest_snapshot_lookup():
    fs = FileSystem("t")
    mgr = SnapshotManager()
    mgr.take(fs, now=1.0)
    s2 = mgr.take(fs, now=2.0)
    assert mgr.latest("t") is s2
    with pytest.raises(ReproError):
        mgr.latest("other")


def test_restore_wrong_fs_rejected():
    a, b = FileSystem("a"), FileSystem("b")
    mgr = SnapshotManager()
    snap = mgr.take(a)
    with pytest.raises(ReproError):
        mgr.restore(b, snap)
