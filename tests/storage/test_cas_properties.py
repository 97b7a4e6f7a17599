"""Property battery for the content-addressed checkpoint store.

Three families of invariants, driven by Hypothesis:

* **Reassembly identity** — any byte string survives the chunker, and
  any image stored through :class:`~repro.storage.cas.CasSink` loads
  back byte-identical (and identical to what
  :class:`~repro.core.pipeline.FileSink` restores for the same image).
* **Boundary stability** — the gear hash restarts at every cut, so a
  chunk's boundary depends only on its own bytes: appends never move an
  interior boundary, a suffix edit re-hashes only chunks at or after
  the edit, and a prefix edit resynchronizes within a bounded window.
* **Dedup** — re-storing identical content (a second generation, or the
  same image under another pod's path) stores each chunk exactly once.

Chunk parameters are shrunk (64/256/1024) so short Hypothesis inputs
exercise many chunks.
"""

import pytest

from repro.core.image import PodImage
from repro.core.pipeline import FileSink
from repro.storage.cas import (
    CasSink,
    CasStore,
    chunk_bounds,
    chunk_id,
    split_chunks,
)
from repro.storage.san import SharedStorage
from repro.vos.filesystem import FileSystem, VFS

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

#: tight chunking so kilobyte-scale inputs span many chunks.
MIN, AVG, MAX = 64, 256, 1024

_blob = st.binary(min_size=0, max_size=8192)
_blob1 = st.binary(min_size=1, max_size=8192)


def _world():
    san = SharedStorage()
    vfs = VFS(FileSystem("root"))
    vfs.mount("/san", san)
    return san, vfs


def _image(pod_id, data, accounted=0, epoch=0, filters=None, dirty=None):
    return PodImage(pod_id=pod_id, data=bytes(data),
                    encoded_bytes=len(data), accounted_bytes=accounted,
                    netstate_bytes=0, filters=list(filters or []),
                    epoch=epoch, acct_dirty_bytes=dirty)


# ---------------------------------------------------------------------------
# the chunker
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(_blob)
def test_chunks_reassemble_byte_identical(data):
    chunks = split_chunks(data, MIN, AVG, MAX)
    assert b"".join(chunks) == data
    bounds = chunk_bounds(data, MIN, AVG, MAX)
    # contiguous cover, every chunk within [MIN, MAX] except a final
    # runt forced by end-of-data
    pos = 0
    for i, (off, ln) in enumerate(bounds):
        assert off == pos
        assert ln <= MAX
        if i < len(bounds) - 1:
            assert ln >= MIN
        pos += ln
    assert pos == len(data)


@settings(max_examples=200, deadline=None)
@given(_blob1, _blob1)
def test_appends_never_move_interior_boundaries(a, b):
    """Every bound of ``a`` except the end-of-data one survives the
    append — the hash restart makes cuts depend only on their own
    chunk's bytes."""
    before = chunk_bounds(a, MIN, AVG, MAX)
    after = chunk_bounds(a + b, MIN, AVG, MAX)
    assert before[:-1] == after[:len(before) - 1]


@settings(max_examples=200, deadline=None)
@given(_blob1, st.integers(0, 1 << 30), st.binary(min_size=1, max_size=64))
def test_suffix_edit_rehashes_only_touched_chunks(data, pos_seed, patch):
    """Mutating bytes at offset ``p`` keeps every chunk that ends at or
    before ``p`` byte-identical (same id, same bound)."""
    p = pos_seed % len(data)
    edited = data[:p] + patch + data[p + len(patch):]
    old = split_chunks(data, MIN, AVG, MAX)
    new = split_chunks(edited, MIN, AVG, MAX)
    intact = 0
    off = 0
    for chunk in old:
        if off + len(chunk) > p:
            break
        intact += 1
        off += len(chunk)
    assert new[:intact] == old[:intact]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.binary(min_size=2048, max_size=8192),
       st.binary(min_size=1, max_size=128))
def test_prefix_edit_resyncs_within_bounded_window(data, insert):
    """Inserting bytes at the front re-hashes only a bounded prefix:
    boundaries resynchronize and the tail dedups chunk-for-chunk."""
    old_ids = {chunk_id(c) for c in split_chunks(data, MIN, AVG, MAX)}
    new = split_chunks(insert + data, MIN, AVG, MAX)
    fresh = sum(len(c) for c in new if chunk_id(c) not in old_ids)
    # the insert itself, plus a resync window: generous but far below
    # "everything re-hashed" (inputs are ≥ 2 KB)
    assert fresh <= len(insert) + 4 * MAX


# ---------------------------------------------------------------------------
# the sink: reassembly identity and dedup
# ---------------------------------------------------------------------------


#: both shared sinks, built through their common constructor shape.
SINKS = {
    "file": FileSink,
    "cas": lambda san, vfs, path: CasSink(san, vfs, path,
                                          chunking=(MIN, AVG, MAX)),
}


@pytest.mark.parametrize("make_sink", list(SINKS.values()), ids=list(SINKS))
@settings(max_examples=100, deadline=None)
@given(_blob, st.integers(0, 200_000))
def test_sink_roundtrip_byte_identical(make_sink, data, accounted):
    """Sink conformance: whatever is staged and published loads back
    field-identical, through the protocol only."""
    san, vfs = _world()
    image = _image("pod-a", data, accounted=accounted)
    sink = make_sink(san, vfs, "/san/a.img")
    sink.stage(image, op_id=1)
    assert sink.publish(1)
    assert sink.exists()
    loaded = sink.load("pod-a")
    assert len(loaded) == 1
    assert loaded[0].data == image.data
    assert loaded[0].accounted_bytes == image.accounted_bytes
    assert loaded[0].netstate_bytes == image.netstate_bytes
    assert loaded[0].epoch == image.epoch
    assert CasStore.on(san).audit() == []


@settings(max_examples=100, deadline=None)
@given(_blob, st.integers(0, 200_000))
def test_cas_restores_exactly_what_filesink_restores(data, accounted):
    """Same image through both sinks: restores are field-identical."""
    san, vfs = _world()
    image = _image("pod-a", data, accounted=accounted)
    FileSink(san, vfs, "/san/f.img").store(image)
    CasSink(san, vfs, "/san/c.img", chunking=(MIN, AVG, MAX)).store(
        image, op_id=1)
    via_file = FileSink(san, vfs, "/san/f.img").load("pod-a")
    via_cas = CasSink(san, vfs, "/san/c.img").load("pod-a")
    assert len(via_file) == len(via_cas) == 1
    f, c = via_file[0], via_cas[0]
    assert (f.data, f.accounted_bytes, f.netstate_bytes, f.epoch) == \
        (c.data, c.accounted_bytes, c.netstate_bytes, c.epoch)


@settings(max_examples=100, deadline=None)
@given(_blob1, st.integers(0, 200_000))
def test_duplicate_image_stores_each_chunk_once(data, accounted):
    """A second pod checkpointing identical content adds zero stored
    bytes — every chunk (payload and pristine accounted block) hits the
    fleet-wide index."""
    san, vfs = _world()
    store = CasStore.on(san)
    CasSink(san, vfs, "/san/a.img", chunking=(MIN, AVG, MAX)).store(
        _image("pod-a", data, accounted=accounted), op_id=1)
    before = store.stored_bytes
    CasSink(san, vfs, "/san/b.img", chunking=(MIN, AVG, MAX)).store(
        _image("pod-b", data, accounted=accounted), op_id=2)
    assert store.stored_bytes == before
    assert store.audit() == []
    # and both restore independently, byte-identical
    assert CasSink(san, vfs, "/san/a.img").load("pod-a")[0].data == data
    assert CasSink(san, vfs, "/san/b.img").load("pod-b")[0].data == data


@settings(max_examples=60, deadline=None)
@given(_blob1, st.integers(0, 1 << 30), st.binary(min_size=1, max_size=64))
def test_next_generation_stores_only_the_edit(data, pos_seed, patch):
    """Generation 2 = generation 1 with a small edit: the new bytes that
    reach the SAN are bounded by the edit plus the resync window, never
    the whole image."""
    p = pos_seed % len(data)
    edited = data[:p] + patch + data[p + len(patch):]
    san, vfs = _world()
    store = CasStore.on(san)
    sink = CasSink(san, vfs, "/san/g.img", chunking=(MIN, AVG, MAX))
    sink.store(_image("pod-a", data), op_id=1)
    before = store.stored_bytes
    sink.store(_image("pod-a", edited), op_id=2)
    assert store.stored_bytes - before <= len(patch) + 5 * MAX
    assert sink.load("pod-a")[0].data == edited
    assert store.audit() == []
