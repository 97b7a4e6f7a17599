"""Once means once: a flush chunks and hashes its image one time.

A ``cas:`` flush prices the write (``write_cost``), charges its delay
(``write_delay``, twice) and stages — four looks at one image.  The
payload's chunk list is a function of the image bytes alone, so the sink
computes it once; what is *not* a function of the image alone — which
chunks the index already holds — must still be read off the live store
at each look, because other pods publish in between.
"""

import random
from types import SimpleNamespace

from repro import harness  # noqa: F401 - registers harness.writer
from repro.cluster import Cluster
from repro.core import Manager
from repro.core.image import PodImage
from repro.storage import cas
from repro.storage.san import SharedStorage
from repro.vos import build_program


def _image(pod_id, data, accounted=0):
    return PodImage(pod_id=pod_id, data=data, encoded_bytes=len(data),
                    accounted_bytes=accounted, netstate_bytes=0)


def _count_chunking(monkeypatch):
    """Count ``chunk_bounds`` and ``sha256`` calls made from ``cas``."""
    calls = {"chunk_bounds": 0, "sha256": 0}
    chunk_bounds, sha256 = cas.chunk_bounds, cas.hashlib.sha256

    def counted_bounds(*args):
        calls["chunk_bounds"] += 1
        return chunk_bounds(*args)

    def counted_sha256(blob):
        calls["sha256"] += 1
        return sha256(blob)

    monkeypatch.setattr(cas, "chunk_bounds", counted_bounds)
    monkeypatch.setattr(cas, "hashlib", SimpleNamespace(sha256=counted_sha256))
    return calls


def test_one_agent_checkpoint_chunks_and_hashes_its_payload_once(monkeypatch):
    calls = _count_chunking(monkeypatch)
    cluster = Cluster.build(2, seed=0)
    manager = Manager.deploy(cluster)
    node = cluster.node(0)
    cluster.create_pod(node, "w0")
    node.kernel.spawn(
        build_program("harness.writer", ballast=1_000_000, dirty_rate=0,
                      chunk_cycles=30_000_000, chunks=200), pod_id="w0")
    holder = {}
    cluster.engine.schedule(0.2, lambda: holder.update(
        op=manager.checkpoint([(node.name, "w0", "cas:/san/w0.img")])))
    cluster.engine.run(until=60.0)
    assert holder["op"].finished.result.ok, holder["op"].finished.result.errors
    recipe = cas.CasStore.on(cluster.san).recipes["/san/w0.img"]
    payload = recipe["entries"][0]["payload"]
    assert payload and calls == {"chunk_bounds": 1, "sha256": len(payload)}


def test_a_sink_rechunks_when_the_image_bytes_change(monkeypatch):
    """What is remembered is keyed by the bytes, not by the sink."""
    calls = _count_chunking(monkeypatch)
    sink = cas.CasSink(SharedStorage(), None, "/san/a.img")
    first, second = _image("pod-a", b"a" * 9000), _image("pod-a", b"b" * 9000)
    for image in (first, first, second, second, first):
        sink.write_delay(image)
    assert calls["chunk_bounds"] == 3
    # a mutable buffer is never trusted to be what it was
    buffered = _image("pod-a", b"")
    buffered.data = bytearray(b"c" * 9000)
    sink.write_delay(buffered)
    buffered.data[:] = b"d" * 9000
    sink.stage(buffered, op_id=1)
    sink.publish(1)
    assert calls["chunk_bounds"] == 5
    assert sink.load("pod-a")[0].data == b"d" * 9000


def test_a_rival_publishing_between_cost_and_stage_is_seen():
    """Pod b publishes pod a's exact content after a priced its write
    and before a staged: a's later delay and its stage must see b's
    chunks — the shared chunk list may not freeze what counts as new."""
    san = SharedStorage()
    store = cas.CasStore.on(san)
    data = random.Random(7).randbytes(100_000)
    accounted = 3 * cas.ACCT_BLOCK + 10
    image_a = _image("pod-a", data, accounted)
    sink_a = cas.CasSink(san, None, "/san/a.img")
    n_chunks = len(cas.split_chunks(data)) + 4
    assert n_chunks > 6

    cost = sink_a.write_cost(image_a)
    assert cost.out_bytes == image_a.total_bytes == len(data) + accounted
    assert cost.seconds == sink_a.write_delay(image_a) \
        == san.flush_delay(image_a.total_bytes)

    cas.CasSink(san, None, "/san/b.img").store(
        _image("pod-b", data, accounted), op_id=2)
    assert store.stored_bytes == image_a.total_bytes
    assert (store.dup_hits, store.dup_bytes) == (0, 0)

    # the same sink, the same remembered chunk list, a different answer
    assert sink_a.write_delay(image_a) == san.flush_delay(0) < cost.seconds
    assert sink_a.write_cost(image_a).out_bytes == 0
    sink_a.stage(image_a, op_id=1)
    assert sink_a.publish(1)
    assert (store.dup_hits, store.dup_bytes) == (n_chunks, image_a.total_bytes)
    assert store.stored_bytes == image_a.total_bytes     # one copy, two pods
    assert store.logical_bytes == 2 * image_a.total_bytes
    assert sink_a.load("pod-a")[0].data == data
    assert store.audit() == []
