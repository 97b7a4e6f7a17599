"""A work budget for the flush, so an image's bytes are moved once per step.

Counted, not timed, like ``tests/net/test_segment_budget.py``.  Between
capture and a verified restart an image is *joined* once (``pack``) and
then lives once: the SAN file keeps the container's fragments, the image
among them by reference, and ``load`` hands that same object back — so
the Agent's generation, the file and a restart's delta base are one
``bytes``.  The path before joined it twice (the container around it),
built a ``bytearray`` of the file, copied the whole file before decoding
it and sliced the image out of that copy; the one after that still wrote
the file as a ``bytearray`` and copied the image out of it at every load.

The first test counts codec calls in one 4-pod BT/NAS checkpoint to the
SAN; the next two weigh ``FileSink.stage`` and ``FileSink.load`` on an
8 MB image with ``tracemalloc`` — a copy of the image shows up as 8 MB;
the last restarts pods from the SAN and asks whose bytes their base is.
"""

import tracemalloc
from collections import Counter

from repro.core import Manager, codec
from repro.core.image import PodImage
from repro.core.pipeline import FileSink
from repro.harness import APPS, build_cluster
from repro.middleware import checkpoint_targets
from repro.vos.filesystem import VFS

from .testapps import checkpoint_app_once

#: nothing but an image is this large: control messages are a few KB.
BIG = 64 * 1024
IMAGE_BYTES = 8 << 20


def test_a_pod_checkpoint_joins_and_decodes_its_image_once(monkeypatch):
    made = Counter()

    def counting(name, size_of):
        real = getattr(codec, name)

        def wrapper(obj):
            out = real(obj)
            if size_of(obj, out) >= BIG:
                made[name] += 1
            return out

        monkeypatch.setattr(codec, name, wrapper)

    counting("encode", lambda obj, out: len(out))
    counting("fragment", lambda obj, out: len(out))
    counting("decode", lambda obj, out: len(obj))

    _cluster, _tracer, result = checkpoint_app_once("BT/NAS", 4)
    assert all(stats["encoded_bytes"] > BIG for stats in result.pods.values())
    # per pod-checkpoint: the image (not the container around it) and the
    # read-back (of a view: see the two tests below for what it copies)
    assert made == {"encode": 4, "decode": 4}


def _staged_big_image():
    vfs = VFS()
    sink = FileSink(None, vfs, "/big.img")
    image = PodImage(pod_id="p", data=bytes(IMAGE_BYTES), encoded_bytes=IMAGE_BYTES,
                     accounted_bytes=0, netstate_bytes=0)
    return vfs, sink, image


def _peak_of(body):
    tracemalloc.start()
    try:
        out = body()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_stage_allocates_no_copy_of_the_image():
    vfs, sink, image = _staged_big_image()
    _, peak = _peak_of(lambda: sink.stage(image))
    stored = vfs.open("/big.img", "r").file
    assert any(part is image.data for part in stored.fragments)
    assert codec.decode(b"".join(stored.fragments)) == \
        {"data": image.data, "accounted": 0, "netstate": 0}
    # a handful of headers, and nothing the size of the image
    assert peak < 0.5 * IMAGE_BYTES, f"stage peaked at {peak / IMAGE_BYTES:.2f} images"


def test_load_hands_back_the_stored_payload():
    _vfs, sink, image = _staged_big_image()
    sink.stage(image)
    (loaded,), peak = _peak_of(lambda: sink.load("p"))
    assert loaded.data is image.data
    # the transient join the read-back decodes, and no copy of the image
    assert peak < 1.5 * IMAGE_BYTES, f"load peaked at {peak / IMAGE_BYTES:.2f} images"


def test_a_restart_from_the_san_rebases_on_the_stored_payload():
    """One object from ``pack`` to the restored pod's next delta base:
    the SAN file's payload fragment is the checkpointing Agent's image,
    and the restoring Agent (the same one) records it as its base."""
    spec = APPS["BT/NAS"]
    cluster = build_cluster(4, seed=0)
    manager = Manager.deploy(cluster)
    handle = spec.launch_pods(cluster, 4, 1.0)
    targets = [(node, pod_id, f"file:/san/rebase-{pod_id}.img")
               for node, pod_id, _uri in checkpoint_targets(handle, cluster)]
    fragments, held, ops = {}, {}, {}

    def script():
        yield cluster.engine.sleep(0.5 * spec.work_seconds(4, 1.0))
        ops["checkpoint"] = yield from manager.checkpoint_task(targets)
        for node, pod_id, uri in targets:
            fs, inner = cluster.node_by_name(node).kernel.vfs.resolve(uri[len("file:"):])
            fragments[pod_id] = fs.files[inner].fragments
            (image,) = manager.agents[node].pipeline_state.chains[pod_id]
            held[pod_id] = image.data
            cluster.find_pod(pod_id).destroy()
        ops["restart"] = yield from manager.restart_task(targets)
        cluster.engine.stop()

    cluster.engine.spawn(script(), name="checkpoint-restart")
    cluster.engine.run(until=60.0)
    assert ops["checkpoint"].ok and ops["restart"].ok, (ops["checkpoint"].errors,
                                                        ops["restart"].errors)
    for node, pod_id, _uri in targets:
        assert any(part is held[pod_id] for part in fragments[pod_id])
        assert manager.agents[node].pipeline_state.bases[pod_id] is held[pod_id]
