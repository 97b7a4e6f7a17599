"""A work budget for the flush, so an image's bytes are moved once per step.

Counted, not timed, like ``tests/net/test_segment_budget.py``.  Between
capture and a verified restart an image is never joined whole: ``pack``
keeps every large ``bytes`` payload of the registers by reference and
copies only the runs between them (a ``codec.Blob``); the SAN file keeps
the container's fragments, the image's among them by reference, and
``load`` hands those same objects back — so the Agent's generation, the
file and a restart's delta base share one set of fragments.  The path
before joined the image once in ``pack``; the one before that joined it
twice more (the container around it) and copied the file at every load.

The first test counts codec calls and copied runs in one 4-pod BT/NAS
checkpoint to the SAN; the next two weigh ``FileSink.stage`` and
``FileSink.load`` on an 8 MB image with ``tracemalloc`` — a copy of the
image shows up as 8 MB; then pods restart from the SAN and we ask whose
fragments their base is; the last weighs what two generations of the
Agents' images keep alive.
"""

import gc
import operator
import tracemalloc
from collections import Counter

from repro.core import Manager, codec
from repro.core.image import PodImage
from repro.core.pipeline import FileSink, ImagePipeline
from repro.harness import APPS, build_cluster
from repro.middleware import checkpoint_targets
from repro.vos.filesystem import VFS

from .test_flush_differential import parts_of
from .testapps import checkpoint_app_once

#: nothing but an image is this large: control messages are a few KB.
BIG = 64 * 1024
IMAGE_BYTES = 8 << 20


def _payload_bytes(obj, found):
    """``found`` gets the id of every exact ``bytes`` object in ``obj``."""
    if type(obj) is bytes:
        found.add(id(obj))
    elif isinstance(obj, dict):
        for value in obj.values():
            _payload_bytes(value, found)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            _payload_bytes(value, found)
    return found


def test_a_pod_checkpoint_joins_no_image_sized_buffer(monkeypatch):
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
    packed, pack = [], ImagePipeline.pack

    def recording(self, standalone, *args, **kwargs):
        image = pack(self, standalone, *args, **kwargs)
        packed.append((image, _payload_bytes(standalone, set())))
        return image

    monkeypatch.setattr(ImagePipeline, "pack", recording)
    _cluster, _tracer, result = checkpoint_app_once("BT/NAS", 4)
    assert all(stats["encoded_bytes"] > BIG for stats in result.pods.values())
    # per pod-checkpoint: only the read-back decode (of the file's
    # fragments: see the two tests below for what it copies), no join
    assert made == {"decode": 4}
    assert len(packed) == 4
    for image, registers in packed:
        runs = [part for part in image.data.parts if id(part) not in registers]
        # every other fragment is a payload the registers hold
        assert sum(map(len, runs)) < 0.1 * len(image.data)
        assert len(runs) < len(image.data.parts)


def _staged_big_image(data):
    vfs = VFS()
    sink = FileSink(None, vfs, "/big.img")
    image = PodImage(pod_id="p", data=data, encoded_bytes=IMAGE_BYTES,
                     accounted_bytes=0, netstate_bytes=0)
    return vfs, sink, image


#: one image as one ``bytes``, and as a Blob of eight held payloads
IMAGES = {"bytes": lambda: bytes(IMAGE_BYTES),
          "blob": lambda: codec.Blob([bytes([i]) * (IMAGE_BYTES // 8) for i in range(8)])}


def _peak_of(body):
    tracemalloc.start()
    try:
        out = body()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_stage_allocates_no_copy_of_the_image():
    for make in IMAGES.values():
        vfs, sink, image = _staged_big_image(make())
        _, peak = _peak_of(lambda: sink.stage(image))
        stored = vfs.open("/big.img", "r").file
        assert all(any(part is held for part in stored.fragments)
                   for held in parts_of(image.data))
        assert codec.decode(b"".join(stored.fragments)) == \
            {"data": image.data, "accounted": 0, "netstate": 0}
        # a handful of headers, and nothing the size of the image
        assert peak < 0.5 * IMAGE_BYTES, f"stage peaked at {peak / IMAGE_BYTES:.2f} images"


def test_load_hands_back_the_stored_payload():
    for make in IMAGES.values():
        _vfs, sink, image = _staged_big_image(make())
        sink.stage(image)
        (loaded,), peak = _peak_of(lambda: sink.load("p"))
        # the one fragment itself, or a Blob of the stored fragments
        assert type(loaded.data) is type(image.data)
        assert all(map(operator.is_, parts_of(loaded.data), parts_of(image.data)))
        # the transient join the read-back decodes, and no copy of the image
        assert peak < 1.5 * IMAGE_BYTES, f"load peaked at {peak / IMAGE_BYTES:.2f} images"


def _bt_world(prefix):
    spec = APPS["BT/NAS"]
    cluster = build_cluster(4, seed=0)
    manager = Manager.deploy(cluster)
    handle = spec.launch_pods(cluster, 4, 1.0)
    targets = [(node, pod_id, f"file:/san/{prefix}-{pod_id}.img")
               for node, pod_id, _uri in checkpoint_targets(handle, cluster)]
    return spec, cluster, manager, targets


def test_a_restart_from_the_san_rebases_on_the_stored_payload():
    """One set of fragments from ``pack`` to the restored pod's next
    delta base: the SAN file's fragments are the checkpointing Agent's
    image's, and the restoring Agent (the same one) records them as its
    base."""
    spec, cluster, manager, targets = _bt_world("rebase")
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
        stored = {id(part) for part in fragments[pod_id]}
        assert type(held[pod_id]) is codec.Blob
        assert all(id(part) in stored for part in held[pod_id].parts)
        base = manager.agents[node].pipeline_state.bases[pod_id]
        assert all(map(operator.is_, parts_of(base), held[pod_id].parts))


def test_two_generations_keep_alive_less_than_their_encoded_bytes(monkeypatch):
    """Two ``file:`` checkpoints of BT/NAS on 4 pods: each Agent keeps
    the tip and the generation it replaced.  With each pod's registers
    held as its last checkpoint captured them (the instant a checkpoint
    peaks), dropping both generations — and the SAN files, which share
    their fragments — frees less than 0.6 of the two generations'
    encoded bytes: the tip's large payloads are the registers' own, and
    a payload reached twice is held once.  Joined images free all of it."""
    tracemalloc.start()
    try:
        spec, cluster, manager, targets = _bt_world("gens")
        registers, encoded, pack = {}, [], ImagePipeline.pack

        def packing(self, standalone, *args, **kwargs):
            image = pack(self, standalone, *args, **kwargs)
            registers[image.pod_id] = standalone
            encoded.append(image.encoded_bytes)
            return image

        monkeypatch.setattr(ImagePipeline, "pack", packing)
        ops = []

        def script():
            for fraction in (0.3, 0.2):
                yield cluster.engine.sleep(fraction * spec.work_seconds(4, 1.0))
                ops.append((yield from manager.checkpoint_task(targets)))
            cluster.engine.stop()

        cluster.engine.spawn(script(), name="two-checkpoints")
        cluster.engine.run(until=60.0)
        assert [op.ok for op in ops] == [True, True], [op.errors for op in ops]
        assert len(encoded) == 2 * len(targets) and len(registers) == len(targets)
        gc.collect()
        before, _peak = tracemalloc.get_traced_memory()
        for node, pod_id, uri in targets:
            manager.agents[node].pipeline_state.forget(pod_id)
            fs, inner = cluster.node_by_name(node).kernel.vfs.resolve(uri[len("file:"):])
            fs.unlink(inner)
        gc.collect()
        after, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    freed = before - after
    assert freed < 0.6 * sum(encoded), \
        f"two generations kept {freed / sum(encoded):.2f} of their bytes"
