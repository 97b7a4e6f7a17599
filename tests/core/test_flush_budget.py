"""A work budget for the flush, so an image's bytes are moved once per step.

Counted, not timed, like ``tests/net/test_segment_budget.py``.  Between
capture and a verified flush an image may be *joined* once (``pack``),
*written* once (the SAN file) and *read back* once (``load``'s one
``bytes()``).  The path this replaced joined it twice (the container
around it), built a temporary ``bytearray`` of it inside the file write,
copied the whole file before decoding it and sliced the image out of that
copy: six copies for three.

The first test counts codec calls in one 4-pod BT/NAS checkpoint to the
SAN; the other two weigh ``FileSink.stage`` and ``FileSink.load`` on an
8 MB image with ``tracemalloc`` — a copy of the image shows up as 8 MB.
"""

import tracemalloc
from collections import Counter

from repro.core import codec
from repro.core.image import PodImage
from repro.core.pipeline import FileSink
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


def test_stage_allocates_the_file_and_no_second_copy_of_the_image():
    vfs, sink, image = _staged_big_image()
    _, peak = _peak_of(lambda: sink.stage(image))
    written = vfs.open("/big.img", "r").file.data
    assert codec.decode(bytes(written)) == {"data": image.data, "accounted": 0, "netstate": 0}
    # the file itself (a bytearray grows with some headroom), nothing else
    assert peak < 1.5 * IMAGE_BYTES, f"stage peaked at {peak / IMAGE_BYTES:.2f} images"


def test_load_copies_each_image_out_of_the_file_once():
    _vfs, sink, image = _staged_big_image()
    sink.stage(image)
    (loaded,), peak = _peak_of(lambda: sink.load("p"))
    assert loaded.data == image.data and type(loaded.data) is bytes
    assert peak < 1.5 * IMAGE_BYTES, f"load peaked at {peak / IMAGE_BYTES:.2f} images"
