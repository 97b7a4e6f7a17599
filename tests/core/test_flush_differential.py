"""Sealed control blocks, a spliced container and a view-decoded read-back
against the flush that walked, joined and copied everything again.

``reference_flush`` is the parent's ``control_nbytes``, ``FileSink.stage`` /
``load`` and ``OpenFile.write``, verbatim; ``reference_codec`` is the
image format.  Everything here holds the live path to them byte for byte:

* a sealed value is its encoding and splices as the value would have been
  walked, at any depth the format allows and no deeper;
* a held image (``codec.encode_held``) is the encoding of payloads drawn
  with arrays, ``bytearray``s, memoryviews, sealed fragments and a
  ``bytes`` reached twice: it decodes to the same value, holds each large
  ``bytes`` of the payload as itself, copies the rest into at most one run
  between two, and does not move when the mutable buffers change after
  the pack; a decode over fragments makes no Python call per read;
* drawn captures — two ends of a TCP connection cut mid-traffic (queued and
  urgent data, a segment still in the backlog), their listener, a datagram
  socket; BT/NAS and PETSc under the real Agent; a migration that redirects
  a send queue — pack to the same image sealed and unsealed, with the same
  ``netstate_bytes`` and the same netstate-phase charge;
* every container kind lands on the SAN as the same bytes, whole or cut
  short, and loads as the same chain or the same ``RestartError`` — from
  the file as staged, whose payloads come back as the very objects the
  images hold, and from the file once rewritten through its ``data``;
* a file written through the new ``write`` is the file POSIX describes,
  whether it started empty or as a sink's fragments.

Then the new path is broken by hand, one edit at a time (``MUTATIONS``);
each mutant must fail the check named beside it.
"""

import copy
import operator
import random
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core import agent as agent_module
from repro.core import codec, netckpt
from repro.core import pipeline as pipeline_module
from repro.core.agent import CKPT_PER_SOCKET, Agent
from repro.core.image import build_payload, image_netstate_bytes
from repro.core.pipeline import (
    FileSink,
    ImagePipeline,
    PipelineState,
    build_filter,
    chain_entry,
)
from repro.errors import CodecError, RestartError
from repro.vos import filesystem
from repro.vos.filesystem import VFS
from repro.vos.syscalls import Errno

from ..mutation import mutant
from ..net.tcp_script import Script, World, draw_script, tap
from . import reference_codec
from . import reference_flush as reference
from .test_codec_differential import _same, _values
from .testapps import checkpoint_app_once, migrate_pingpong_with_redirect


# ---------------------------------------------------------------------------
# a sealed value is its encoding, and splices as the value
# ---------------------------------------------------------------------------


def _levels(obj) -> int:
    """Container levels ``obj`` occupies in the format."""
    if isinstance(obj, np.ndarray):
        return 2                            # the array and its shape tuple
    if isinstance(obj, dict):
        return 1 + max((max(_levels(k), _levels(v)) for k, v in obj.items()), default=0)
    if isinstance(obj, (list, tuple)):
        return 1 + max(map(_levels, obj), default=0)
    return 1 if isinstance(obj, Errno) else 0


def _nest(levels, leaf=0):
    for _ in range(levels):
        leaf = [leaf]
    return leaf


def check_a_fragment_splices_as_the_value(cdc, obj):
    if _levels(obj) > cdc.FRAGMENT_LEVELS:
        with pytest.raises(CodecError):
            cdc.fragment(obj)
        return
    sealed = cdc.fragment(obj)
    assert type(sealed) is cdc.Fragment and sealed == reference_codec.encode(obj)
    expected = reference_codec.encode({"k": [obj, obj], "n": obj})
    holder = {"k": [sealed, obj], "n": sealed}
    assert cdc.encode(holder) == expected
    assert cdc.encoded_size(holder) == len(expected)
    assert b"".join(cdc.encode_parts(holder)) == expected
    assert cdc.fragment(cdc.fragment(obj)) == sealed


@settings(max_examples=200, deadline=None)
@given(_values)
def test_a_fragment_is_the_encoding_and_splices_as_the_value(obj):
    check_a_fragment_splices_as_the_value(codec, obj)


def test_encode_parts_holds_payloads_by_reference():
    blob, grid = b"\x5a" * 100_000, np.arange(50_000.0)
    parts = codec.encode_parts({"blob": blob, "grid": grid})
    assert any(part is blob for part in parts)
    assert any(isinstance(part, memoryview) and part.obj is grid for part in parts)
    assert b"".join(parts) == reference_codec.encode({"blob": blob, "grid": grid})


@settings(max_examples=200, deadline=None)
@given(_values)
def test_decode_parts_inverts_encode_parts_whole_or_cut_short(obj):
    parts = codec.encode_parts(obj)
    data = reference_codec.encode(obj)
    assert _same(codec.decode_parts(parts), reference_codec.decode(data))
    for cut in range(0, len(data), max(1, len(data) // 16)):
        with pytest.raises(CodecError):
            codec.decode_parts(pipeline_module._leading(parts, cut))


def _python_calls(fn, arg):
    """Python-level calls ``fn(arg)`` makes (C functions not counted)."""
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        fn(arg)
    finally:
        sys.setprofile(None)
    return calls


def test_a_decode_over_fragments_makes_no_call_per_read():
    """Only the ``b`` decoder consults the stored fragments: every tag
    byte and ``s``/``i`` read is a plain buffer read, as in a decode of
    the joined bytes."""
    value = {"ints": list(range(500)), "names": [f"k{i}" for i in range(300)],
             "blobs": [b"\x01" * 10, b"\x02" * 9000], "grid": np.arange(64.0)}
    parts = codec.encode_parts(value)
    records = 3                 # the two ``b`` records and the array's payload
    extra = _python_calls(codec.decode_parts, parts) \
        - _python_calls(codec.decode, b"".join(parts))
    # the wrapper, building the table, and one lookup per ``b`` record
    assert extra <= 2 + records, extra


# ---------------------------------------------------------------------------
# a held image: the registers' payloads by reference, runs copied once
# ---------------------------------------------------------------------------

_KINDS = ("bytes", "bytearray", "memoryview", "array", "fragment")


def parts_of(data):
    """The fragments an image's data is made of."""
    return data.parts if type(data) is codec.Blob else (data,)


def _exact_bytes(obj):
    """Every exact ``bytes`` object ``obj`` reaches, once per reach."""
    if type(obj) is bytes:
        return [obj]
    if isinstance(obj, dict):
        return [b for value in obj.values() for b in _exact_bytes(value)]
    if isinstance(obj, (list, tuple)):
        return [b for value in obj for b in _exact_bytes(value)]
    return []


def held_payload(cdc, rnd, leaves, extra=None):
    """``(live, plain, buffers)``: a payload of ``leaves`` (kind, size)
    pairs plus one ``bytes`` reached twice, the same payload with every
    ``Fragment`` ``cdc`` sealed unsealed, and the mutable buffers it holds."""
    twice = rnd.randbytes(codec.HELD_MIN + rnd.randrange(2 * codec.HELD_MIN))
    live, plain, buffers = [], [], []
    for kind, size in leaves:
        raw = rnd.randbytes(size)
        value = raw
        if kind == "bytearray":
            value = bytearray(raw)
            buffers.append(value)
        elif kind == "memoryview":
            buffers.append(bytearray(raw))
            value = memoryview(buffers[-1])
        elif kind == "array":
            value = np.frombuffer(raw[:size - size % 8], dtype="f8").copy()
            buffers.append(value)
        live.append(cdc.fragment({"sealed": raw}) if kind == "fragment" else value)
        plain.append({"sealed": raw} if kind == "fragment" else value)
    shared = {"twice": [twice, {"again": twice}], "extra": extra}
    return {"frames": live, **shared}, {"frames": plain, **shared}, buffers


def check_a_held_image(cdc, live, plain, buffers):
    expected = reference_codec.encode(plain)
    image = cdc.encode_held(live)
    parts = image.parts if type(image) is cdc.Blob else (image,)
    assert b"".join(parts) == expected and len(image) == len(expected)
    assert _same(cdc.decode(image), reference_codec.decode(expected))
    # every mutable buffer changed once the image is packed: not one
    # byte of the image moves
    for buf in buffers:
        view = buf.view("u1") if isinstance(buf, np.ndarray) else np.frombuffer(buf, "u1")
        view ^= 0xFF
    assert b"".join(parts) == expected
    # through a container and back: the very same fragments
    back = cdc.decode_parts(cdc.encode_parts({"data": image}))["data"]
    assert type(back) is type(image)
    assert all(map(operator.is_, back.parts if type(back) is cdc.Blob else (back,), parts))
    # every large exact ``bytes`` the payload reaches is held, each
    # time it is reached; the rest is at most one run between two
    big = [b for b in _exact_bytes(live) if len(b) >= cdc.HELD_MIN]
    held = [part for part in parts if any(part is b for b in big)]
    assert len(held) == len(big) >= 2
    assert all(type(part) is bytes for part in parts)
    assert len(parts) <= 2 * len(held) + 1, f"{len(parts)} fragments for {len(held)} held"


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32),
       st.lists(st.tuples(st.sampled_from(_KINDS), st.integers(0, 3 * codec.HELD_MIN)),
                max_size=8),
       _values)
def test_a_held_image_is_the_encoding_and_holds_only_immutable_payloads(seed, leaves, extra):
    check_a_held_image(codec, *held_payload(codec, random.Random(seed), leaves, extra))


def _held_example(cdc):
    """One payload with every kind of leaf, each larger than a held one."""
    leaves = [(kind, 2 * codec.HELD_MIN) for kind in _KINDS] + [("bytes", 7)]
    check_a_held_image(cdc, *held_payload(cdc, random.Random(3), leaves, {"n": 1}))


def check_no_fragment_encodes_what_cannot_decode(cdc):
    """The depth rule, exactly: a fragment may hold ``FRAGMENT_LEVELS``
    levels and be spliced under ``MAX_DEPTH - FRAGMENT_LEVELS``."""
    reserve = cdc.MAX_DEPTH - cdc.FRAGMENT_LEVELS
    for levels in range(cdc.FRAGMENT_LEVELS + 3):
        try:
            sealed = cdc.fragment(_nest(levels))
        except CodecError:
            assert levels > cdc.FRAGMENT_LEVELS
            continue
        assert levels <= cdc.FRAGMENT_LEVELS, f"a {levels}-level fragment was sealed"
        for outer in (0, 1, reserve - 1, reserve, reserve + 1, cdc.MAX_DEPTH - levels,
                      cdc.MAX_DEPTH):
            for measure in (cdc.encode, cdc.encoded_size):
                try:
                    out = measure(_nest(outer, sealed))
                except CodecError:
                    assert outer > reserve
                    continue
                assert outer <= reserve, f"spliced {levels} levels under {outer}"
                if measure is cdc.encode:
                    assert codec.decode(out) == _nest(outer + levels)


def test_no_fragment_encodes_what_cannot_decode():
    check_no_fragment_encodes_what_cannot_decode(codec)
    # the deepest the format allows, reached through a splice
    deepest = _nest(codec.MAX_DEPTH - codec.FRAGMENT_LEVELS,
                    codec.fragment(_nest(codec.FRAGMENT_LEVELS)))
    assert codec.encode(deepest) == codec.encode(_nest(codec.MAX_DEPTH))
    with pytest.raises(CodecError, match="nested deeper"):
        codec.encode(_nest(codec.MAX_DEPTH + 1))


# ---------------------------------------------------------------------------
# captures: sealed and unsealed records are one image
# ---------------------------------------------------------------------------

_STANDALONE = {"pod_id": "p", "procs": [
    {"vpid": 1, "memory": {"heap": 1 << 20, "stack": 65536}, "regs": {"r0": 7}}]}
_CHAINS = ([], [{"name": "compress", "level": 3}], [{"name": "delta"}],
           [{"name": "delta"}, {"name": "compress", "level": 6}])


def _queued(records) -> int:
    return sum(len(rec["recv_data"]) + len(rec["oob_data"]) + len(rec["send_data"])
               + sum(len(d) for d, _src in rec["datagrams"]) for rec in records)


def _udp_traffic(world):
    """A bound datagram socket on ``a`` holding two datagrams from ``b``."""
    kernel_a, kernel_b = world.hosts["a"].kernel, world.hosts["b"].kernel
    chan_a, chan_b = kernel_a.host_channel("udp"), kernel_b.host_channel("udp")
    holder = {}

    def receiver():
        fd = yield kernel_a.host_call(chan_a, "socket", "udp")
        yield kernel_a.host_call(chan_a, "bind", fd, (world.ips["a"], 7000))
        holder["sock"] = chan_a.fds[fd]

    def sender():
        fd = yield kernel_b.host_call(chan_b, "socket", "udp")
        yield kernel_b.host_call(chan_b, "bind", fd, (world.ips["b"], 7001))
        yield world.engine.sleep(1e-4)
        for payload in (b"first datagram", b"second"):
            yield kernel_b.host_call(chan_b, "sendto", fd, payload, (world.ips["a"], 7000))

    world.engine.spawn(receiver(), name="udp.r")
    world.engine.spawn(sender(), name="udp.s")
    return holder


def cut_world(rnd, net=netckpt):
    """A drawn script played to a drawn instant, both ends silenced, and
    every socket there captured by ``net``: the two ends, their listener
    (``pcb=None``) and a datagram socket.  None when the handshake never
    finished."""
    world = World(draw_script(rnd, max_write=20_000))
    if not world.open():
        return None
    udp = _udp_traffic(world)
    world.engine.run(until=world.engine.now + 0.01)
    world.start_lanes()
    world.engine.schedule(rnd.choice((1e-4, 1e-3, 0.01, 0.1, 1.0)) * rnd.random(),
                          world.engine.stop)
    world.engine.run(until=world.engine.now + 90.0)
    for side in "ab":
        world.hosts[side].stack.netfilter.block_ip(world.ips[side])
    socks = [("a", world.socks["a"]), ("b", world.socks["b"]),
             ("b", world.socks["b"].listener), ("a", udp["sock"])]
    return [net.capture_socket(world.hosts[side].stack, sock) for side, sock in socks]


def check_sealed_and_plain_records_pack_alike(records):
    sealed = [dict(rec) for rec in records]
    netckpt.seal_control(sealed)
    assert all(type(rec[part]) is codec.Fragment
               for rec in sealed for part in ("options", "pcb"))
    assert all(type(rec["options"]) is dict for rec in records)    # the caller's stay plain
    nbytes = reference.control_nbytes(records) + _queued(records)
    for view in (records, sealed):
        assert netckpt.control_nbytes(view) == reference.control_nbytes(records)
        assert netckpt.netstate_nbytes(view) == nbytes
    expected = reference_codec.encode(build_payload(_STANDALONE, records, []))
    for chain in _CHAINS:
        images = []
        for view in (records, sealed):
            pipeline = ImagePipeline([build_filter(spec) for spec in chain])
            state = PipelineState()
            for _epoch in range(2):         # the second epoch of a delta chain is a delta
                image = pipeline.pack(_STANDALONE, view, [], state=state)
                state.commit("p")
                images.append(image)
        plain0, plain1, sealed0, sealed1 = images
        assert plain0 == sealed0 and plain1 == sealed1
        assert plain0.netstate_bytes == nbytes
        assert ImagePipeline.reassemble([plain0]).raw == expected
        if not chain:
            assert sealed0.data == expected


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_sealed_and_plain_records_of_a_drawn_cut_pack_alike(rnd):
    records = cut_world(rnd)
    assume(records is not None)
    assert records[2]["listening"] and records[2]["pcb"] is None
    assert records[3]["proto"] == "udp" and records[3]["pcb"] is None
    check_sealed_and_plain_records_pack_alike(records)


def test_the_drawn_cuts_hold_queued_urgent_and_datagram_state():
    """The property above is only as good as what its cuts capture."""
    seen = {"recv_data": 0, "oob_data": 0, "send_data": 0, "datagrams": 0, "fin": 0}
    for seed in range(60):
        records = cut_world(random.Random(seed))
        for rec in records or ():
            for key in ("recv_data", "oob_data", "send_data", "datagrams"):
                seen[key] += bool(rec[key])
            seen["fin"] += bool(rec["fin_sent"] or rec["fin_rcvd"])
    assert all(seen.values()), seen


def backlog_cut(patch):
    """``a`` writes, nobody reads, and the world stops 5 µs after a data
    segment reached ``b``'s NIC — inside the 20 µs it waits in the
    backlog."""
    world = World(Script(seed=1, loss=0.0, rcvbuf=None, mss=1460, lanes={
        "a.w": ((0.0, "send", 4000),), "a.r": (), "b.w": (), "b.r": (), "ctl": ()}))
    tap(patch, world)
    assert world.open()
    world.start_lanes()
    first = world.arrivals + 1
    world.on_arrival = lambda n: n == first and world.engine.schedule(5e-6, world.engine.stop)
    world.engine.run(until=world.engine.now + 5.0)
    assert world.socks["b"].conn.backlog, "the cut missed the backlog window"
    return world


def check_a_sealed_pcb_is_the_settled_one(net, world):
    """Capture takes the socket lock first, so the control block that is
    sealed already counts what the drained backlog put in the queue."""
    sock = world.socks["b"]
    before = sock.conn.pcb.snapshot()
    rec = net.capture_socket(world.hosts["b"].stack, sock)
    net.seal_control([rec])
    assert rec["recv_data"] and not sock.conn.backlog
    assert codec.decode(rec["pcb"]) == sock.conn.pcb.snapshot()
    assert codec.decode(rec["pcb"])["recv"] == before["recv"] + len(rec["recv_data"])


def test_a_sealed_pcb_counts_the_drained_backlog(monkeypatch):
    check_a_sealed_pcb_is_the_settled_one(netckpt, backlog_cut(monkeypatch))


# ---------------------------------------------------------------------------
# ... under the real Agent: same images, same charge
# ---------------------------------------------------------------------------


class Recorded:
    """What the Agents of one run captured and packed."""

    def __init__(self, patch):
        self.plain = {}      # pod -> the records as captured, copied before sealing
        self.packs = []      # (image, what the records held when it was packed)
        capture, pack = Agent._capture_network, ImagePipeline.pack
        recorded = self

        def capturing(self, pod):
            records, fd_rows = capture(self, pod)
            recorded.plain[pod.id] = copy.deepcopy(records)
            return records, fd_rows

        def packing(self, standalone, socket_records, socket_fd_rows, devices=None, **kw):
            image = pack(self, standalone, socket_records, socket_fd_rows, devices, **kw)
            blocks = recorded.plain[image.pod_id]
            # the queues as they are now (a redirect strips them), the
            # control blocks as they were captured
            now = [{**rec, "options": blocks[i]["options"], "pcb": blocks[i]["pcb"]}
                   for i, rec in enumerate(socket_records)]
            recorded.packs.append((image, standalone, now, socket_fd_rows, devices))
            return image

        patch.setattr(Agent, "_capture_network", capturing)
        patch.setattr(ImagePipeline, "pack", packing)


def _netstate_spans(tracer):
    return {span.pod: span for span in tracer.spans
            if span.name == "agent.phase.netstate"}


def check_images_are_the_plain_records_encoded(recorded, tracer, memcpy_bandwidth):
    spans = _netstate_spans(tracer)
    first_of = {}
    for image, standalone, records, fd_rows, devices in recorded.packs:
        assert image.data == reference_codec.encode(
            build_payload(standalone, records, fd_rows, devices))
        nbytes = reference.control_nbytes(records) + _queued(records)
        assert image.netstate_bytes == nbytes == image_netstate_bytes(records, devices)
        first_of.setdefault(image.pod_id, (nbytes, len(records)))
    assert sorted(first_of) == sorted(spans)
    for pod_id, (nbytes, sockets) in first_of.items():
        span = spans[pod_id]
        assert span.attrs["nbytes"] == nbytes
        assert span.t_end - span.t_start == pytest.approx(
            CKPT_PER_SOCKET * max(1, sockets) + nbytes / memcpy_bandwidth, rel=1e-9)


def _observed(recorded, tracer):
    return ([image for image, *_rest in recorded.packs],
            {pod: (span.t_start, span.t_end, span.attrs["nbytes"])
             for pod, span in _netstate_spans(tracer).items()})


@pytest.mark.parametrize("app,fraction", [("BT/NAS", 0.3), ("BT/NAS", 0.7), ("PETSc", 0.5)])
def test_an_application_checkpoint_is_the_same_sealed_and_unsealed(app, fraction, monkeypatch):
    recorded = Recorded(monkeypatch)
    cluster, tracer, _result = checkpoint_app_once(app, 4, fraction=fraction)
    assert len(recorded.packs) == 4
    check_images_are_the_plain_records_encoded(
        recorded, tracer, cluster.node(0).spec.memcpy_bandwidth)
    sealed = _observed(recorded, tracer)

    with monkeypatch.context() as patch:
        patch.setattr(agent_module, "seal_control", lambda records: None)
        plain_run = Recorded(patch)
        _cluster, tracer, _result = checkpoint_app_once(app, 4, fraction=fraction)
        assert all(type(rec["options"]) is dict
                   for _image, _sa, records, *_rest in plain_run.packs for rec in records)
        assert _observed(plain_run, tracer) == sealed


def redirected_images(patch):
    """``{pod: (first image, re-packed image)}`` of the migration that
    redirects the client's queued request."""
    recorded = Recorded(patch)
    cluster, tracer = migrate_pingpong_with_redirect()
    check_images_are_the_plain_records_encoded(
        recorded, tracer, cluster.node(0).spec.memcpy_bandwidth)
    by_pod = {}
    for image, *_rest in recorded.packs:
        by_pod.setdefault(image.pod_id, []).append(image)
    return {pod: tuple(images) for pod, images in by_pod.items()}


def check_the_repack_is_the_capture_less_the_stripped_queue(by_pod):
    """Two images of one capture: the same records but for the queue that
    left with the peer's stream."""
    assert sorted(by_pod) == ["pp-cli", "pp-srv"]
    stripped = 0
    for first, repacked in by_pod.values():
        before, after = codec.decode(first.data), codec.decode(repacked.data)
        moved = 0
        for rec in before["sockets"]:
            if rec["send_data"]:
                moved += len(rec["send_data"])
                rec.update(send_data=b"", send_redirected=True)
        assert before == after
        assert moved == first.netstate_bytes - repacked.netstate_bytes
        stripped += moved
    assert stripped > 0, "the scenario redirected no send-queue bytes"


def test_the_redirect_repack_is_the_capture_less_the_stripped_queue(monkeypatch):
    check_the_repack_is_the_capture_less_the_stripped_queue(redirected_images(monkeypatch))


# ---------------------------------------------------------------------------
# containers on the SAN: the same bytes, whole or cut short
# ---------------------------------------------------------------------------

TRUNCATIONS = (None, 0.01, 0.5, 0.999)


def _epochs(chain, seed, count):
    """``count`` consecutive epochs of one drawn pod through ``chain``."""
    rnd = random.Random(seed)
    grid = np.frombuffer(rnd.randbytes(8 * 3000), dtype="f8").copy()
    pipeline = ImagePipeline([build_filter(spec) for spec in chain])
    state, images = PipelineState(), []
    for epoch in range(count):
        grid[rnd.randrange(len(grid))] = epoch      # a little dirtied per epoch
        frame = rnd.randbytes(2 * codec.HELD_MIN)   # held by an unfiltered image
        standalone = {"pod_id": "p", "procs": [
            {"vpid": 1, "memory": {"heap": 1 << 20},
             "regs": {"grid": grid, "step": epoch, "frame": frame}}]}
        records = [{"sock_id": 1, "proto": "tcp", "options": {"SO_RCVBUF": 65536 + epoch},
                    "pcb": {"sent": 10, "acked": 9, "recv": 4 + epoch},
                    "recv_data": rnd.randbytes(40), "oob_data": b"", "send_data": b"xyz",
                    "datagrams": []}]
        images.append(pipeline.pack(standalone, records, [], state=state))
        state.commit("p")
    return images


CONTAINERS = {
    "unfiltered": ([], 1),
    "compress": ([{"name": "compress", "level": 4}], 1),
    "delta chain": ([{"name": "delta"}], 3),
    "delta+compress chain": ([{"name": "delta"}, {"name": "compress", "level": 6}], 3),
}


def _load(load, sink):
    """A load's outcome: the chain, or the error it raised."""
    try:
        return load(sink, "p")
    except RestartError as err:
        return ("RestartError", str(err))


def _rewritten(vfs):
    """A copy of the file at ``/p.img`` of ``vfs``, written through
    ``data`` (the form a kernel write or a corruption leaves)."""
    copy_vfs = VFS()
    copy_vfs.open("/p.img", "w").file.data += b"".join(
        vfs.open("/p.img", "r").file.fragments)
    return copy_vfs


def check_containers_match_the_frozen_flush(kind, seed=5):
    chain, count = CONTAINERS[kind]
    images = _epochs(chain, seed, count)
    assert [bool(pipeline_module.image_extends_chain(i)) for i in images] \
        == [False] + [True] * (count - 1)
    for cut_epoch in range(count):
        for truncate in TRUNCATIONS:
            live_vfs, frozen_vfs = VFS(), VFS()
            live = FileSink(None, live_vfs, "/p.img")
            frozen = FileSink(None, frozen_vfs, "/p.img")
            assert _load(FileSink.load, live) == _load(reference.load, frozen)  # no image yet
            for epoch, image in enumerate(images):
                cut = truncate if epoch == cut_epoch else None
                live.stage(image, truncate=cut)
                reference.stage(frozen, image, truncate=cut)
                # read through the fragments: the staged file stays as staged
                written = b"".join(live_vfs.open("/p.img", "r").file.fragments)
                assert written == frozen_vfs.open("/p.img", "r").file.data, \
                    (kind, epoch, truncate)
                expected = _load(reference.load, frozen)
                outcome = _load(FileSink.load, live)
                assert outcome == expected, (kind, epoch, truncate)
                if truncate is None or epoch < cut_epoch:
                    assert [chain_entry(image) for image in outcome] \
                        == [chain_entry(image) for image in images[:epoch + 1]]
                    # each payload is the fragments its image holds, not a copy
                    assert all(type(got.data) is type(put.data)
                               and all(map(operator.is_, parts_of(got.data), parts_of(put.data)))
                               for got, put in zip(outcome, images))
                elif epoch == cut_epoch:
                    assert outcome[0] == "RestartError"
                # the same bytes rewritten through ``data`` load alike, and
                # nothing of the read-back holds that file: it can still
                # grow while the loaded chain is held
                copy_vfs = _rewritten(live_vfs)
                copied = _load(FileSink.load, FileSink(None, copy_vfs, "/p.img"))
                assert copied == expected, (kind, epoch, truncate)
                assert copied[0] == "RestartError" or all(
                    type(got.data) is bytes for got in copied)
                tail = copy_vfs.open("/p.img", "a")
                tail.write(b"!")
                del tail.file.data[-1:]


def check_nothing_decoded_is_a_view(cdc):
    """``decode_parts`` hands an exact ``bytes`` fragment back as itself
    and copies every other payload: no result is a view of its join."""
    kept, mutable = b"\x5a" * 5000, bytearray(b"\xa5" * 5000)
    parts = cdc.encode_parts({"kept": kept, "copied": mutable, "grid": np.arange(9.0)})
    # the payloads' own fragments, and one that is a view
    assert any(part is kept for part in parts) and any(part is mutable for part in parts)
    out = cdc.decode_parts(parts)
    assert out["kept"] is kept
    assert type(out["copied"]) is bytes and out["copied"] == mutable
    assert np.array_equal(out["grid"], np.arange(9.0))


def test_nothing_decoded_from_fragments_is_a_view():
    check_nothing_decoded_is_a_view(codec)


@pytest.mark.parametrize("kind", list(CONTAINERS))
def test_containers_match_the_frozen_flush_whole_or_cut_short(kind):
    check_containers_match_the_frozen_flush(kind)


def test_a_garbled_container_is_the_same_restart_error_and_holds_no_view():
    (image,) = _epochs([], 9, 1)
    good = bytes(codec.encode({"data": image.data, "accounted": 1, "netstate": 2}))
    garbled = {
        "trailing bytes": good + b"\x00",
        "not a map": codec.encode([1, 2, 3]),
        "no data": codec.encode({"accounted": 1, "netstate": 2}),
        "accounted is text": codec.encode({"data": b"x", "accounted": "many", "netstate": 2}),
        "bad utf-8 in a key": good.replace(b"netstate", b"netst\xffte"),
        "unknown tag": good[:-9] + b"?" + good[-8:],
        "empty": b"",
    }
    for name, content in garbled.items():
        outcomes = []
        for load in (FileSink.load, reference.load):
            vfs = VFS()
            vfs.open("/p.img", "w").write(content)
            sink = FileSink(None, vfs, "/p.img")
            outcomes.append(_load(load, sink))
        assert outcomes[0] == outcomes[1] and outcomes[0][0] == "RestartError", (name, outcomes)
        vfs_live = VFS()
        vfs_live.open("/p.img", "w").write(content)
        with pytest.raises(RestartError) as held:
            FileSink(None, vfs_live, "/p.img").load("p")
        vfs_live.open("/p.img", "a").write(b"more")     # while the error is held
        assert held.value.__context__ is None
        # a staged file corrupted through ``data``: the first write joins
        # the fragments into the file's own bytearray, the image keeps its bytes
        vfs_staged = VFS()
        FileSink(None, vfs_staged, "/p.img").stage(image)
        staged = vfs_staged.open("/p.img", "r").file
        fragments = staged.fragments
        staged.data[:] = content
        assert _load(FileSink.load, FileSink(None, vfs_staged, "/p.img")) == outcomes[1]
        assert all(any(part is held for part in fragments) for held in image.data.parts)
        assert b"".join(fragments) != content


# ---------------------------------------------------------------------------
# the file write: extend in place, holes read as zeros
# ---------------------------------------------------------------------------

_payloads = st.one_of(st.binary(max_size=24), st.binary(max_size=24).map(bytearray),
                      st.binary(max_size=24).map(memoryview))
_ops = st.lists(st.one_of(
    st.tuples(st.just("write"), _payloads),
    st.tuples(st.just("seek"), st.integers(min_value=0, max_value=80)),
    st.tuples(st.just("append"), _payloads),
), max_size=12)


def _fragment_file(vfs, start):
    """``/f`` on ``vfs`` as a file written whole from the fragments
    ``start``; every read of it before the first write leaves it so."""
    fs, inner = vfs.resolve("/f")
    fs.create(inner, start)
    whole = b"".join(start)
    reader = vfs.open("/f", "r")
    for pos in range(len(whole) + 2):
        for n in (0, 1, 3, len(whole) + 1):
            reader.pos = pos
            assert reader.read(n) == whole[pos:pos + n]
    kept = reader.file.fragments
    assert len(kept) == len(start) and all(a is b for a, b in zip(kept, start))
    return vfs.open("/f", "r+")


def check_writes_follow_posix(ops, start=None):
    """``start``: the fragments the file holds at first (None: it is
    created empty)."""
    live_vfs, frozen_vfs = VFS(), VFS()
    live = live_vfs.open("/f", "w") if start is None else _fragment_file(live_vfs, start)
    frozen = frozen_vfs.open("/f", "w")
    model, pos, in_range = bytearray(b"".join(start or ())), 0, True
    reference.write(frozen, bytes(model))
    frozen.pos = 0
    for op, arg in ops:
        if op == "seek":
            live.pos = frozen.pos = pos = arg
            continue
        if op == "append":
            tail = live_vfs.open("/f", "a")
            assert tail.write(arg) == len(arg) and tail.pos == len(model) + len(arg)
            reference.write(frozen_vfs.open("/f", "a"), arg)
            model += arg
        else:
            in_range = in_range and pos <= len(model)    # past the end the frozen write is wrong
            if pos > len(model):
                model += bytes(pos - len(model))
            model[pos:pos + len(arg)] = arg
            pos += len(arg)
            assert live.write(arg) == len(arg)
            reference.write(frozen, arg)
        assert live.file.data == model and live.pos == pos
        if in_range:
            assert frozen.file.data == model and frozen.pos == pos
    reader = live_vfs.open("/f", "r")
    assert reader.read(len(model) + 1) == bytes(model)


@settings(max_examples=300, deadline=None)
@given(_ops)
def test_writes_follow_posix_and_the_frozen_write_up_to_end_of_file(ops):
    check_writes_follow_posix(ops)


@settings(max_examples=200, deadline=None)
@given(_ops, st.lists(st.binary(max_size=16), max_size=4))
def test_writes_to_a_fragment_file_follow_posix(ops, start):
    check_writes_follow_posix(ops, start)


def check_a_write_past_the_end_leaves_a_zero_filled_hole(start=None):
    vfs = VFS()
    if start is None:
        handle = vfs.open("/f", "w")
        handle.write(b"abc")
    else:
        handle = _fragment_file(vfs, start)
        handle.pos = 3
    handle.pos = 10
    assert handle.write(b"xy") == 2 and handle.pos == 12
    assert bytes(handle.file.data) == b"abc" + bytes(7) + b"xy"
    reader = vfs.open("/f", "r")
    reader.pos = 10
    assert reader.read(5) == b"xy"


def test_a_write_past_the_end_leaves_a_zero_filled_hole():
    check_a_write_past_the_end_leaves_a_zero_filled_hole()
    check_a_write_past_the_end_leaves_a_zero_filled_hole([b"a", b"", b"bc"])


# ---------------------------------------------------------------------------
# hand mutations of the new path: each must fail the check named with it
# ---------------------------------------------------------------------------


def _codec_mutant(check):
    return lambda patch, twin: check(twin)


def _sink_mutant(method, check):
    def catch(patch, twin):
        patch.setattr(FileSink, method, getattr(twin.FileSink, method))
        check()
    return catch


def _write_mutant(check):
    def catch(patch, twin):
        patch.setattr(filesystem.OpenFile, "write", twin.OpenFile.write)
        check()
    return catch


def _payload_copied_by_load(patch, twin):
    patch.setattr(codec, "decode_parts", twin.decode_parts)
    check_containers_match_the_frozen_flush("unfiltered")


def _view_kept_by_a_failed_load(patch, twin):
    patch.setattr(FileSink, "load", twin.FileSink.load)
    test_a_garbled_container_is_the_same_restart_error_and_holds_no_view()


def _early_pcb(patch, twin):
    check_a_sealed_pcb_is_the_settled_one(twin, backlog_cut(patch))


def _stale_repack(patch, twin):
    patch.setattr(Agent, "_redirect_send_queues", twin.Agent._redirect_send_queues)
    check_the_repack_is_the_capture_less_the_stripped_queue(redirected_images(patch))


#: name -> (module, the live text, the broken text, install it and run the check)
MUTATIONS = {
    "a Fragment resolved as plain bytes encodes a b record": (
        codec, "_ENCODERS[Fragment] = _enc_fragment\n", "",
        _codec_mutant(lambda twin: check_a_fragment_splices_as_the_value(twin, {"a": 1}))),
    "the depth reserve dropped when sealing": (
        codec, "_emit(obj, parts, MAX_DEPTH - FRAGMENT_LEVELS)", "_emit(obj, parts, 0)",
        _codec_mutant(check_no_fragment_encodes_what_cannot_decode)),
    "the depth reserve dropped when splicing": (
        codec, "    if depth > MAX_DEPTH - FRAGMENT_LEVELS:\n", "    if depth > MAX_DEPTH:\n",
        _codec_mutant(check_no_fragment_encodes_what_cannot_decode)),
    "the PCB snapshot that gets sealed taken before the backlog drain": (
        netckpt,
        '    conn.process_backlog()\n    rec["meta_state"] = conn.meta_state()\n'
        '    rec["pcb"] = conn.pcb.snapshot()\n',
        '    rec["pcb"] = conn.pcb.snapshot()\n    conn.process_backlog()\n'
        '    rec["meta_state"] = conn.meta_state()\n',
        _early_pcb),
    "the redirect re-pack reuses the records as they were before the strip": (
        agent_module, 'rec_by_id = {int(r["sock_id"]): r for r in ck.sock_records}',
        'rec_by_id = {int(r["sock_id"]): dict(r) for r in ck.sock_records}',
        _stale_repack),
    "truncation cut off by one byte": (
        pipeline_module, "room = max(1, int(sum(map(len, parts)) * float(truncate)))",
        "room = max(1, int(sum(map(len, parts)) * float(truncate)) - 1)",
        _sink_mutant("stage", lambda: check_containers_match_the_frozen_flush("unfiltered"))),
    "the container's trailer dropped": (
        pipeline_module, "fs.create(inner, parts)", "fs.create(inner, parts[:-1])",
        _sink_mutant("stage", lambda: check_containers_match_the_frozen_flush("delta chain"))),
    "a write at end-of-file extends but leaves pos": (
        filesystem, "        self.pos = pos + len(data)\n",
        "        self.pos = pos + len(data) if pos < size else self.pos\n",
        _write_mutant(lambda: check_writes_follow_posix(
            [("write", b"abc"), ("write", b"de")]))),
    "the hole not zero-filled": (
        filesystem, "                buf += bytes(pos - size)\n", "                pass\n",
        _write_mutant(check_a_write_past_the_end_leaves_a_zero_filled_hole)),
    "a view kept by load": (
        codec, "bytes(memoryview(self)[start:end])", "memoryview(self)[start:end]",
        _codec_mutant(check_nothing_decoded_is_a_view)),
    "load copies the payload": (
        codec, "            if set(map(type, run)) == {bytes}:\n",
        "            if False:\n",
        _payload_copied_by_load),
    "a bytearray kept by reference": (
        codec, "if type(part) is bytes and len(part) >= HELD_MIN]",
        "if isinstance(part, (bytes, bytearray)) and len(part) >= HELD_MIN]",
        _codec_mutant(_held_example)),
    "a run split per fragment": (
        codec, "            out.append(b\"\".join(parts[start + 1:end]))\n",
        "            out.extend(map(bytes, parts[start + 1:end]))\n",
        _codec_mutant(_held_example)),
    "load copies a run": (
        codec, "return run[0] if len(run) == 1 else Blob(run)",
        "return run[0] if len(run) == 1 else bytes(Blob(run))",
        _codec_mutant(_held_example)),
    "a view kept by a load that raised": (
        pipeline_module, "            corrupt = str(err)\n",
        "            raise RestartError(\n"
        "                f\"partial or corrupt image at {self.path!r}: {err}\") from None\n",
        _view_kept_by_a_failed_load),
}


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_mutated_path_is_caught(name, monkeypatch):
    module, old, new, catch = MUTATIONS[name]
    twin = mutant(module, old, new)
    with pytest.raises((AssertionError, BufferError)):
        catch(monkeypatch, twin)
