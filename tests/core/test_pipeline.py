"""Unit tests for the staged image pipeline (filters, sinks, costs)."""

from dataclasses import replace

import pytest

from repro.cluster import Cluster
from repro.core import codec
from repro.core.image import PodImage, build_payload
from repro.core.pipeline import (
    CompressFilter,
    DeltaFilter,
    ImagePipeline,
    PipelineState,
    image_extends_chain,
    negotiate_filters,
    parse_filter_args,
)
from repro.core.standalone import accounted_memory_bytes, capture_pod_standalone, count_dirty
from repro.errors import CheckpointError
from repro.vos import build_program, imm, program

import numpy as np

from . import reference_codec


@program("testapp.pipeapp")
def _pipeapp(b, *, ballast):
    b.alloc(imm(ballast), "heap")
    b.syscall(None, "sleep", imm(30.0))
    b.halt(imm(0))


@pytest.fixture
def world():
    return Cluster.build(2, seed=7)


def _capture(cluster, pod_id="pipe", ballast=2_000_000, until=1.0):
    pod = cluster.create_pod(cluster.node(0), pod_id)
    cluster.node(0).kernel.spawn(
        build_program("testapp.pipeapp", ballast=ballast), pod_id=pod_id)
    cluster.engine.run(until=until)
    pod.suspend()
    cluster.engine.run(until=until + 0.1)
    assert pod.quiescent()
    return pod, capture_pod_standalone(pod)


def _count(pod):
    """What an Agent does at suspend: count the bytes written since the
    last checkpoint, then clear the baseline for the next one."""
    dirty = count_dirty(pod.processes(), "ckpt")
    for proc in pod.processes():
        proc.memory.clear_dirty("ckpt")
    return dirty


def _recapture(cluster, pod, until):
    """Resume, run a little longer, suspend and capture again."""
    pod.resume()
    cluster.engine.run(until=until)
    pod.suspend()
    cluster.engine.run(until=until + 0.1)
    assert pod.quiescent()
    return capture_pod_standalone(pod)


# ---------------------------------------------------------------------------
# empty chain: byte identity with the historic write path
# ---------------------------------------------------------------------------


def test_empty_chain_is_byte_identical(world):
    _pod, standalone = _capture(world)
    legacy = reference_codec.encode(build_payload(standalone, [], []))
    piped = ImagePipeline([]).pack(standalone, [], [])
    assert piped.data == legacy
    assert piped.encoded_bytes == len(legacy)
    assert piped.accounted_bytes == accounted_memory_bytes(standalone)
    assert piped.filters == [] and piped.epoch == 0
    assert codec.decode(piped.data)["format"] == 1


def test_empty_chain_serialize_cost_matches_old_charge(world):
    _pod, standalone = _capture(world)
    bw = 2e9
    image = ImagePipeline([]).pack(standalone, [], [], serialize_bandwidth=bw)
    (cost,) = image.stage_costs
    assert cost["stage"] == "serialize"
    assert cost["seconds"] == pytest.approx(image.total_bytes / bw)


# ---------------------------------------------------------------------------
# compress
# ---------------------------------------------------------------------------


def test_compress_round_trip_and_shrink(world):
    _pod, standalone = _capture(world)
    raw = codec.encode(build_payload(standalone, [], []))
    image = ImagePipeline([CompressFilter(level=4)]).pack(standalone, [], [])
    assert image.filters and image.filters[0]["name"] == "compress"
    assert image.accounted_bytes < image.raw_accounted_bytes
    out = ImagePipeline.reassemble([image])
    assert out.raw == raw
    assert out.full_total_bytes == image.raw_total_bytes
    assert out.decode_seconds > 0


def test_compress_level_bounds():
    with pytest.raises(CheckpointError):
        CompressFilter(level=0)
    with pytest.raises(CheckpointError):
        CompressFilter(level=10)


def test_self_contained_v2_image_unpacks_directly(world):
    _pod, standalone = _capture(world)
    image = ImagePipeline([CompressFilter()]).pack(standalone, [], [])
    payload = image.unpack()
    assert payload["standalone"]["pod_id"] == "pipe"


# ---------------------------------------------------------------------------
# delta
# ---------------------------------------------------------------------------


def test_delta_chain_round_trip_and_shrink(world):
    cluster = world
    pod, first = _capture(cluster)
    state = PipelineState()
    pipeline = ImagePipeline([DeltaFilter()])
    img0 = pipeline.pack(first, [], [], state=state, dirty_bytes=_count(pod))
    state.commit(pod.id)
    assert img0.epoch == 0 and not image_extends_chain(img0)

    second = _recapture(cluster, pod, until=2.0)
    img1 = pipeline.pack(second, [], [], state=state, dirty_bytes=_count(pod))
    state.commit(pod.id)
    assert img1.epoch == 1 and image_extends_chain(img1)
    # the pod wrote nothing since epoch 0: its memory is not charged again
    assert img1.acct_dirty_bytes == 0 and img1.accounted_bytes == 0
    assert img1.total_bytes < 0.5 * img0.total_bytes

    out = ImagePipeline.reassemble([img0, img1])
    assert out.raw == codec.encode(build_payload(second, [], []))
    assert out.full_total_bytes == img1.raw_total_bytes


def test_delta_with_compress_composes(world):
    cluster = world
    pod, first = _capture(cluster)
    state = PipelineState()
    pipeline = ImagePipeline([DeltaFilter(), CompressFilter(level=4)])
    img0 = pipeline.pack(first, [], [], state=state, dirty_bytes=_count(pod))
    state.commit(pod.id)
    second = _recapture(cluster, pod, until=2.0)
    img1 = pipeline.pack(second, [], [], state=state, dirty_bytes=_count(pod))
    state.commit(pod.id)
    assert [f["name"] for f in img1.filters] == ["delta", "compress"]
    assert img1.total_bytes < img0.total_bytes
    out = ImagePipeline.reassemble([img0, img1])
    assert out.raw == codec.encode(build_payload(second, [], []))


def test_delta_without_a_count_charges_every_accounted_byte(world):
    """A delta packed with no dirty count cannot tell written memory
    from clean: it charges all of it (the payload is still diffed)."""
    cluster = world
    pod, first = _capture(cluster)
    state = PipelineState()
    pipeline = ImagePipeline([DeltaFilter()])
    pipeline.pack(first, [], [], state=state)
    state.commit(pod.id)
    second = _recapture(cluster, pod, until=2.0)
    img1 = pipeline.pack(second, [], [], state=state)
    assert image_extends_chain(img1)
    assert img1.accounted_bytes == img1.raw_accounted_bytes > 0
    assert img1.acct_dirty_bytes is None
    assert "dirty_model" not in img1.filters[0]


def test_parent_format_delta_record_still_reassembles(world):
    """Chains already on storage name their delta with every parameter
    the filter once took, ``measured: False`` included; a reader builds
    the filter from the record's name alone, so they still restore."""
    cluster = world
    pod, first = _capture(cluster)
    state = PipelineState()
    pipeline = ImagePipeline([DeltaFilter()])
    img0 = pipeline.pack(first, [], [], state=state, dirty_bytes=_count(pod))
    state.commit(pod.id)
    second = _recapture(cluster, pod, until=2.0)
    img1 = pipeline.pack(second, [], [], state=state, dirty_bytes=_count(pod))
    record = {"name": "delta", "block": 4096, "dirty_fraction": 0.25,
              "measured": False, "kind": "delta"}
    envelope = codec.decode(img1.data)
    envelope["filters"] = [record]
    old = replace(img1, data=codec.encode(envelope), filters=[record])
    assert image_extends_chain(old)
    out = ImagePipeline.reassemble([img0, old])
    assert out.raw == codec.encode(build_payload(second, [], []))


def test_delta_off_node_emits_self_contained_images(world):
    cluster = world
    pod, first = _capture(cluster)
    state = PipelineState()
    pipeline = ImagePipeline([DeltaFilter()])
    img0 = pipeline.pack(first, [], [], state=state)
    state.commit(pod.id)
    second = _recapture(cluster, pod, until=2.0)
    # chain_local=False is what the Agent passes when the target sink does
    # not hold the previous epoch (a fresh path, a peer Agent)
    img1 = pipeline.pack(second, [], [], state=state, chain_local=False)
    assert not image_extends_chain(img1)
    out = ImagePipeline.reassemble([img1])  # no chain needed
    assert out.raw == codec.encode(build_payload(second, [], []))


def test_chain_dependent_delta_refuses_lone_unpack(world):
    cluster = world
    pod, first = _capture(cluster)
    state = PipelineState()
    pipeline = ImagePipeline([DeltaFilter()])
    pipeline.pack(first, [], [], state=state)
    state.commit(pod.id)
    second = _recapture(cluster, pod, until=2.0)
    img1 = pipeline.pack(second, [], [], state=state)
    with pytest.raises(CheckpointError, match="delta"):
        img1.unpack()


def test_staged_base_not_visible_until_commit(world):
    """A re-pack before commit (send-queue redirect) must diff against
    the previous epoch, not the first attempt of the current one."""
    cluster = world
    pod, first = _capture(cluster)
    state = PipelineState()
    pipeline = ImagePipeline([DeltaFilter()])
    pipeline.pack(first, [], [], state=state)
    # no commit: a second pack of the same epoch is still a full image
    img_again = pipeline.pack(first, [], [], state=state)
    assert not image_extends_chain(img_again)
    assert state.epoch(pod.id) == 0


# ---------------------------------------------------------------------------
# negotiation / CLI parsing / counting writer
# ---------------------------------------------------------------------------


def test_negotiation_drops_unknown_and_invalid_stages():
    filters, accepted, rejected = negotiate_filters([
        {"name": "compress", "level": 3},
        {"name": "dedup"},                # unknown stage
        {"name": "compress", "level": 42},  # invalid params
    ])
    assert [f.name for f in filters] == ["compress"]
    assert accepted == [{"name": "compress", "level": 3}]
    assert len(rejected) == 2


def test_parse_filter_args_orders_delta_before_compress():
    assert parse_filter_args(None, False) == []
    assert parse_filter_args(6, True) == [
        {"name": "delta"}, {"name": "compress", "level": 6}]


def test_encoded_size_counts_without_materializing():
    samples = [
        None, True, 123, -(2**70), 3.5, "héllo", b"\x00" * 1000,
        [1, "two", (3, b"four")], {"k": [1, 2], "n": {"deep": None}},
        np.arange(12, dtype=np.float64).reshape(3, 4),
    ]
    for obj in samples:
        assert codec.encoded_size(obj) == len(codec.encode(obj))


def test_pod_image_positional_compat():
    """Pre-pipeline call sites construct PodImage with 5 positional args."""
    img = PodImage("x", b"1234", 4, 10, 2)
    assert img.total_bytes == 14
    assert img.raw_total_bytes == 14
    assert img.filters == [] and img.stage_costs == []
