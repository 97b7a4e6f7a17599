"""Socket control blocks are walked once per capture.

A pod checkpoint used to walk every socket record's control block
(``options`` + ``pcb``) two or three times: sized in the Agent's netstate
phase, encoded again by ``pack`` (and the ``pcb`` once more for the
meta-data message), and both again by a migration's re-pack.  The block is
fixed at capture, so the Agent now seals it there
(``netckpt.seal_control``) and everything after splices those bytes —
these tests pin that each block reaches an encoder handler exactly once,
that the phase's number and the image's still agree, and that dropping the
image builder's deep copy changed no byte of the payload.
"""

from collections import Counter

import pytest

from repro.core import codec, netckpt
from repro.core.agent import Agent
from repro.core.image import build_payload
from repro.core.pipeline import ImagePipeline
from repro.net import Endpoint

from . import reference_codec
from .testapps import checkpoint_app_once, migrate_pingpong_with_redirect


@pytest.fixture
def walked(monkeypatch):
    """Every captured control block, as the capture returned it, and how
    often each one reached the codec's dict handler (counted by ``id``;
    the blocks are kept, so no id is reused)."""
    blocks, calls = [], Counter()
    capture = Agent._capture_network
    enc_dict = codec._ENCODERS[dict]

    def capturing(self, pod):
        records, fd_rows = capture(self, pod)
        for rec in records:
            assert type(rec["options"]) is dict     # sealed by the Agent, not here
            blocks.extend(rec[part] for part in ("options", "pcb")
                          if rec[part] is not None)  # a listener has no pcb
        return records, fd_rows

    def counting(obj, parts, depth):
        calls[id(obj)] += 1
        enc_dict(obj, parts, depth)

    monkeypatch.setattr(Agent, "_capture_network", capturing)
    monkeypatch.setitem(codec._ENCODERS, dict, counting)
    return blocks, calls


@pytest.fixture
def packed(monkeypatch):
    """Every image ``ImagePipeline.pack`` returns, with the send-queue
    bytes its records held at that moment."""
    seen = []
    real = ImagePipeline.pack

    def recording(self, standalone, socket_records, *args, **kwargs):
        image = real(self, standalone, socket_records, *args, **kwargs)
        seen.append((image, socket_records,
                     sum(len(rec["send_data"]) for rec in socket_records)))
        return image

    monkeypatch.setattr(ImagePipeline, "pack", recording)
    return seen


def _netstate_span_nbytes(tracer):
    return {span.pod: span.attrs["nbytes"] for span in tracer.spans
            if span.name == "agent.phase.netstate"}


def test_one_checkpoint_sizes_each_control_block_exactly_once(walked, packed):
    blocks, calls = walked
    _cluster, tracer, result = checkpoint_app_once("BT/NAS", 4)

    assert len(packed) == 4
    records = [rec for _image, recs, _queued in packed for rec in recs]
    # a connected world: every pod holds sockets to its peers
    assert all(len(recs) >= 3 for _image, recs, _queued in packed)
    # sized for the phase, reported as meta-data, packed, flushed and read
    # back: one walk of each block, by whoever sealed it
    assert len(blocks) >= 2 * len(records) - 4
    assert all(type(rec[part]) is codec.Fragment
               for rec in records for part in ("options", "pcb"))
    assert [calls[id(block)] for block in blocks] == [1] * len(blocks)

    # no redirect happened: the image carries the phase's number
    nbytes = _netstate_span_nbytes(tracer)
    for image, recs, _queued in packed:
        assert image.netstate_bytes == nbytes[image.pod_id]
        assert image.netstate_bytes == netckpt.netstate_nbytes(recs)
        assert result.pods[image.pod_id]["netstate_bytes"] == image.netstate_bytes


def test_redirect_repack_differs_only_by_the_stripped_send_queue(walked, packed):
    blocks, calls = walked
    _cluster, tracer = migrate_pingpong_with_redirect()

    nbytes = _netstate_span_nbytes(tracer)
    by_pod = {}
    for image, _recs, queued in packed:
        by_pod.setdefault(image.pod_id, []).append((image, queued))
    assert sorted(by_pod) == ["pp-cli", "pp-srv"]
    stripped_total = 0
    for pod_id, ((first, queued), (repacked, left)) in by_pod.items():
        assert first.netstate_bytes == nbytes[pod_id]
        assert left == 0
        assert repacked.netstate_bytes == first.netstate_bytes - queued
        stripped_total += queued
    assert stripped_total > 0, "the scenario redirected no send-queue bytes"
    # the re-pack spliced the capture's bytes: still one walk of each block
    assert blocks and [calls[id(block)] for block in blocks] == [1] * len(blocks)


def _plain(obj):
    """The deep copy ``core.image`` used to make before encoding."""
    if isinstance(obj, tuple):
        return tuple(_plain(x) for x in obj)
    if isinstance(obj, list):
        return [_plain(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    return obj


def test_payload_without_the_deep_copy_encodes_identically():
    peer = Endpoint("10.77.0.2", 9100)
    record = {
        "sock_id": 7, "proto": "udp",
        "local": Endpoint("10.77.0.1", 4000), "remote": peer,
        "options": {"SO_RCVBUF": 65536}, "pcb": None,
        "recv_data": b"", "oob_data": b"", "send_data": b"",
        "datagrams": [(b"hello", peer), (b"again", Endpoint("10.77.0.3", 1))],
        "default_peer": peer,
    }
    devices = {"states": [{"port_num": 2, "recv_q": [(b"x", peer, 3)],
                           "pending": {}}], "fd_rows": []}
    payload = build_payload({"pod_id": "p", "procs": []}, [record], [], devices)
    assert payload["sockets"][0]["local"] is record["local"]   # no copy made
    assert codec.encode(payload) == reference_codec.encode(_plain(payload))
    back = codec.decode(codec.encode(payload))
    assert back["sockets"][0]["remote"] == ("10.77.0.2", 9100)
    assert type(back["sockets"][0]["remote"]) is tuple
