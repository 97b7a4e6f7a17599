"""Network state is sized once per capture.

A pod checkpoint used to walk every socket record three times: the
Agent's netstate phase, ``pack``'s ``netstate_bytes`` and the real
encode.  The control block of a record (``options`` + ``pcb``) is fixed
at capture, so it is now measured once and the sum reused — these tests
pin the call count, that the two numbers still agree, and that dropping
the image builder's deep copy changed no byte of the payload.
"""

from collections import Counter

import pytest

from repro.cluster import Cluster
from repro.core import Manager, codec, migrate, netckpt
from repro.core.image import build_payload
from repro.core.pipeline import ImagePipeline
from repro.harness import APPS, build_cluster
from repro.middleware import checkpoint_targets
from repro.net import Endpoint
from repro.obs import SpanTracer

from . import reference_codec
from .testapps import expected_sums, final_sums, launch_pingpong


@pytest.fixture
def sized(monkeypatch):
    """Count ``codec.encoded_size`` calls per measured object: the socket
    control blocks are the only thing the checkpoint path sizes."""
    calls = Counter()
    real = codec.encoded_size

    def counting(obj):
        calls[id(obj)] += 1
        return real(obj)

    monkeypatch.setattr(codec, "encoded_size", counting)
    return calls


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


def test_one_checkpoint_sizes_each_control_block_exactly_once(sized, packed):
    spec = APPS["BT/NAS"]
    cluster = build_cluster(4, seed=0)
    manager = Manager.deploy(cluster)
    tracer = SpanTracer(cluster.engine).install(cluster)
    handle = spec.launch_pods(cluster, 4, 1.0)
    done = {}

    def script():
        yield cluster.engine.sleep(0.5 * spec.work_seconds(4, 1.0))
        done["result"] = yield from manager.checkpoint_task(
            checkpoint_targets(handle, cluster))
        cluster.engine.stop()

    cluster.engine.spawn(script(), name="one-checkpoint")
    cluster.engine.run(until=60.0)
    result = done["result"]
    assert result.ok, result.errors

    assert len(packed) == 4
    records = [rec for _image, recs, _queued in packed for rec in recs]
    # a connected world: every pod holds sockets to its peers
    assert all(len(recs) >= 3 for _image, recs, _queued in packed)
    blocks = [rec[part] for rec in records for part in ("options", "pcb")
              if rec[part] is not None]   # a listener has no pcb
    assert all(sized[id(block)] == 1 for block in blocks)
    assert set(sized) - {id(None)} == {id(block) for block in blocks}

    # no redirect happened: the image carries the phase's number
    nbytes = _netstate_span_nbytes(tracer)
    for image, recs, _queued in packed:
        assert image.netstate_bytes == nbytes[image.pod_id]
        assert image.netstate_bytes == netckpt.netstate_nbytes(recs)
        assert result.pods[image.pod_id]["netstate_bytes"] == image.netstate_bytes


def test_redirect_repack_differs_only_by_the_stripped_send_queue(sized, packed):
    rounds = 800
    cluster = Cluster.build(4, seed=42)
    manager = Manager.deploy(cluster)
    tracer = SpanTracer(cluster.engine).install(cluster)
    launch_pingpong(cluster, rounds=rounds)
    holder = {}

    def go_dark():
        # the server stops acking: the client's next request stays in its
        # send queue, so the migration has queue bytes to redirect
        vip = cluster.find_pod("pp-srv").vip
        cluster.node(0).kernel.netstack.netfilter.block_ip(vip)

    def kick():
        holder["mig"] = migrate(manager, [
            ("blade0", "pp-srv", "blade2"),
            ("blade1", "pp-cli", "blade3"),
        ], redirect=True)

    cluster.engine.schedule(0.15, go_dark)
    cluster.engine.schedule(0.16, kick)
    cluster.engine.run(until=300.0)
    assert holder["mig"].finished.result.ok
    assert final_sums(cluster) == expected_sums(rounds)

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
    # the re-pack reused the capture's measurement
    for _image, recs, _queued in packed:
        assert all(sized[id(rec["options"])] == 1 for rec in recs)


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
