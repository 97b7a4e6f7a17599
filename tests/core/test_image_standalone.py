"""Unit tests for image packing and standalone capture/restore."""

import pytest

from repro.cluster import Cluster
from repro.core.image import PodImage
from repro.core.pipeline import ImagePipeline
from repro.core.standalone import (
    accounted_memory_bytes,
    activate_pod,
    capture_pod_standalone,
    restore_pod_standalone,
)
from repro.errors import CheckpointError
from repro.vos import BLOCKED, DEAD, build_program, imm, program


@program("testapp.imgapp")
def _imgapp(b, *, ballast):
    b.alloc(imm(ballast), "heap")
    b.syscall("fd", "open", imm("/notes.txt"), imm("w"))
    b.syscall(None, "write", "fd", imm(b"hello"))
    b.syscall("t0", "gettime")
    b.syscall(None, "sleep", imm(10.0))
    b.syscall(None, "write", "fd", imm(b" world"))
    b.syscall(None, "close", "fd")
    b.halt(imm(0))


@pytest.fixture
def world():
    cluster = Cluster.build(2, seed=55)
    return cluster


def _suspend_midway(cluster, pod_id="img", ballast=1_000_000):
    pod = cluster.create_pod(cluster.node(0), pod_id)
    proc = cluster.node(0).kernel.spawn(
        build_program("testapp.imgapp", ballast=ballast), pod_id=pod_id)
    cluster.engine.run(until=1.0)  # proc is now asleep with the file open
    pod.suspend()
    cluster.engine.run(until=1.1)
    assert pod.quiescent()
    return pod, proc


def test_capture_contains_processes_files_and_clock(world):
    cluster = world
    pod, proc = _suspend_midway(cluster)
    standalone = capture_pod_standalone(pod)
    assert standalone["pod_id"] == "img"
    assert standalone["vip"] == pod.vip
    assert len(standalone["procs"]) == 1
    image = standalone["procs"][0]
    assert image["vpid"] == 1
    assert image["state"] == BLOCKED
    assert image["blocked_on"]["name"] == "sleep_until"
    (frow,) = standalone["files"]
    assert frow["path"].endswith("/notes.txt")
    assert frow["pos"] == 5  # wrote "hello" so far
    assert standalone["vtime"] == pytest.approx(1.0, abs=0.2)


def test_accounted_memory_drives_image_size(world):
    cluster = world
    pod, _proc = _suspend_midway(cluster, ballast=5_000_000)
    standalone = capture_pod_standalone(pod)
    assert accounted_memory_bytes(standalone) >= 5_000_000
    img = ImagePipeline().pack(standalone, [], [])
    assert img.total_bytes == img.encoded_bytes + img.accounted_bytes
    assert img.accounted_bytes >= 5_000_000
    assert img.encoded_bytes < 100_000  # registers, not ballast


def test_pack_unpack_round_trip(world):
    cluster = world
    pod, _proc = _suspend_midway(cluster)
    standalone = capture_pod_standalone(pod)
    img = ImagePipeline().pack(standalone, [], [{"vpid": 1, "fd": 9, "sock_id": 3}])
    payload = img.unpack()
    assert payload["standalone"]["pod_id"] == "img"
    assert payload["socket_fds"] == [{"vpid": 1, "fd": 9, "sock_id": 3}]


def test_unpack_rejects_wrong_format():
    from repro.core import codec
    bogus = PodImage("x", codec.encode({"format": 99}), 10, 0, 0)
    with pytest.raises(CheckpointError):
        bogus.unpack()


def test_restore_and_activate_completes_the_run(world):
    cluster = world
    pod, proc = _suspend_midway(cluster)
    standalone = capture_pod_standalone(pod)
    pod.destroy()
    cluster.engine.run(until=1.2)

    # restore on the other blade (files live on the SAN, so they exist)
    from repro.pod import Pod
    new_pod = Pod.create(cluster.node(1).kernel, "img", pod.vip, cluster.vnet)
    restored = restore_pod_standalone(new_pod, standalone)
    assert len(restored) == 1
    assert restored[0].vpid == 1  # the virtual identifier is preserved
    assert restored[0] is not proc  # a fresh process on the new kernel
    activate_pod(new_pod)
    cluster.engine.run(until=30.0)
    assert restored[0].state == DEAD and restored[0].exit_code == 0
    # the file got its second write through the restored descriptor
    assert bytes(cluster.san.lookup("/pods/img/notes.txt").data) == b"hello world"


def test_restore_missing_file_fails_cleanly(world):
    cluster = world
    pod, _proc = _suspend_midway(cluster)
    standalone = capture_pod_standalone(pod)
    pod.destroy()
    cluster.san.unlink("/pods/img/notes.txt")
    from repro.errors import RestartError
    from repro.pod import Pod
    new_pod = Pod.create(cluster.node(1).kernel, "img", "10.77.9.9", cluster.vnet)
    with pytest.raises(RestartError, match="notes.txt"):
        restore_pod_standalone(new_pod, standalone)
