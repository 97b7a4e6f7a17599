"""Pod behaviour tests: namespaces in action, virtual networking,
suspend/resume, interposition overhead."""

import pytest

from repro.cluster import Cluster
from repro.vos import DEAD, imm, program
from repro.vos.signals import SIGKILL


@pytest.fixture
def cluster():
    return Cluster.build(2, seed=7)


@program("test.pod-spin")
def _spin(b, *, seconds=1.0):
    b.syscall(None, "sleep", imm(seconds))
    b.halt(imm(0))


@program("test.pod-getpid")
def _getpid(b):
    b.syscall("mypid", "getpid")
    b.syscall(None, "sleep", imm(5.0))
    b.halt(imm(0))


@program("test.pod-parent")
def _parent(b):
    b.syscall("child", "spawn", imm("test.pod-spin"), imm({"seconds": 0.1}), imm({}))
    b.syscall("status", "waitpid", "child")
    b.halt(imm(0))


@program("test.pod-killer")
def _killer(b, *, victim):
    b.syscall("r", "kill", imm(victim), imm(SIGKILL))
    b.halt(imm(0))


def _build_prog(name, **params):
    from repro.vos import build_program
    return build_program(name, **params)


def test_pod_creation_homes_virtual_address(cluster):
    node = cluster.node(0)
    pod = cluster.create_pod(node, "p0")
    assert pod.vip in node.stack.nic.addresses
    assert cluster.vnet.resolve(pod.vip) == node.ip
    assert cluster.find_pod("p0") is pod


def test_duplicate_pod_id_rejected(cluster):
    from repro.errors import PodError
    node = cluster.node(0)
    cluster.create_pod(node, "p0")
    with pytest.raises(PodError):
        cluster.create_pod(node, "p0")


def test_getpid_returns_vpid_inside_pod(cluster):
    node = cluster.node(0)
    pod = cluster.create_pod(node, "p0")
    proc = node.kernel.spawn(_build_prog("test.pod-getpid"), pod_id="p0")
    cluster.engine.run(until=1.0)
    assert proc.vpid == 1
    assert proc.regs["mypid"] == 1  # not the host pid
    assert proc.pid != 1


def test_spawned_children_join_the_pod(cluster):
    node = cluster.node(0)
    pod = cluster.create_pod(node, "p0")
    parent = node.kernel.spawn(_build_prog("test.pod-parent"), pod_id="p0")
    cluster.engine.run()
    assert parent.state == DEAD
    assert parent.regs["child"] == 2  # child got vpid 2
    assert parent.regs["status"] == 0


def test_kill_by_vpid_translates_through_namespace(cluster):
    node = cluster.node(0)
    pod = cluster.create_pod(node, "p0")
    victim = node.kernel.spawn(_build_prog("test.pod-spin", seconds=60.0), pod_id="p0")
    assert victim.vpid == 1
    node.kernel.spawn(_build_prog("test.pod-killer", victim=1), pod_id="p0")
    cluster.engine.run(until=5.0)
    assert victim.state == DEAD and victim.exit_code == -9


def test_suspend_quiesces_and_resume_continues(cluster):
    node = cluster.node(0)
    pod = cluster.create_pod(node, "p0")
    proc = node.kernel.spawn(_build_prog("test.pod-spin", seconds=1.0), pod_id="p0")
    engine = cluster.engine
    engine.schedule(0.2, pod.suspend)
    engine.run(until=0.5)
    assert pod.quiescent()
    assert proc.state != DEAD
    engine.schedule(0.0, pod.resume)
    engine.run()
    assert proc.state == DEAD
    # ~1s sleep + ~0.3s frozen window later wake
    assert engine.now == pytest.approx(1.0, abs=0.05)


def test_destroy_kills_members_and_releases_address(cluster):
    node = cluster.node(0)
    pod = cluster.create_pod(node, "p0")
    proc = node.kernel.spawn(_build_prog("test.pod-spin", seconds=60.0), pod_id="p0")
    vip = pod.vip
    pod.destroy()
    cluster.engine.run(until=1.0)
    assert proc.state == DEAD
    assert vip not in node.stack.nic.addresses
    assert cluster.vnet.where(vip) is None
    assert "p0" not in node.kernel.pods


@program("test.pod-server")
def _pod_server(b, *, port):
    b.syscall("lfd", "socket", imm("tcp"))
    b.syscall(None, "bind", "lfd", imm(("default", port)))
    b.syscall(None, "listen", "lfd", imm(8))
    b.syscall("conn", "accept", "lfd")
    b.op("cfd", lambda c: c[0], "conn")
    b.syscall("data", "recv", "cfd", imm(1024), imm(0))
    b.syscall(None, "send", "cfd", imm(b"ok"), imm(0))
    b.halt(imm(0))


@program("test.pod-client")
def _pod_client(b, *, server_vip, port, payload):
    b.syscall("fd", "socket", imm("tcp"))
    b.syscall("rc", "connect", "fd", imm((server_vip, port)))
    b.syscall(None, "send", "fd", imm(payload), imm(0))
    b.syscall("reply", "recv", "fd", imm(1024), imm(0))
    b.halt(imm(0))


def test_cross_node_pods_communicate_via_virtual_addresses(cluster):
    n0, n1 = cluster.node(0), cluster.node(1)
    pod_a = cluster.create_pod(n0, "pa")
    pod_b = cluster.create_pod(n1, "pb")
    srv = n1.kernel.spawn(_build_prog("test.pod-server", port=9000), pod_id="pb")
    cli = n0.kernel.spawn(
        _build_prog("test.pod-client", server_vip=pod_b.vip, port=9000, payload=b"hi"),
        pod_id="pa",
    )
    cluster.engine.run(until=10.0)
    assert srv.state == DEAD and cli.state == DEAD
    assert srv.regs["data"] == b"hi"
    assert cli.regs["reply"] == b"ok"
    # the connection was made on virtual addresses: the server accepted
    # the client pod's
    assert srv.regs["conn"][1].ip == pod_a.vip


def test_interposition_charges_extra_cycles(cluster):
    """A pod process's syscalls take longer than a host process's."""
    from repro.vos import build_program

    node_plain = cluster.node(0)
    node_pod = cluster.node(1)
    cluster.create_pod(node_pod, "pp")

    def build():
        from repro.vos.program import ProgramBuilder
        b = ProgramBuilder("syscall-burner")
        with b.for_range("i", imm(0), imm(2000)):
            b.syscall(None, "getpid")
        b.halt(imm(0))
        return b.build()

    p_plain = node_plain.kernel.spawn(build())
    p_pod = node_pod.kernel.spawn(build(), pod_id="pp")
    engine = cluster.engine
    engine.run()
    assert p_plain.state == DEAD and p_pod.state == DEAD
    # both did the same work; measure used wall time via syscall accounting:
    # interposed syscalls burn INTERPOSE_CYCLES extra each, so the pod
    # process must have finished later in simulated time. We proxy via
    # cpu_cycles equality + completion order assertions on kernels.
    assert p_plain.cpu_cycles == p_pod.cpu_cycles  # user-mode work identical


def test_a_syscall_is_interposed_by_its_own_pod_only(cluster, monkeypatch):
    """One ``_interpose`` per syscall however many pods share the node, and
    none for a host channel (every pod on the node used to be asked)."""
    from repro.pod import INTERPOSE_CYCLES, Pod

    asked = []
    real = Pod._interpose

    def counting(pod, proc, req):
        asked.append((pod.id, req.name))
        return real(pod, proc, req)

    monkeypatch.setattr(Pod, "_interpose", counting)
    node = cluster.node(0)
    for k in range(8):
        cluster.create_pod(node, f"p{k}")
    kernel = node.kernel
    proc = kernel.spawn(_build_prog("test.pod-getpid"), pod_id="p5")
    plain = kernel.spawn(_build_prog("test.pod-getpid"))  # on the node, in no pod
    cluster.engine.run(until=10.0)
    assert proc.syscalls_made == plain.syscalls_made == 2
    assert asked == [("p5", "getpid"), ("p5", "sleep")]
    # and that one pod's cycles are charged, exactly as before
    assert proc.exit_time - plain.exit_time == pytest.approx(2 * INTERPOSE_CYCLES / kernel.hz, rel=1e-3)

    del asked[:]
    chan = kernel.host_channel("agent")
    assert cluster.engine.run_task(_host_gettime(kernel, chan)) >= 0
    assert asked == []


def _host_gettime(kernel, chan):
    return (yield kernel.host_call(chan, "gettime"))


@program("test.pod-fs")
def _pod_fs(b):
    b.syscall("fd", "open", imm("/scratch.txt"), imm("w"))
    b.syscall(None, "write", "fd", imm(b"pod data"))
    b.syscall(None, "close", "fd")
    b.halt(imm(0))


def test_pod_filesystem_is_chrooted_on_shared_storage(cluster):
    node = cluster.node(0)
    pod = cluster.create_pod(node, "p0")
    node.kernel.spawn(_build_prog("test.pod-fs"), pod_id="p0")
    cluster.engine.run(until=1.0)
    # the file landed under the pod's chroot on the SAN (so a migrated
    # pod sees it from any node), not on the node-local root fs
    assert cluster.san.exists("/pods/p0/scratch.txt")
    assert not node.kernel.vfs.root.exists("/scratch.txt")
    # visible through the other node's VFS too
    other = cluster.node(1)
    fs, inner = other.kernel.vfs.resolve("/scratch.txt", chroot=pod.chroot)
    assert fs is cluster.san and fs.exists(inner)
