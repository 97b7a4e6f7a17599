"""A killed process keeps only its exit record.

``Kernel.send_signal(pid, SIGKILL)`` leaves the corpse in the process
table — ``waitpid`` reads its exit code, the harness its exit time — but
drops its registers, call stack, blocked syscall and parked result
(:meth:`~repro.vos.process.Process.keep_exit_record`).  Nothing reads
those of a killed process: every reader of results skips an exit code
other than 0.  A restart destroys every pod it revives; kept, each
killed process's register file (a BT/NAS rank's frames and halo
buffers, ~0.45 MB) would stay for the life of the world.

The first tests check what a corpse keeps and that every reader reads
what it reads when corpses keep everything; the last weighs the release
with ``tracemalloc``, in the style of ``tests/core/test_flush_budget.py``.
"""

import gc
import sys
import tracemalloc

import numpy as np

from repro.cluster import Cluster
from repro.core import Manager
from repro.harness import APPS, build_cluster
from repro.middleware import checkpoint_targets
from repro.vos import DEAD, SIGKILL, SIGSTOP, Kernel, build_program, imm, program
from repro.vos.process import Process

#: the fields of an exit record, compared before and after a kill.
KEPT = ("pid", "vpid", "pod_id", "program", "pc", "exit_code", "exit_time",
        "cpu_cycles", "syscalls_made", "memory")


@program("test.exit-record-child")
def _child(b):
    b.mov("x", imm(41))
    b.alloc(imm(1 << 20), "heap")
    b.call("sub")
    b.halt(imm(0))
    b.label("sub")
    b.syscall("slept", "sleep", imm(100.0))
    b.ret()


@program("test.exit-record-parent")
def _parent(b, *, delay=0.0):
    b.syscall("cpid", "spawn", imm("test.exit-record-child"), imm({}), imm({}))
    b.syscall(None, "sleep", imm(delay))
    b.syscall("status", "waitpid", "cpid")
    b.halt(imm(0))


@program("test.exit-record-napper")
def _napper(b):
    b.mov("x", imm(7))
    b.syscall("r", "sleep", imm(1.0))
    b.halt(imm(0))


def _record(proc):
    return {name: getattr(proc, name) for name in KEPT}


def _child_of(kernel):
    (child,) = [p for p in kernel.procs.values()
                if p.program.name == "test.exit-record-child"]
    return child


def test_a_killed_child_keeps_its_exit_record_and_waitpid_reads_it():
    cluster = Cluster.build(1, seed=0)
    node = cluster.node(0)
    kernel = node.kernel
    cluster.create_pod(node, "p")
    parent = kernel.spawn(build_program("test.exit-record-parent"), pod_id="p")
    cluster.engine.run(until=1.0)
    child = _child_of(kernel)
    # blocked in ``sleep`` one frame deep, its memory accounted, its
    # parent blocked in waitpid
    assert child.blocked_on is not None and child.callstack and child.regs["x"] == 41
    assert child.vpid is not None and child.pod_id == "p"
    assert child.memory.rss > 1 << 20
    record, memory = _record(child), child.memory.to_image()

    kernel.send_signal(child.pid, SIGKILL)
    assert child.state == DEAD and child.exit_code == -9 and child.exit_time == 1.0
    record.update(exit_code=-9, exit_time=1.0)
    assert _record(child) == record and child.memory.to_image() == memory
    assert kernel.procs[child.pid] is child  # the corpse stays in the table
    assert child.regs == {} and child.callstack == []
    assert child.blocked_on is None and child.pending_result is None
    cluster.engine.run()
    assert parent.exit_code == 0 and parent.regs["status"] == -9


def test_waitpid_on_a_child_killed_before_the_wait_returns_minus_nine(engine):
    kernel = Kernel(engine, "node0")
    parent = kernel.spawn(build_program("test.exit-record-parent", delay=2.0))
    engine.run(until=1.0)
    kernel.send_signal(_child_of(kernel).pid, SIGKILL)
    engine.run()
    assert parent.regs["status"] == -9  # read off the corpse


def test_a_killed_stopped_process_drops_its_parked_result(engine):
    kernel = Kernel(engine, "node0")
    proc = kernel.spawn(build_program("test.exit-record-napper"))
    engine.schedule(0.5, kernel.send_signal, proc.pid, SIGSTOP)
    engine.run(until=2.0)
    assert proc.pending_result is not None  # the sleep ended while stopped
    kernel.send_signal(proc.pid, SIGKILL)
    assert proc.pending_result is None and proc.regs == {}


def _restarted_bt():
    """BT/NAS on 4 pods: checkpoint at half its run, destroy every pod,
    restart from the images in place and run to the end.  The first
    incarnation's rank processes stay behind as killed corpses."""
    spec = APPS["BT/NAS"]
    cluster = build_cluster(4, seed=0)
    manager = Manager.deploy(cluster)
    handle = spec.launch_pods(cluster, 4, 1.0)
    targets = checkpoint_targets(handle, cluster)
    ops = {}

    def script():
        yield cluster.engine.sleep(0.5 * spec.work_seconds(4, 1.0))
        ops["checkpoint"] = yield from manager.checkpoint_task(targets)
        for _node, pod_id, _uri in targets:
            cluster.find_pod(pod_id).destroy()
        ops["restart"] = yield from manager.restart_task(targets)

    cluster.engine.spawn(script(), name="checkpoint-restart")
    cluster.engine.run(until=60.0)
    assert ops["checkpoint"].ok and ops["restart"].ok
    return cluster, handle


def _clean_registers(cluster, handle):
    return {proc.program.params["rank"]: sorted(proc.regs)
            for proc in handle.rank_procs(cluster) if proc.exit_code == 0}


def test_results_read_past_the_corpses_of_a_restart(monkeypatch):
    cluster, handle = _restarted_bt()
    corpses = [p for p in handle.rank_procs(cluster) if p.exit_code == -9]
    assert len(corpses) == 4 and all(p.regs == {} for p in corpses)
    results, ok, clean = handle.results(cluster, "checksum"), handle.ok(cluster), \
        _clean_registers(cluster, handle)
    assert ok and APPS["BT/NAS"].verify(cluster, handle)

    # the same run with the corpses keeping everything reads the same
    monkeypatch.setattr(Process, "keep_exit_record", lambda self: None)
    kept_cluster, kept_handle = _restarted_bt()
    assert all(p.regs for p in kept_handle.rank_procs(kept_cluster) if p.exit_code == -9)
    assert kept_handle.results(kept_cluster, "checksum") == results
    assert kept_handle.ok(kept_cluster) == ok
    # a clean exit keeps every register it had
    assert _clean_registers(kept_cluster, kept_handle) == clean


def _deep_bytes(obj, seen):
    """Bytes of ``obj`` and of everything it holds through lists, tuples
    and dicts, each object once."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, (list, tuple)):
        size += sum(_deep_bytes(item, seen) for item in obj)
    elif isinstance(obj, dict):
        size += sum(_deep_bytes(item, seen) for item in obj.values())
    return size


def test_destroying_a_world_releases_its_corpses_registers():
    """Destroy every pod of a 4-pod BT/NAS world at half its run: at
    least 90 % of the bytes its processes' registers held are freed.
    With the release removed under 2 % is freed."""
    spec = APPS["BT/NAS"]
    tracemalloc.start()
    try:
        cluster = build_cluster(4, seed=0)
        spec.launch_pods(cluster, 4, 1.0)
        cluster.engine.run(until=0.5 * spec.work_seconds(4, 1.0))
        seen = set()
        held = sum(_deep_bytes(proc.regs, seen)
                   for node in cluster.nodes for proc in node.kernel.procs.values())
        # a rank's frames and halo buffers, not a handful of scalars
        assert held > 4 * 256 * 1024 and any(
            isinstance(value, np.ndarray) for node in cluster.nodes
            for proc in node.kernel.procs.values() for value in proc.regs.values())
        del seen
        gc.collect()
        before, _ = tracemalloc.get_traced_memory()
        for node in cluster.nodes:
            for pod in list(node.kernel.pods.values()):
                pod.destroy()
        # the slices the kills cut short end; nothing else is queued
        cluster.engine.run(until=cluster.engine.now + 0.1)
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(proc.exit_code == -9 for node in cluster.nodes
               for proc in node.kernel.procs.values())
    released = before - after
    assert released >= 0.9 * held, f"released {released / held:.2f} of {held} register bytes"
