"""Standalone (per-pod, non-network) checkpoint-restart — the Zap layer.

Captures everything about a pod except live socket state: process images
(program identity, program counter, registers, call stack, accounted
memory, pending blocked syscall), virtual pids, open files, timers and
the virtual clock.  Restore rebuilds the processes on the target node,
re-links their descriptors, re-arms timers, rebases the clock, and
finally *activates* the pod — re-issuing checkpointed blocking syscalls
(the ``ERESTARTSYS`` analogue) and enqueueing runnable processes.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from ..errors import RestartError, VosError
from ..pod.pod import Pod
from ..vos.filesystem import OpenFile
from ..vos.kernel import Kernel
from ..vos.process import BLOCKED, Process, RUNNABLE
from ..vos.program import build_program
from . import timevirt


def capture_pod_standalone(pod: Pod) -> Dict[str, Any]:
    """Capture the pod's non-network state (the pod must be suspended)."""
    kernel = pod.kernel
    procs = pod.processes()
    sample = procs[0] if procs else None
    vtime = kernel.vnow(sample) if sample is not None else kernel.engine.now
    proc_images = []
    file_rows = []
    for proc in procs:
        image = proc.to_image()
        image["vpid"] = proc.vpid
        proc_images.append(image)
        for fd in sorted(proc.fds):
            obj = proc.fds[fd]
            if isinstance(obj, OpenFile):
                file_rows.append({
                    "vpid": proc.vpid,
                    "fd": fd,
                    "fs": obj.fs.name,
                    "path": obj.path,
                    "pos": obj.pos,
                    "mode": obj.mode,
                })
    return {
        "pod_id": pod.id,
        "vip": pod.vip,
        "vtime": vtime,
        "time_virtualization": pod.time_virtualization,
        "procs": proc_images,
        "files": file_rows,
        "timers": timevirt.capture_timers(pod),
        # exited-but-unreaped children: their statuses must survive so a
        # restored parent's waitpid still collects them
        "zombies": {str(vpid): code for vpid, code in pod.zombies.items()},
    }


def accounted_memory_bytes(standalone: Dict[str, Any]) -> int:
    """Total resident-set bytes across the pod's process images — the
    dominant term of checkpoint image size."""
    return sum(sum(p["memory"].values()) for p in standalone["procs"])


def count_dirty(procs: Iterable[Process], consumer: str) -> int:
    """Bytes ``procs`` wrote since ``consumer`` last cleared its baseline
    (:class:`repro.vos.memory.Memory`): the one dirty count a checkpoint
    is priced from, and what a pre-copy round or copy-on-write window
    has to move."""
    return sum(p.memory.dirty_in(consumer) for p in procs)


def _find_fs(kernel: Kernel, name: str):
    if kernel.vfs.root.name == name:
        return kernel.vfs.root
    for fs in kernel.vfs.mounts.values():
        if fs.name == name:
            return fs
    raise RestartError(f"file system {name!r} not mounted on {kernel.hostname}")


def resolve_programs(standalone: Dict[str, Any]) -> None:
    """Look up the program of every process image, as
    :func:`restore_pod_standalone` will, while the restart can still be
    refused: an image naming a program this interpreter has not
    registered, or params its builder rejects, is a :class:`RestartError`
    before any pod exists rather than a half-built pod afterwards."""
    for image in standalone["procs"]:
        try:
            build_program(image["program_name"], **image["program_params"])
        except (VosError, TypeError, ValueError) as err:
            raise RestartError(f"a process image cannot be rebuilt: {err}") from None


def restore_pod_standalone(
    pod: Pod,
    standalone: Dict[str, Any],
    socket_map: Optional[Dict[int, Any]] = None,
    socket_fd_rows: Optional[List[Dict[str, Any]]] = None,
    time_virtualization: Optional[bool] = None,
) -> List[Process]:
    """Rebuild the pod's processes on ``pod``'s (new) node.

    ``socket_map`` maps original sock_ids to the re-established sockets
    from the network-connectivity recovery; ``socket_fd_rows`` are the
    fd links captured alongside.  Does **not** activate the processes —
    call :func:`activate_pod` after the network state is restored, per
    the restart algorithm's step ordering.
    """
    kernel = pod.kernel
    enabled = standalone["time_virtualization"] if time_virtualization is None else time_virtualization
    timevirt.apply_clock(pod, float(standalone["vtime"]), enabled)

    restored: List[Process] = []
    by_vpid: Dict[int, Process] = {}
    for image in standalone["procs"]:
        proc = Process.from_image(kernel.alloc_pid(), image)
        proc.pod_id = pod.id
        kernel.adopt_process(proc, enqueue=False)
        pod.adopt(proc, vpid=int(image["vpid"]))
        restored.append(proc)
        by_vpid[proc.vpid] = proc

    # re-link open files (contents live on shared storage)
    for row in standalone["files"]:
        proc = by_vpid.get(int(row["vpid"]))
        if proc is None:
            raise RestartError(f"file row references unknown vpid {row['vpid']}")
        fs = _find_fs(kernel, row["fs"])
        f = fs.files.get(row["path"])
        if f is None:
            raise RestartError(f"missing file {row['path']} on {row['fs']}")
        handle = OpenFile(fs, row["path"], f, row["mode"])
        handle.pos = int(row["pos"])
        proc.fds[int(row["fd"])] = handle

    # transplant re-established sockets into fd tables
    if socket_fd_rows:
        if socket_map is None:
            raise RestartError("socket fd rows without a socket map")
        for row in socket_fd_rows:
            proc = by_vpid.get(int(row["vpid"]))
            sock = socket_map.get(int(row["sock_id"]))
            if proc is None or sock is None:
                raise RestartError(f"dangling socket fd row {row}")
            proc.fds[int(row["fd"])] = sock

    for vpid, code in standalone.get("zombies", {}).items():
        pod.note_zombie(int(vpid), int(code))
    timevirt.restore_timers(pod, standalone["timers"], enabled)
    return restored


def activate_pod(pod: Pod) -> None:
    """Let restored processes run: the final step of the local restart.

    Blocked processes re-issue their checkpointed syscall (idempotent
    handlers, re-translated through the new namespace); runnable ones go
    straight onto the run queue.
    """
    kernel = pod.kernel
    for proc in pod.processes():
        # A syscall that completed while the process was already stopped
        # parked its result instead of writing the register (the kernel's
        # SIGSTOP protocol).  On the source node SIGCONT delivers it; a
        # restored process never gets that SIGCONT, so deliver it here —
        # otherwise the process resumes past the syscall with a stale
        # register and the completed result (e.g. received bytes) is lost.
        if proc.pending_result is not None:
            dst, value = proc.pending_result
            proc.pending_result = None
            if dst is not None:
                proc.regs[dst] = value
        if proc.state == BLOCKED and proc.blocked_on is not None:
            kernel.do_syscall(proc, proc.blocked_on, restarted=True)
        elif proc.state == RUNNABLE:
            kernel.scheduler.enqueue(proc)
