"""The pod (PrOcess Domain): Zap's migratable virtual execution unit.

A pod groups processes behind a private namespace — virtual pids, a
virtual network address, a chroot'd file-system view, and a virtual
clock — and interposes on every member syscall (charging the small
per-syscall cycle cost whose aggregate is the Figure 5 virtualization
overhead, and translating identifier arguments between namespaces).

Pods are "the minimal unit of migration": dual-CPU nodes typically host
two pods, one per application endpoint, which can later migrate to
*different* nodes independently (the N→M migration of Section 3).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..errors import NoSuchProcessError, PodError
from ..vos.filesystem import ensure_dirs
from ..vos.kernel import Kernel
from ..vos.process import BLOCKED, Process, RUNNABLE, RUNNING, SyscallRequest
from ..vos.signals import SIGCONT, SIGKILL, SIGSTOP
from .namespace import PidNamespace

#: Extra cycles charged per interposed syscall (~0.13 µs at 3 GHz): the
#: thin-virtualization-layer overhead the paper measures as negligible.
INTERPOSE_CYCLES = 400

#: Syscalls whose first argument is a pid needing vpid→host translation.
_PID_ARG_SYSCALLS = {"waitpid", "kill"}
#: Syscalls whose first argument is a virtual timer id.
_TIMER_ARG_SYSCALLS = {"waittimer", "canceltimer"}


class Pod:
    """One process domain on one node."""

    def __init__(self, kernel: Kernel, pod_id: str, vip: str, vnet: Any) -> None:
        self.kernel = kernel
        self.id = pod_id
        #: the constant virtual address applications see.
        self.vip = vip
        self.vnet = vnet
        self.namespace = PidNamespace()
        #: the pod's file-system root lives on shared storage, so a
        #: migrated pod finds its files (the paper's shared-SAN assumption)
        self.chroot = f"/san/pods/{pod_id}"
        #: virtual-clock bias: vtime = engine.now + time_offset.
        self.time_offset = 0.0
        #: whether restart rebases the virtual clock (Section 5, optional).
        self.time_virtualization = True
        self.pids: set = set()
        self.suspended = False
        #: virtual timer-id namespace (same rationale as vpids: timer ids
        #: must stay constant across migration while kernel ids change).
        self._vtimer_to_real: Dict[int, int] = {}
        self._real_to_vtimer: Dict[int, int] = {}
        self._next_vtimer = 1
        #: exited-but-unreaped children: vpid -> exit code.  Zombies are
        #: namespace state, so they checkpoint and restore with the pod —
        #: a restored parent's waitpid must still collect the status.
        self.zombies: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, kernel: Kernel, pod_id: str, vip: str, vnet: Any) -> "Pod":
        """Create a pod on ``kernel``'s node and wire it into the system."""
        if pod_id in kernel.pods:
            raise PodError(f"pod {pod_id!r} already exists on {kernel.hostname}")
        pod = cls(kernel, pod_id, vip, vnet)
        kernel.pods[pod_id] = pod  # also what routes members' syscalls to _interpose
        # home the virtual address on this node
        stack = getattr(kernel, "netstack", None)
        if stack is not None:
            stack.nic.add_address(vip)
        vnet.place(vip, stack.primary_ip if stack is not None else vip)
        fs, inner = kernel.vfs.resolve(pod.chroot)
        ensure_dirs(fs, inner)
        return pod

    def destroy(self) -> None:
        """Kill members, release the virtual address, unhook interposition."""
        stack0 = getattr(self.kernel, "netstack", None)
        if stack0 is not None:
            # silence the pod's sockets first: nothing (FIN, retransmit)
            # may leak from a destroyed pod toward its restored peers
            stack0.abort_sockets_of(self.vip)
        device = getattr(self.kernel, "gm_device", None)
        if device is not None:
            device.abort_ports_of(self.vip)
        for pid in list(self.pids):
            try:
                self.kernel.send_signal(pid, SIGKILL)
            except NoSuchProcessError:
                pass
        stack = getattr(self.kernel, "netstack", None)
        if stack is not None and self.vip in stack.nic.addresses:
            stack.nic.drop_address(self.vip)
        if self.vnet.where(self.vip) is not None:
            self.vnet.remove(self.vip)
        self.kernel.pods.pop(self.id, None)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def adopt(self, proc: Process, vpid: Optional[int] = None) -> int:
        """Bring a process into the pod namespace.

        New processes get the next vpid; restored processes pass their
        checkpointed ``vpid`` to keep identifiers constant across
        migration — the property the namespace exists to provide.
        """
        proc.pod_id = self.id
        if vpid is None:
            proc.vpid = self.namespace.assign(proc.pid)
        else:
            self.namespace.rebind(vpid, proc.pid)
            proc.vpid = vpid
        self.pids.add(proc.pid)
        return proc.vpid

    def on_proc_exit(self, proc: Process) -> None:
        """Kernel callback when a member dies: it becomes a zombie until
        someone waits for it (or forever; pods are small)."""
        self.namespace.drop_host(proc.pid)
        self.pids.discard(proc.pid)
        if proc.vpid is not None and proc.exit_code != -9:
            self.zombies[proc.vpid] = proc.exit_code

    def note_zombie(self, vpid: int, exit_code: int) -> None:
        """Register a restored zombie, keeping vpid allocation above it."""
        self.zombies[int(vpid)] = int(exit_code)
        self.namespace._next_vpid = max(self.namespace._next_vpid, int(vpid) + 1)

    def processes(self) -> List[Process]:
        """Live member processes, ordered by vpid (stable for images)."""
        procs = [self.kernel.procs[pid] for pid in self.pids]
        return sorted(procs, key=lambda p: p.vpid or 0)

    # ------------------------------------------------------------------
    # syscall interposition
    # ------------------------------------------------------------------
    def _interpose(self, proc: Any, req: SyscallRequest) -> Tuple[SyscallRequest, int]:
        """Kernel callback on every syscall of a member process (the kernel
        looks the pod up by ``proc.pod_id``): translate virtual identifiers
        and return the request to run plus the cycles interposition costs."""
        if req.name in _PID_ARG_SYSCALLS and req.args:
            vpid = req.args[0]
            try:
                real = self.namespace.to_real(int(vpid))
            except NoSuchProcessError:
                if req.name == "waitpid" and int(vpid) in self.zombies:
                    # the child exited (possibly on another node, before a
                    # migration): deliver the preserved status
                    return (SyscallRequest("zombie_wait",
                                           (self.zombies[int(vpid)],), req.dst),
                            INTERPOSE_CYCLES)
                real = -1  # let the handler fail with ESRCH
            req = SyscallRequest(req.name, (real,) + tuple(req.args[1:]), req.dst)
        elif req.name in _TIMER_ARG_SYSCALLS and req.args:
            real_tid = self._vtimer_to_real.get(int(req.args[0]), -1)
            req = SyscallRequest(req.name, (real_tid,) + tuple(req.args[1:]), req.dst)
        return req, INTERPOSE_CYCLES

    def translate_result(self, proc: Any, syscall_name: str, value: Any) -> Any:
        """Map syscall results carrying real identifiers into the pod
        namespace (kernel callback at syscall completion)."""
        if syscall_name == "settimer" and isinstance(value, int) and value > 0:
            return self.bind_timer(value)
        return value

    def bind_timer(self, real_tid: int, vtid: Optional[int] = None) -> int:
        """Record a virtual↔real timer-id pair; returns the virtual id."""
        if vtid is None:
            vtid = self._next_vtimer
            self._next_vtimer += 1
        else:
            self._next_vtimer = max(self._next_vtimer, vtid + 1)
        self._vtimer_to_real[vtid] = real_tid
        self._real_to_vtimer[real_tid] = vtid
        return vtid

    def vtimer_of(self, real_tid: int) -> Optional[int]:
        """Reverse timer-id lookup (used by the checkpoint sweep)."""
        return self._real_to_vtimer.get(real_tid)

    # ------------------------------------------------------------------
    # freeze / thaw (used by the checkpoint Agent)
    # ------------------------------------------------------------------
    def suspend(self) -> None:
        """SIGSTOP every member — step 1 of the checkpoint algorithm."""
        for pid in sorted(self.pids):
            self.kernel.send_signal(pid, SIGSTOP)
        self.suspended = True

    def resume(self) -> None:
        """SIGCONT every member — the snapshot-case final step."""
        for pid in sorted(self.pids):
            self.kernel.send_signal(pid, SIGCONT)
        self.suspended = False

    def quiescent(self) -> bool:
        """True when no member can mutate state (all stopped/parked)."""
        for pid in self.pids:
            proc = self.kernel.procs[pid]
            if proc.state == RUNNING or proc.stop_requested:
                return False
            if proc.state == RUNNABLE and not proc.stopped:
                return False
            if proc.state == BLOCKED and not proc.stopped:
                return False
            # a dispatched-but-not-yet-run syscall handler will still
            # mutate kernel state (e.g. push bytes into the network
            # stack); capturing across that window splits the syscall's
            # effects between the image and the doomed source node
            if proc.syscall_dispatching:
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Pod({self.id!r} on {self.kernel.hostname}, vip={self.vip}, procs={len(self.pids)})"
