"""The per-node kernel: process table, syscall dispatch, signals, timers.

One :class:`Kernel` models one cluster node's operating system instance.
It owns the process table, the scheduler, the VFS, the timer table and
the syscall dispatch table.  Subsystems extend it at node-build time:
the network stack registers its socket syscalls, and a pod created on
the node *interposes* on the syscalls of its own processes — the paper's
"thin virtualization layer based on system call interposition" — which
may rewrite syscall arguments/results (namespace translation) and charges
extra cycles (the virtualization overhead measured in Figure 5).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import NoSuchProcessError, SyscallError, VosError
from ..sim.engine import Engine
from ..sim.tasks import Future
from .filesystem import VFS
from .memory import Memory
from .process import BLOCKED, DEAD, Process, RUNNABLE, SyscallRequest
from .program import Program, build_program
from .scheduler import Scheduler
from .signals import SIGCONT, SIGKILL, SIGSTOP
from .syscalls import BLOCK, Block, Complete, CompleteAfter, Errno, HostChannel
from .timers import TimerTable

#: Default CPU frequency — the paper's 3.06 GHz Xeon blades.
DEFAULT_HZ = 3.06e9
#: Default scheduler quantum (1 ms keeps SIGSTOP latency low).
DEFAULT_QUANTUM_S = 1e-3
#: Base syscall overhead in cycles (~0.65 µs at 3 GHz).
DEFAULT_SYSCALL_CYCLES = 2000

SyscallHandler = Callable[["Kernel", Any, Tuple[Any, ...], bool], Any]

#: What a handler may return, most frequent first.
_OUTCOMES = (Complete, Block, CompleteAfter)


class Kernel:
    """One node's operating system instance."""

    def __init__(
        self,
        engine: Engine,
        hostname: str,
        ncpus: int = 1,
        hz: float = DEFAULT_HZ,
        quantum_s: float = DEFAULT_QUANTUM_S,
        syscall_overhead_cycles: int = DEFAULT_SYSCALL_CYCLES,
        vfs: Optional[VFS] = None,
    ) -> None:
        self.engine = engine
        self.hostname = hostname
        self.hz = float(hz)
        self.ncpus = ncpus
        self.syscall_overhead_cycles = int(syscall_overhead_cycles)
        self.scheduler = Scheduler(self, ncpus, int(quantum_s * hz))
        self.vfs = vfs if vfs is not None else VFS()
        self.timers = TimerTable()
        self.procs: Dict[int, Process] = {}
        self._next_pid = 100
        self._next_host_pid = 10_000
        #: pod_id -> pod object (duck-typed; see repro.pod.pod.Pod).  A
        #: process's syscalls are interposed by ``pods[proc.pod_id]`` alone.
        self.pods: Dict[str, Any] = {}
        #: syscall name -> handler.
        self._handlers: Dict[str, SyscallHandler] = {}
        #: subsystem hooks to purge a process from wait queues on kill.
        self.wait_cancellers: List[Callable[[Any], None]] = []
        #: pid -> futures/process-waiters for waitpid.
        self._exit_waiters: Dict[int, List[Any]] = {}
        self.nic: Optional[Any] = None  # attached by the network layer
        install_core_syscalls(self)
        engine.blocked_probes.append(self._blocked_probe)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register_syscall(self, name: str, handler: SyscallHandler) -> None:
        """Install (or override) the handler for syscall ``name``."""
        self._handlers[name] = handler

    # ------------------------------------------------------------------
    # process lifecycle
    # ------------------------------------------------------------------
    def alloc_pid(self) -> int:
        """Allocate a fresh host pid."""
        pid = self._next_pid
        self._next_pid += 1
        return pid

    def spawn(
        self,
        prog: Program,
        regs: Optional[Dict[str, Any]] = None,
        memory: Optional[Memory] = None,
        pod_id: Optional[str] = None,
    ) -> Process:
        """Create and enqueue a new process running ``prog``."""
        proc = Process(self.alloc_pid(), prog, regs=regs, memory=memory)
        proc.pod_id = pod_id
        self.procs[proc.pid] = proc
        if pod_id is not None:
            pod = self.pods.get(pod_id)
            if pod is None:
                raise VosError(f"unknown pod {pod_id!r} on {self.hostname}")
            pod.adopt(proc)
        self.scheduler.enqueue(proc)
        return proc

    def adopt_process(self, proc: Process, enqueue: bool = False) -> None:
        """Insert a restored process into the table (restart path)."""
        if proc.pid in self.procs:
            raise VosError(f"pid {proc.pid} already present on {self.hostname}")
        self.procs[proc.pid] = proc
        if enqueue:
            self.scheduler.enqueue(proc)

    def get_proc(self, pid: int) -> Process:
        """Look up a live process by host pid."""
        proc = self.procs.get(pid)
        if proc is None or proc.state == DEAD:
            raise NoSuchProcessError(f"pid {pid} on {self.hostname}")
        return proc

    def exit_process(self, proc: Process, code: int) -> None:
        """Terminate ``proc``: close fds, fire waiters, notify its pod."""
        if proc.state == DEAD:
            return
        proc.state = DEAD
        proc.exit_code = code
        proc.exit_time = self.engine.now
        for canceller in self.wait_cancellers:
            canceller(proc)
        for fd in sorted(proc.fds):
            self._release_fd(proc, fd)
        proc.fds.clear()
        for timer in self.timers.owned_by({proc.pid}):
            if timer.handle is not None:
                timer.handle.cancel()
            self.timers.remove(timer.tid)
        for waiter in self._exit_waiters.pop(proc.pid, []):
            self.complete_syscall(waiter, code)
        if proc.pod_id is not None:
            pod = self.pods.get(proc.pod_id)
            if pod is not None:
                pod.on_proc_exit(proc)

    def _release_fd(self, proc: Any, fd: int) -> None:
        obj = proc.fds.get(fd)
        if obj is None:
            return
        release = getattr(obj, "release", None)
        if release is not None:
            # Sockets route through their dispatch vector so checkpoint
            # interposition (the alternate receive queue) sees the close.
            release(self, proc)
        del proc.fds[fd]

    # ------------------------------------------------------------------
    # scheduling callbacks
    # ------------------------------------------------------------------
    def on_slice_end(self, proc: Process, reason: str, payload: Any) -> None:
        """Scheduler callback after a slice's simulated time elapsed."""
        if proc.state == DEAD:
            return
        if proc.stop_requested:
            proc.stopped = True
            proc.stop_requested = False
        if reason == "halt":
            self.exit_process(proc, int(payload))
            return
        if reason == "syscall":
            self.do_syscall(proc, payload)
            return
        # quantum expired
        proc.state = RUNNABLE
        self.scheduler.enqueue(proc)

    # ------------------------------------------------------------------
    # syscall dispatch
    # ------------------------------------------------------------------
    def do_syscall(self, proc: Any, req: SyscallRequest, restarted: bool = False) -> None:
        """Charge overhead, let the caller's pod interpose, then execute
        the handler.  Host channels belong to no pod and are not interposed.

        ``blocked_on`` keeps the *pre-interposition* request: namespace
        translations (vpid→pid, virtual timer ids) are recomputed when a
        restored process re-issues the syscall on a different node, where
        the real identifiers differ.
        """
        orig = req
        extra = 0
        pod = self.pods.get(proc.pod_id)
        if pod is not None:
            req, extra = pod._interpose(proc, req)
        overhead = (self.syscall_overhead_cycles + extra) / self.hz
        proc.state = BLOCKED
        proc.blocked_on = orig
        proc.syscall_dispatching = True
        self.engine.schedule(overhead, self._run_handler, proc, req, restarted)

    def _run_handler(self, proc: Any, req: SyscallRequest, restarted: bool) -> None:
        # the handler's side effects land now (or it parks the process in
        # a re-issuable blocked state), so the dispatch window is over
        proc.syscall_dispatching = False
        if getattr(proc, "state", None) == DEAD:
            return
        handler = self._handlers.get(req.name)
        if handler is None:
            self.complete_syscall(proc, Errno("ENOSYS", req.name))
            return
        try:
            outcome = handler(self, proc, req.args, restarted)
        except SyscallError as err:
            self.complete_syscall(proc, Errno(err.errno, str(err)))
            return
        # the three outcome classes themselves are what handlers return;
        # a subclass is resolved to the one it specialises
        kind = outcome.__class__
        if kind not in _OUTCOMES:
            kind = next((base for base in _OUTCOMES if isinstance(outcome, base)), None)
            if kind is None:
                raise VosError(f"handler for {req.name!r} returned {outcome!r}")
        if kind is Complete:
            self.complete_syscall(proc, outcome.value)
        elif kind is CompleteAfter:
            self.engine.schedule(outcome.delay, self.complete_syscall, proc, outcome.value)
        # Block: the handler parked the proc and will complete later

    def complete_syscall(self, proc: Any, value: Any) -> None:
        """Deliver a syscall result, honoring SIGSTOP parking."""
        if proc.__class__ is not Process:
            # a host channel, which has no ``state`` (or a Process subclass)
            if getattr(proc, "state", None) == DEAD:
                return
            if isinstance(proc, HostChannel):
                fut, proc.waiting = proc.waiting, None
                proc.blocked_on = None
                if fut is not None and not fut.done:
                    fut.set_result(value)
                return
        elif proc.state == DEAD:
            return
        req = proc.blocked_on
        if req is None:
            return  # duplicate completion (e.g. racing cancel)
        dst = req.dst
        proc.blocked_on = None
        # pods translate results carrying real identifiers back into the
        # virtual namespace (e.g. timer ids)
        if proc.pod_id is not None:
            pod = self.pods.get(proc.pod_id)
            if pod is not None:
                value = pod.translate_result(proc, req.name, value)
        if proc.stopped:
            proc.pending_result = (dst, value)
            proc.state = RUNNABLE
            return
        if dst is not None:
            proc.regs[dst] = value
        proc.state = RUNNABLE
        self.scheduler.enqueue(proc)

    # ------------------------------------------------------------------
    # host task interface
    # ------------------------------------------------------------------
    def host_channel(self, name: str = "host") -> HostChannel:
        """Create a host syscall channel (one in-flight call at a time)."""
        chan = HostChannel(self._next_host_pid, name)
        self._next_host_pid += 1
        return chan

    def host_call(self, chan: HostChannel, name: str, *args: Any) -> Future:
        """Issue syscall ``name`` from a host task; yields the result.

        Raises if the channel already has an in-flight call — host code
        needing concurrency opens more channels (e.g. the restart Agent's
        two "threads", one accepting and one connecting).
        """
        if chan.waiting is not None:
            raise VosError(f"host channel {chan.name!r} already in a syscall")
        fut = Future(f"{chan.name}:{name}")
        chan.waiting = fut
        self.do_syscall(chan, SyscallRequest(name, args, None))
        return fut

    # ------------------------------------------------------------------
    # signals
    # ------------------------------------------------------------------
    def send_signal(self, pid: int, sig: str) -> None:
        """Deliver a signal to a process by host pid."""
        proc = self.get_proc(pid)
        if sig == SIGKILL:
            self.scheduler.preempt_burn(proc)
            self.exit_process(proc, -9)
            proc.keep_exit_record()
        elif sig == SIGSTOP:
            if proc.state == "running":
                # a pure-compute burn can be preempted exactly; an
                # interpreter slice finishes first (boundary delivery)
                if self.scheduler.preempt_burn(proc):
                    proc.state = RUNNABLE
                    proc.stopped = True
                else:
                    proc.stop_requested = True
            else:
                proc.stopped = True
        elif sig == SIGCONT:
            if not proc.stopped and not proc.stop_requested:
                return
            proc.stop_requested = False
            proc.stopped = False
            if proc.pending_result is not None:
                dst, value = proc.pending_result
                proc.pending_result = None
                if dst is not None:
                    proc.regs[dst] = value
                proc.state = RUNNABLE
            if proc.state == RUNNABLE:
                self.scheduler.enqueue(proc)
        else:
            raise VosError(f"unknown signal {sig!r}")

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    def vnow(self, proc: Any) -> float:
        """Virtual time as seen by ``proc`` (pod clock offset applied)."""
        offset = 0.0
        if getattr(proc, "pod_id", None) is not None:
            pod = self.pods.get(proc.pod_id)
            if pod is not None:
                offset = pod.time_offset
        return self.engine.now + offset

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def _blocked_probe(self) -> List[str]:
        stuck = []
        for proc in self.procs.values():
            if proc.state == BLOCKED and not proc.stopped:
                req = proc.blocked_on.name if proc.blocked_on else "?"
                stuck.append(f"{self.hostname}/pid{proc.pid}:{req}")
        return stuck

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Kernel({self.hostname!r}, procs={len(self.procs)})"


# ---------------------------------------------------------------------------
# core syscall handlers (process / time / fs)
# ---------------------------------------------------------------------------


def install_core_syscalls(kernel: Kernel) -> None:
    """Register the process, time, timer and file-system syscalls."""
    for name, handler in _CORE_HANDLERS.items():
        kernel.register_syscall(name, handler)


def _sys_getpid(kernel: Kernel, proc: Any, args: Tuple, restarted: bool):
    return Complete(proc.vpid if getattr(proc, "vpid", None) is not None else proc.pid)


def _sys_gettime(kernel: Kernel, proc: Any, args: Tuple, restarted: bool):
    return Complete(kernel.vnow(proc))

def _sys_gethostname(kernel: Kernel, proc: Any, args: Tuple, restarted: bool):
    return Complete(kernel.hostname)


def _sys_spawn(kernel: Kernel, proc: Any, args: Tuple, restarted: bool):
    prog_name, params, regs = args
    try:
        # one shared Program per (name, params): only the first exec builds
        prog = build_program(prog_name, **dict(params))
    except VosError as err:
        # exec of a nonexistent/unbuildable program is a caller error,
        # not a kernel fault
        raise SyscallError("ENOENT", str(err))
    child = kernel.spawn(prog, regs=dict(regs), pod_id=getattr(proc, "pod_id", None))
    return Complete(child.vpid if child.vpid is not None else child.pid)


def _sys_waitpid(kernel: Kernel, proc: Any, args: Tuple, restarted: bool):
    (pid,) = args
    try:
        child = kernel.get_proc(pid)
    except NoSuchProcessError:
        # Already dead and reaped — look for a recorded corpse.
        corpse = kernel.procs.get(pid)
        if corpse is not None and corpse.state == DEAD:
            return Complete(corpse.exit_code)
        raise SyscallError("ESRCH", f"pid {pid}")
    if child.state == DEAD:
        return Complete(child.exit_code)
    kernel._exit_waiters.setdefault(pid, []).append(proc)
    return BLOCK


def _sys_zombie_wait(kernel: Kernel, proc: Any, args: Tuple, restarted: bool):
    """waitpid on a preserved zombie: the status was recorded in the pod
    namespace (see Pod.zombies); deliver it immediately."""
    (exit_code,) = args
    return Complete(int(exit_code))


def _sys_kill(kernel: Kernel, proc: Any, args: Tuple, restarted: bool):
    pid, sig = args
    try:
        kernel.send_signal(pid, sig)
    except NoSuchProcessError:
        raise SyscallError("ESRCH", f"pid {pid}")
    return Complete(0)


def _sys_sleep(kernel: Kernel, proc: Any, args: Tuple, restarted: bool):
    (duration,) = args
    vdeadline = kernel.vnow(proc) + float(duration)
    # Canonicalize the blocked record so a checkpoint taken mid-sleep
    # resumes with the *remaining* time, not the full duration.
    proc.blocked_on = SyscallRequest("sleep_until", (vdeadline,), proc.blocked_on.dst)
    return CompleteAfter(float(duration), 0)


def _sys_sleep_until(kernel: Kernel, proc: Any, args: Tuple, restarted: bool):
    (vdeadline,) = args
    remaining = max(0.0, float(vdeadline) - kernel.vnow(proc))
    return CompleteAfter(remaining, 0)


def _sys_settimer(kernel: Kernel, proc: Any, args: Tuple, restarted: bool):
    (delay,) = args
    vexpiry = kernel.vnow(proc) + float(delay)
    timer = kernel.timers.create(proc.pid, vexpiry)
    timer.handle = kernel.engine.schedule(float(delay), _fire_timer, kernel, timer.tid)
    return Complete(timer.tid)


def _fire_timer(kernel: Kernel, tid: int) -> None:
    timer = kernel.timers.maybe_get(tid)
    if timer is None:
        return
    timer.fired = True
    timer.handle = None
    if timer.waiter is not None:
        waiter, timer.waiter = timer.waiter, None
        kernel.complete_syscall(waiter, True)


def _sys_waittimer(kernel: Kernel, proc: Any, args: Tuple, restarted: bool):
    (tid,) = args
    timer = kernel.timers.maybe_get(tid)
    if timer is None:
        raise SyscallError("EINVAL", f"timer {tid}")
    if timer.fired:
        return Complete(True)
    timer.waiter = proc
    return BLOCK


def _sys_canceltimer(kernel: Kernel, proc: Any, args: Tuple, restarted: bool):
    (tid,) = args
    timer = kernel.timers.maybe_get(tid)
    if timer is not None:
        if timer.handle is not None:
            timer.handle.cancel()
        if timer.waiter is not None:
            kernel.complete_syscall(timer.waiter, False)
        kernel.timers.remove(tid)
    return Complete(0)


def _chroot_of(kernel: Kernel, proc: Any) -> str:
    pod_id = getattr(proc, "pod_id", None)
    if pod_id is None:
        return "/"
    pod = kernel.pods.get(pod_id)
    return pod.chroot if pod is not None else "/"


def _alloc_fd(proc: Any, obj: Any) -> int:
    fd = proc.next_fd
    proc.next_fd += 1
    proc.fds[fd] = obj
    return fd


def _sys_open(kernel: Kernel, proc: Any, args: Tuple, restarted: bool):
    path, mode = args
    handle = kernel.vfs.open(path, mode, chroot=_chroot_of(kernel, proc))
    return Complete(_alloc_fd(proc, handle))


def _get_fd(proc: Any, fd: int) -> Any:
    obj = proc.fds.get(fd)
    if obj is None:
        raise SyscallError("EBADF", f"fd {fd}")
    return obj


def _sys_read(kernel: Kernel, proc: Any, args: Tuple, restarted: bool):
    fd, n = args
    obj = _get_fd(proc, fd)
    if getattr(obj, "kind", None) == "socket":
        # read(2) on a socket is recv with no flags.
        return kernel._handlers["recv"](kernel, proc, (fd, n, 0), restarted)
    data = obj.read(int(n))
    return CompleteAfter(obj.fs.transfer_delay(len(data)), data)


def _sys_write(kernel: Kernel, proc: Any, args: Tuple, restarted: bool):
    fd, data = args
    obj = _get_fd(proc, fd)
    if getattr(obj, "kind", None) == "socket":
        return kernel._handlers["send"](kernel, proc, (fd, data, 0), restarted)
    count = obj.write(bytes(data))
    return CompleteAfter(obj.fs.transfer_delay(count), count)


def _sys_close(kernel: Kernel, proc: Any, args: Tuple, restarted: bool):
    (fd,) = args
    _get_fd(proc, fd)  # EBADF check
    kernel._release_fd(proc, fd)
    return Complete(0)


def _sys_mkdir(kernel: Kernel, proc: Any, args: Tuple, restarted: bool):
    (path,) = args
    fs, inner = kernel.vfs.resolve(path, chroot=_chroot_of(kernel, proc))
    fs.mkdir(inner)
    return Complete(0)


def _sys_unlink(kernel: Kernel, proc: Any, args: Tuple, restarted: bool):
    (path,) = args
    fs, inner = kernel.vfs.resolve(path, chroot=_chroot_of(kernel, proc))
    fs.unlink(inner)
    return Complete(0)


def _sys_listdir(kernel: Kernel, proc: Any, args: Tuple, restarted: bool):
    (path,) = args
    fs, inner = kernel.vfs.resolve(path, chroot=_chroot_of(kernel, proc))
    return Complete(fs.listdir(inner))


_CORE_HANDLERS: Dict[str, SyscallHandler] = {
    "getpid": _sys_getpid,
    "gettime": _sys_gettime,
    "gethostname": _sys_gethostname,
    "spawn": _sys_spawn,
    "waitpid": _sys_waitpid,
    "zombie_wait": _sys_zombie_wait,
    "kill": _sys_kill,
    "sleep": _sys_sleep,
    "sleep_until": _sys_sleep_until,
    "settimer": _sys_settimer,
    "waittimer": _sys_waittimer,
    "canceltimer": _sys_canceltimer,
    "open": _sys_open,
    "read": _sys_read,
    "write": _sys_write,
    "close": _sys_close,
    "mkdir": _sys_mkdir,
    "unlink": _sys_unlink,
    "listdir": _sys_listdir,
}
