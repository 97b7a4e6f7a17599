"""The scheduler and the syscall hand-off as they stood before the direct
dispatch, frozen verbatim as a test-only oracle.

``Scheduler`` is ``repro.vos.scheduler.Scheduler`` exactly as the parent
commit shipped it: every ``enqueue`` appends to the run queue and kicks,
every slice end kicks, every interpreter slice calls ``_charge_dirty``.
``_run_handler`` / ``complete_syscall`` are the parent's
``Kernel`` methods (the ``isinstance`` chain over the handler's outcome,
``getattr`` probes on the caller) as functions of their old ``self``.
:func:`install` swaps them in through ``monkeypatch`` of
``repro.vos.kernel.Scheduler`` and the two ``Kernel`` attributes.

``tests/vos/test_scheduler_differential.py`` drives the same processes
through both and requires the same dispatch log — who ran on which CPU,
when, and why each slice ended — and the same cycle accounts.  Do not
"fix" anything here.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional, TYPE_CHECKING

from repro.errors import SyscallError, VosError
from repro.vos import kernel as live_kernel
from repro.vos.process import DEAD, Process, RUNNABLE, RUNNING, SyscallRequest
from repro.vos.syscalls import Block, Complete, CompleteAfter, Errno, HostChannel

if TYPE_CHECKING:  # pragma: no cover
    from repro.vos.kernel import Kernel

# ---------------------------------------------------------------------------
# repro/vos/scheduler.py at the parent commit
# ---------------------------------------------------------------------------

#: Longest pure-compute burn executed as a single event when the CPU has
#: no competition (seconds * hz set at scheduler construction).
BURN_SLICE_S = 0.25


class Scheduler:
    """Run queue + CPUs for one :class:`~repro.vos.kernel.Kernel`.

    Two kinds of slices:

    * *interpreter slices* — up to one quantum of instructions, executed
      eagerly (never preempted mid-slice; signals land at the boundary);
    * *burn slices* — when a process's ``compute_remaining`` is pending,
      cycles are consumed as a single long event (up to
      :data:`BURN_SLICE_S` when the run queue is empty).  Burning has no
      side effects, so a burn **can** be preempted exactly: a signal
      cancels the event and refunds the unburned cycles.  This keeps
      event counts low for compute-bound workloads without inflating
      SIGSTOP latency.
    """

    def __init__(self, kernel: "Kernel", ncpus: int, quantum_cycles: int) -> None:
        self.kernel = kernel
        self.ncpus = ncpus
        self.quantum_cycles = int(quantum_cycles)
        if self.quantum_cycles < 1:
            # a zero-cycle slice executes nothing, so it would be re-dispatched
            # at the same simulated instant forever
            raise VosError(f"scheduler quantum must be at least one cycle, got {quantum_cycles}")
        self.runq: Deque[Process] = deque()
        self._queued: set = set()
        #: CPU slots; each holds the pid it is running or None when idle.
        self.cpus: List[Optional[int]] = [None] * ncpus
        #: Total busy cycles per CPU (utilization accounting).
        self.busy_cycles: List[int] = [0] * ncpus
        #: pid -> (cpu, event handle, start time, burn cycles) for
        #: in-flight burn slices (preemption bookkeeping).
        self._burns: dict = {}

    # ------------------------------------------------------------------
    def enqueue(self, proc: Process) -> None:
        """Make ``proc`` eligible to run (idempotent)."""
        if proc.state != RUNNABLE or proc.stopped or proc.pid in self._queued:
            return
        self.runq.append(proc)
        self._queued.add(proc.pid)
        self.kick()

    def kick(self) -> None:
        """Dispatch queued processes onto idle CPUs."""
        while self.runq and None in self.cpus:
            proc = self.runq.popleft()
            self._queued.discard(proc.pid)
            # Stale entries: the process may have been stopped or killed
            # while waiting in the queue.
            if proc.state != RUNNABLE or proc.stopped:
                continue
            cpu = self.cpus.index(None)
            self._dispatch(cpu, proc)

    def _dispatch(self, cpu: int, proc: Process) -> None:
        proc.state = RUNNING
        self.cpus[cpu] = proc.pid
        if proc.compute_remaining > 0:
            cap = int(BURN_SLICE_S * self.kernel.hz) if not self.runq else self.quantum_cycles
            burn = min(proc.compute_remaining, max(cap, self.quantum_cycles))
            handle = self.kernel.engine.schedule(
                burn / self.kernel.hz, self._burn_done, cpu, proc, burn)
            self._burns[proc.pid] = (cpu, handle, self.kernel.engine.now, burn)
            return
        used, reason, payload = proc.step(self.quantum_cycles)
        self.busy_cycles[cpu] += used
        self._charge_dirty(proc, used)
        delay = used / self.kernel.hz
        self.kernel.engine.schedule(delay, self._slice_done, cpu, proc, reason, payload)

    def _charge_dirty(self, proc: Process, cycles: int) -> None:
        """Account memory writes for ``cycles`` of execution.

        Pure bookkeeping against the process's dirty counters — consumes
        no simulated time, so dirty tracking never perturbs schedules.
        """
        rate = proc.program.dirty_rate
        if rate > 0.0 and cycles > 0:
            proc.memory.touch(int(cycles * rate / self.kernel.hz))

    def _burn_done(self, cpu: int, proc: Process, burn: int) -> None:
        self._burns.pop(proc.pid, None)
        proc.compute_remaining -= burn
        proc.cpu_cycles += burn
        self.busy_cycles[cpu] += burn
        self._charge_dirty(proc, burn)
        self._slice_done(cpu, proc, "quantum", None)

    def preempt_burn(self, proc: Process) -> bool:
        """Interrupt an in-flight burn slice exactly at the current time.

        Returns True when the process was burning (it is off-CPU with its
        cycle accounts settled when this returns).
        """
        entry = self._burns.pop(proc.pid, None)
        if entry is None:
            return False
        cpu, handle, start, burn = entry
        handle.cancel()
        elapsed = int(round((self.kernel.engine.now - start) * self.kernel.hz))
        consumed = min(burn, max(0, elapsed))
        proc.compute_remaining -= consumed
        proc.cpu_cycles += consumed
        self.busy_cycles[cpu] += consumed
        self._charge_dirty(proc, consumed)
        self.cpus[cpu] = None
        self.kick()
        return True

    def _slice_done(self, cpu: int, proc: Process, reason: str, payload: object) -> None:
        self.cpus[cpu] = None
        self.kernel.on_slice_end(proc, reason, payload)
        self.kick()

    # ------------------------------------------------------------------
    @property
    def idle(self) -> bool:
        """True when no CPU is running anything and the queue is empty."""
        return not self.runq and all(slot is None for slot in self.cpus)


# ---------------------------------------------------------------------------
# Kernel._run_handler / Kernel.complete_syscall at the parent commit
# ---------------------------------------------------------------------------


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
    if isinstance(outcome, Complete):
        self.complete_syscall(proc, outcome.value)
    elif isinstance(outcome, CompleteAfter):
        self.engine.schedule(outcome.delay, self.complete_syscall, proc, outcome.value)
    elif isinstance(outcome, Block):
        pass  # handler parked the proc and will complete later
    else:
        raise VosError(f"handler for {req.name!r} returned {outcome!r}")


def complete_syscall(self, proc: Any, value: Any) -> None:
    """Deliver a syscall result, honoring SIGSTOP parking."""
    if getattr(proc, "state", None) == DEAD:
        return
    if isinstance(proc, HostChannel):
        fut, proc.waiting = proc.waiting, None
        proc.blocked_on = None
        if fut is not None and not fut.done:
            fut.set_result(value)
        return
    if proc.blocked_on is None:
        return  # duplicate completion (e.g. racing cancel)
    dst = proc.blocked_on.dst
    name = proc.blocked_on.name
    proc.blocked_on = None
    # pods translate results carrying real identifiers back into the
    # virtual namespace (e.g. timer ids)
    if getattr(proc, "pod_id", None) is not None:
        pod = self.pods.get(proc.pod_id)
        if pod is not None:
            value = pod.translate_result(proc, name, value)
    if proc.stopped:
        proc.pending_result = (dst, value)
        proc.state = RUNNABLE
        return
    if dst is not None:
        proc.regs[dst] = value
    proc.state = RUNNABLE
    self.scheduler.enqueue(proc)


def install(monkeypatch) -> None:
    """Make every kernel created from now on schedule and complete
    syscalls the parent's way."""
    monkeypatch.setattr(live_kernel, "Scheduler", Scheduler)
    monkeypatch.setattr(live_kernel.Kernel, "_run_handler", _run_handler)
    monkeypatch.setattr(live_kernel.Kernel, "complete_syscall", complete_syscall)
