"""Process images and the instruction interpreter.

A :class:`Process` is everything the kernel knows about one running
program: program identity, program counter, register file, call stack,
accounted memory, file-descriptor table, signal/stop state and the
record of an in-flight blocking syscall.  Checkpointing a process is
serializing this image; the program itself never cooperates.

The interpreter (:meth:`Process.step`) executes instructions against a
cycle *budget* (the scheduler quantum).  Large ``compute`` instructions
are split across quanta via :attr:`Process.compute_remaining`, which is
also part of the checkpointed image — a process frozen mid-computation
resumes exactly where it left off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..errors import VosError
from .memory import Memory
from .program import Imm, OPCODES, Program, build_program

# Process lifecycle states.
RUNNABLE = "runnable"
RUNNING = "running"
BLOCKED = "blocked"
DEAD = "dead"

# Opcodes the interpreter dispatches on.
_OP = OPCODES["op"]
_BRANCH = OPCODES["branch"]
_SYSCALL = OPCODES["syscall"]
_JUMP = OPCODES["jump"]
_COMPUTE = OPCODES["compute"]
_ALLOC = OPCODES["alloc"]
_FREE = OPCODES["free"]
_CALL = OPCODES["call"]
_RET = OPCODES["ret"]

# Reasons a scheduler slice can end.
REASON_QUANTUM = "quantum"
REASON_SYSCALL = "syscall"
REASON_HALT = "halt"


@dataclass
class SyscallRequest:
    """A trap raised by the interpreter for the kernel to service.

    ``args`` are fully resolved values (not operands), so the record is
    serializable — which is exactly what lets a checkpoint capture a
    process blocked inside a syscall and re-issue it on restart, the
    moral equivalent of Linux's ``ERESTARTSYS``.
    """

    name: str
    args: Tuple[Any, ...]
    dst: Optional[str]

    def to_image(self) -> Dict[str, Any]:
        """Serializable form."""
        return {"name": self.name, "args": list(self.args), "dst": self.dst}

    @classmethod
    def from_image(cls, image: Dict[str, Any]) -> "SyscallRequest":
        """Rebuild from :meth:`to_image` output."""
        return cls(image["name"], tuple(image["args"]), image["dst"])


class Process:
    """One simulated process: pure data plus an interpreter.

    Created only by the kernel (:meth:`repro.vos.kernel.Kernel.spawn`).
    """

    def __init__(self, pid: int, prog: Program, regs: Optional[Dict[str, Any]] = None,
                 memory: Optional[Memory] = None) -> None:
        self.pid = pid
        self.program = prog
        self.pc = 0
        self.regs: Dict[str, Any] = dict(regs or {})
        self.callstack: List[int] = []
        self.memory = memory if memory is not None else Memory(text=64 * 1024, stack=128 * 1024)
        self.compute_remaining = 0
        self.state = RUNNABLE
        #: SIGSTOP semantics: an out-of-band freeze orthogonal to ``state``;
        #: a stopped process stays off the run queue even when its blocking
        #: syscall completes (the wakeup is parked in ``pending_result``).
        self.stopped = False
        self.stop_requested = False
        self.exit_code: Optional[int] = None
        #: The in-flight blocking syscall, when ``state == BLOCKED``.
        self.blocked_on: Optional[SyscallRequest] = None
        #: A syscall result that arrived while the process was stopped.
        self.pending_result: Optional[Tuple[Optional[str], Any]] = None
        #: True between syscall dispatch and the handler actually running
        #: (the syscall-overhead window).  A checkpoint must not cut here:
        #: the handler's side effects (e.g. a send's bytes entering the
        #: network stack) have not happened yet, so the pod is not
        #: quiescent.  Never serialized — quiesce drains it first.
        self.syscall_dispatching = False
        #: fd -> kernel object (socket, open file).  Owned by the kernel;
        #: reconstructed on restart by the checkpoint machinery.
        self.fds: Dict[int, Any] = {}
        self.next_fd = 3  # 0/1/2 notionally reserved
        # accounting
        self.cpu_cycles = 0
        self.syscalls_made = 0
        #: simulated time of death (set by the kernel; harness metric).
        self.exit_time: Optional[float] = None
        # identity within a pod namespace (set by the pod layer)
        self.pod_id: Optional[str] = None
        self.vpid: Optional[int] = None

    # ------------------------------------------------------------------
    # interpreter
    # ------------------------------------------------------------------
    def step(self, budget_cycles: int) -> Tuple[int, str, Any]:
        """Run up to ``budget_cycles`` of instructions.

        Returns ``(cycles_used, reason, payload)`` where reason is one of
        ``quantum`` (budget exhausted), ``syscall`` (payload is the
        :class:`SyscallRequest`) or ``halt`` (payload is the exit code).

        The loop keeps ``pc`` and the cycle count in locals and writes
        ``self.pc`` back on every exit, exceptions included; instructions
        arrive decoded (opcode, base cost, operands known to be ``str`` or
        :class:`Imm` — see :class:`~repro.vos.program.Instr`).
        """
        if self.state == DEAD:
            raise VosError(f"stepping dead pid {self.pid}")
        used = 0
        if self.compute_remaining > 0:
            used = min(self.compute_remaining, budget_cycles)
            self.compute_remaining -= used
            if self.compute_remaining > 0:
                self.cpu_cycles += used
                return used, REASON_QUANTUM, None
        instrs = self.program.instrs
        end = len(instrs)
        regs = self.regs
        pc = self.pc
        reason = REASON_QUANTUM
        payload = None
        try:
            while used < budget_cycles:
                if pc >= end:
                    # Falling off the end is an implicit clean exit.
                    reason, payload = REASON_HALT, 0
                    break
                instr = instrs[pc]
                base = instr.base
                # Never split a non-compute instruction across quanta, but always
                # make progress: the first instruction of a slice runs regardless.
                if used > 0 and used + base > budget_cycles:
                    break
                used += base
                opcode = instr.opcode
                if opcode == _OP or opcode == _SYSCALL:
                    values = []
                    try:
                        for src in instr.srcs:
                            values.append(src.value if src.__class__ is Imm else regs[src])
                    except KeyError:
                        raise self._unset_register(pc, src) from None
                    if opcode == _SYSCALL:
                        pc += 1
                        self.syscalls_made += 1
                        reason = REASON_SYSCALL
                        payload = SyscallRequest(instr.name, tuple(values), instr.dst)
                        break
                    result = instr.fn(*values)  # a raising fn leaves pc on this instruction
                    if instr.dst is not None:
                        regs[instr.dst] = result
                    pc += 1
                elif opcode == _BRANCH:
                    src = instr.srcs[0]
                    try:
                        value = src.value if src.__class__ is Imm else regs[src]
                    except KeyError:
                        raise self._unset_register(pc, src) from None
                    pc = instr.target if bool(value) == instr.sense else pc + 1
                elif opcode == _JUMP:
                    pc = instr.target
                elif opcode == _CALL:
                    self.callstack.append(pc + 1)
                    pc = instr.target
                elif opcode == _RET:
                    if not self.callstack:
                        raise VosError(f"pid {self.pid}: ret with empty call stack")
                    pc = self.callstack.pop()
                else:  # compute, alloc, free, halt: one integer operand
                    src = instr.srcs[0]
                    try:
                        value = int(src.value if src.__class__ is Imm else regs[src])
                    except KeyError:
                        raise self._unset_register(pc, src) from None
                    if opcode == _COMPUTE:
                        if value < 0:
                            raise VosError(f"pid {self.pid}: negative compute {value}")
                        pc += 1
                        if value > 0:
                            # Burn what the budget allows now.  ``used`` may
                            # already exceed it (the first instruction of a slice
                            # always runs); ``take`` is then negative and hands
                            # the overshoot back to the pending burn.
                            take = min(value, budget_cycles - used)
                            used += take
                            if value > take:
                                self.compute_remaining = value - take
                                break
                    elif opcode == _ALLOC:
                        self.memory.alloc(value, instr.name)
                        pc += 1
                    elif opcode == _FREE:
                        self.memory.free(value, instr.name)
                        pc += 1
                    else:
                        reason, payload = REASON_HALT, value
                        break
        finally:
            self.pc = pc
        self.cpu_cycles += used
        return used, reason, payload

    def _unset_register(self, pc: int, reg: str) -> VosError:
        return VosError(f"pid {self.pid} ({self.program.name}) pc={pc}: unset register {reg!r}")

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def to_image(self) -> Dict[str, Any]:
        """Serializable process image, *excluding* the fd table contents.

        File descriptors reference kernel objects (sockets, files) whose
        state is captured by the dedicated checkpoint passes; the image
        records only the descriptor numbers and ``next_fd`` so the table
        shape survives.
        """
        return {
            "program_name": self.program.name,
            "program_params": dict(self.program.params),
            "pc": self.pc,
            "regs": dict(self.regs),
            "callstack": list(self.callstack),
            "memory": self.memory.to_image(),
            "compute_remaining": self.compute_remaining,
            "state": self.state,
            "stopped": False,  # images are restored in the resumed state
            "exit_code": self.exit_code,
            "blocked_on": self.blocked_on.to_image() if self.blocked_on else None,
            "pending_result": list(self.pending_result) if self.pending_result else None,
            "fd_numbers": sorted(self.fds),
            "next_fd": self.next_fd,
            "cpu_cycles": self.cpu_cycles,
            "syscalls_made": self.syscalls_made,
            "vpid": self.vpid,
        }

    @classmethod
    def from_image(cls, pid: int, image: Dict[str, Any]) -> "Process":
        """Rebuild a process from an image; its program is looked up by
        ``(name, params)`` and shared with every process that runs it."""
        prog = build_program(image["program_name"], **image["program_params"])
        proc = cls(pid, prog, regs=dict(image["regs"]), memory=Memory.from_image(image["memory"]))
        proc.pc = int(image["pc"])
        proc.callstack = [int(x) for x in image["callstack"]]
        proc.compute_remaining = int(image["compute_remaining"])
        proc.state = image["state"] if image["state"] != RUNNING else RUNNABLE
        proc.exit_code = image["exit_code"]
        if image["blocked_on"] is not None:
            proc.blocked_on = SyscallRequest.from_image(image["blocked_on"])
        if image.get("pending_result") is not None:
            dst, value = image["pending_result"]
            proc.pending_result = (dst, value)
        proc.next_fd = int(image["next_fd"])
        proc.cpu_cycles = int(image["cpu_cycles"])
        proc.syscalls_made = int(image["syscalls_made"])
        proc.vpid = image.get("vpid")
        return proc

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Process(pid={self.pid}, prog={self.program.name!r}, pc={self.pc}, "
            f"state={self.state}{', stopped' if self.stopped else ''})"
        )
