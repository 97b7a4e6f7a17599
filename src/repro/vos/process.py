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
resumes exactly where it left off.  Straight-line runs of a program are
compiled once per entry pc into one Python function each
(:func:`_compile_block`), a cache of what the per-instruction loop does.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import CodeType, FunctionType
from typing import Any, Dict, List, Optional, Tuple

from ..errors import VosError
from .memory import Memory
from .program import Imm, Instr, OPCODES, Program, _add_const, _gt, _identity, _lt, build_program

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


# ---------------------------------------------------------------------------
# blocks: straight-line code compiled once per (program, entry pc)
# ---------------------------------------------------------------------------

#: The most instructions one block holds.
BLOCK_LIMIT = 64

#: The kinds a block holds; it ends with a branch or a syscall.
_BLOCK_OPCODES = (_OP, _JUMP, _BRANCH, _SYSCALL)

#: Block source -> its code object.  The source depends only on a block's
#: *shape*: register names, immediates, op functions and pcs are the
#: function's default arguments, so every block of one shape shares one
#: code object.  Bounded the way the codec memos are (DESIGN §5): insertion
#: simply stops at ``_SHAPES_SIZE`` shapes, and a block whose shape does not
#: fit compiles its own.
_SHAPES: Dict[str, CodeType] = {}
_SHAPES_SIZE = 256

#: Line of a block's source that holds its first instruction; instruction
#: ``k`` is on line ``k + _FIRST_LINE``, which is how a fault finds its pc.
_FIRST_LINE = 2

#: Every ``_add_const(k)`` function runs this code, with ``k`` its default.
_ADD_CONST_CODE = _add_const(1).__code__


def _block_pcs(instrs: Tuple[Instr, ...], pc: int) -> List[int]:
    """The pcs of the block entered at ``pc``, in execution order.

    A block starts with ``op`` instructions, follows unconditional
    ``jump``\\ s and ends *with* a ``branch`` or a ``syscall``; it stops
    *before* any other kind, the end of the program, a pc it already
    holds, or :data:`BLOCK_LIMIT` instructions.
    """
    end = len(instrs)
    pcs: List[int] = []
    while pc < end and pc not in pcs and len(pcs) < BLOCK_LIMIT:
        instr = instrs[pc]
        if instr.opcode not in _BLOCK_OPCODES:
            break
        pcs.append(pc)
        if instr.opcode == _BRANCH or instr.opcode == _SYSCALL:
            break
        pc = instr.target if instr.opcode == _JUMP else pc + 1
    return pcs


def _compile_block(instrs: Tuple[Instr, ...], pc: int) -> Tuple[Any, ...]:
    """The block entered at ``pc`` (:func:`_block_pcs`) as ``(fn, cost,
    need, after)``, or ``()`` when it would hold fewer than two
    instructions: one alone saves no dispatch, and compiling it would
    only spend a function's memory on its pc.

    ``fn(regs)`` runs the block one source line per instruction, in
    order, writing each result into ``regs`` as the loop would, and
    returns the next pc — or, for a block that ends in a syscall, the
    :class:`SyscallRequest`, after which the process resumes at
    ``after``.  ``cost`` is the cycles it charges; ``need`` is the least
    budget, counted from the block's entry, under which the
    per-instruction loop runs all of it: that loop starts an instruction
    only while cycles remain and never lets one overrun the budget, so a
    block that ends in the 0-cycle ``syscall`` needs one cycle more than
    it costs.
    """
    pcs = _block_pcs(instrs, pc)
    if len(pcs) < 2:
        return ()
    lines: List[str] = []
    consts: List[Any] = []

    def const(value: Any) -> str:
        consts.append(value)
        return f"k{len(consts) - 1}"

    def operand(src: Any) -> str:
        return const(src.value) if src.__class__ is Imm else f"regs[{const(src)}]"

    cost = need = 0
    for at in pcs:
        instr = instrs[at]
        opcode = instr.opcode
        if opcode == _OP:
            fn = instr.fn
            if fn is _identity and len(instr.srcs) == 1:
                expr = operand(instr.srcs[0])
            elif (fn is _lt or fn is _gt) and len(instr.srcs) == 2:
                expr = f"{operand(instr.srcs[0])} {'<' if fn is _lt else '>'} {operand(instr.srcs[1])}"
            elif getattr(fn, "__code__", None) is _ADD_CONST_CODE and len(instr.srcs) == 1:
                expr = f"{operand(instr.srcs[0])} + {const(fn.__defaults__[0])}"
            else:
                expr = f"{const(fn)}({', '.join(map(operand, instr.srcs))})"
            lines.append(expr if instr.dst is None else f"regs[{const(instr.dst)}] = {expr}")
        elif opcode == _JUMP:
            lines.append("# jump")
        elif opcode == _BRANCH:
            taken, not_taken = (instr.target, at + 1) if instr.sense else (at + 1, instr.target)
            lines.append(f"return {const(taken)} if {operand(instr.srcs[0])} else {const(not_taken)}")
        else:
            args = "".join(f"{operand(src)}, " for src in instr.srcs)
            lines.append(f"return SyscallRequest({const(instr.name)}, ({args}), {const(instr.dst)})")
        need = max(need, cost + max(instr.base, 1))
        cost += instr.base
    last = instrs[pcs[-1]]
    if last.opcode == _OP:
        lines.append(f"return {const(pcs[-1] + 1)}")
    elif last.opcode == _JUMP:
        lines.append(f"return {const(last.target)}")
    params = "".join(f", k{n}" for n in range(len(consts)))
    source = f"def block(regs{params}):\n" + "".join(f"    {line}\n" for line in lines)
    code = _SHAPES.get(source)
    if code is None:
        namespace: Dict[str, Any] = {}
        exec(compile(source, "<vos block>", "exec"), namespace)
        code = namespace["block"].__code__
        if len(_SHAPES) < _SHAPES_SIZE:
            _SHAPES[source] = code
    fn = FunctionType(code, globals(), "block", tuple(consts))
    return fn, cost, need, pcs[-1] + 1


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

        At each pc it first looks for the program's block entered there
        (:func:`_compile_block`, compiled on first entry) and, when the
        whole block fits the budget, runs it in one call.  A fault inside
        a block leaves ``pc`` on the faulting instruction and charges
        nothing, as the per-instruction path does.  The first block that
        does not fit hands the rest of the slice to that path, which runs
        one instruction per iteration and is the semantics every block is
        compiled from.
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
        blocks = self.program.blocks
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
                if blocks is not None:
                    block = blocks.get(pc)
                    if block is None:
                        block = blocks[pc] = _compile_block(instrs, pc)
                    if block:
                        fn, cost, need, after = block
                        if used + need <= budget_cycles:
                            try:
                                result = fn(regs)
                            except Exception as err:  # re-raised on the instruction that raised it
                                line = err.__traceback__.tb_next.tb_lineno
                                pc = _block_pcs(instrs, pc)[line - _FIRST_LINE]
                                unset = self._unset_source(pc) if isinstance(err, KeyError) else None
                                if unset is not None:
                                    raise unset from None
                                raise
                            used += cost
                            if result.__class__ is not SyscallRequest:
                                pc = result
                                continue
                            pc = after
                            self.syscalls_made += 1
                            reason, payload = REASON_SYSCALL, result
                            break
                        blocks = None  # the slice's tail runs instruction by instruction
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

    def keep_exit_record(self) -> None:
        """Keep only the *exit record* — identity (``pid``, ``vpid``,
        ``pod_id``, ``program``), ``state``, ``exit_code``, ``exit_time``,
        counters and ``memory`` accounting — and drop the registers, call
        stack, blocked syscall and parked result.

        The kernel calls this on SIGKILL: nothing reads a killed process's
        registers, yet its corpse stays in the process table for
        ``waitpid``.  A process that exits by itself keeps its registers:
        they hold its results.
        """
        self.regs = {}
        self.callstack = []
        self.blocked_on = None
        self.pending_result = None

    def _unset_register(self, pc: int, reg: str) -> VosError:
        return VosError(f"pid {self.pid} ({self.program.name}) pc={pc}: unset register {reg!r}")

    def _unset_source(self, pc: int) -> Optional[VosError]:
        """The unset-register fault of the instruction at ``pc`` — its
        first source register that holds nothing — or None when all of
        them are set (a ``KeyError`` then came from inside its op)."""
        for src in self.program.instrs[pc].srcs:
            if src.__class__ is not Imm and src not in self.regs:
                return self._unset_register(pc, src)
        return None

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
