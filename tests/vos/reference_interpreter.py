"""The pre-decoded-form interpreter, frozen verbatim as a test-only oracle.

``resolve`` / ``step`` / ``retire`` below are ``Process._resolve``,
``Process.step`` and ``Process._retire`` exactly as ``repro.vos.process``
shipped them before instructions were decoded at build time — the
``isinstance`` operand test, the base-cost dict lookup and the
string-compare ladder over ``instr.kind`` — rewritten only from methods
into functions of the process (``self`` is the first argument).  The
differential tests in ``test_interpreter_properties.py`` hold the live
interpreter to this one slice by slice, so what a program computes and
what it is charged cannot drift with the implementation.  Do not "fix"
anything here, the quirks included: with a budget smaller than the base
cost of the first instruction, a ``compute`` hands the overshoot back to
``compute_remaining``.
"""

from __future__ import annotations

from typing import Any, Tuple

from repro.errors import VosError
from repro.vos.process import (
    DEAD,
    REASON_HALT,
    REASON_QUANTUM,
    REASON_SYSCALL,
    Process,
    SyscallRequest,
)
from repro.vos.program import INSTR_BASE_CYCLES, Imm


def resolve(self: Process, operand: Any) -> Any:
    if isinstance(operand, Imm):
        return operand.value
    if isinstance(operand, str):
        try:
            return self.regs[operand]
        except KeyError:
            raise VosError(
                f"pid {self.pid} ({self.program.name}) pc={self.pc}: unset register {operand!r}"
            ) from None
    raise VosError(f"bad operand {operand!r} (wrap literals with imm())")


def step(self: Process, budget_cycles: int) -> Tuple[int, str, Any]:
    if self.state == DEAD:
        raise VosError(f"stepping dead pid {self.pid}")
    used = 0
    prog = self.program.instrs
    while True:
        if self.compute_remaining > 0:
            take = min(self.compute_remaining, budget_cycles - used)
            self.compute_remaining -= take
            used += take
            if self.compute_remaining > 0:
                return retire(self, used, REASON_QUANTUM, None)
            continue
        if used >= budget_cycles:
            return retire(self, used, REASON_QUANTUM, None)
        if self.pc >= len(prog):
            # Falling off the end is an implicit clean exit.
            return retire(self, used, REASON_HALT, 0)
        instr = prog[self.pc]
        base = INSTR_BASE_CYCLES[instr.kind]
        # Never split a non-compute instruction across quanta, but always
        # make progress: the first instruction of a slice runs regardless.
        if used > 0 and used + base > budget_cycles:
            return retire(self, used, REASON_QUANTUM, None)
        used += base
        kind = instr.kind
        if kind == "op":
            values = [resolve(self, s) for s in instr.srcs]
            result = instr.fn(*values)
            if instr.dst is not None:
                self.regs[instr.dst] = result
            self.pc += 1
        elif kind == "compute":
            cycles = int(resolve(self, instr.srcs[0]))
            if cycles < 0:
                raise VosError(f"pid {self.pid}: negative compute {cycles}")
            self.compute_remaining += cycles
            self.pc += 1
        elif kind == "alloc":
            self.memory.alloc(int(resolve(self, instr.srcs[0])), instr.name)
            self.pc += 1
        elif kind == "free":
            self.memory.free(int(resolve(self, instr.srcs[0])), instr.name)
            self.pc += 1
        elif kind == "syscall":
            args = tuple(resolve(self, s) for s in instr.srcs)
            self.pc += 1
            self.syscalls_made += 1
            return retire(self, used, REASON_SYSCALL, SyscallRequest(instr.name, args, instr.dst))
        elif kind == "jump":
            self.pc = instr.target
        elif kind == "branch":
            value = resolve(self, instr.srcs[0])
            self.pc = instr.target if bool(value) == instr.sense else self.pc + 1
        elif kind == "call":
            self.callstack.append(self.pc + 1)
            self.pc = instr.target
        elif kind == "ret":
            if not self.callstack:
                raise VosError(f"pid {self.pid}: ret with empty call stack")
            self.pc = self.callstack.pop()
        elif kind == "halt":
            code = int(resolve(self, instr.srcs[0]))
            return retire(self, used, REASON_HALT, code)
        else:  # pragma: no cover - builder cannot emit unknown kinds
            raise VosError(f"unknown instruction kind {kind!r}")


def retire(self: Process, used: int, reason: str, payload: Any) -> Tuple[int, str, Any]:
    self.cpu_cycles += used
    return used, reason, payload
