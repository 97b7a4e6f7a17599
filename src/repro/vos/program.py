"""Programs: the mini-ISA that simulated application processes execute.

Transparency is the heart of the paper — the OS checkpoints processes
that know nothing about checkpointing.  To make that property *real* in
a simulation, a process must be pure data.  Programs are immutable
instruction lists; all mutable state (program counter, registers, call
stack, memory accounting) lives in the :class:`~repro.vos.process.Process`
image, which the checkpointer serializes without any cooperation from
the program.

Programs are **registered by name** and built once: a checkpoint stores
only ``(program name, build params, pc, ...)`` — exactly as a real
checkpoint stores the executable path rather than its machine code — and
:func:`build_program` keeps the one :class:`Program` each ``(name,
params)`` built, so a spawn, another pod's spawn and every restore of
that pair share it, the way processes share one mapped executable.

Sharing holds because a program is data, which asks two things of the
code that writes one.  A **builder** is a pure function of its params:
it reads nothing that changes between calls and keeps no state in the
closures it emits.  An ``op`` function **never mutates an operand in
place** — it returns a new value (``rs + [g]``, ``dict(d)``) — because an
operand may be an immediate inside the shared instruction
(``mov("residuals", imm([]))``) or a build param.

Instruction set
---------------
``op``       apply a pure Python function to operand values, store result
``compute``  burn CPU cycles (split across scheduler quanta if large)
``alloc``/``free``  grow/shrink accounted memory segments
``syscall``  trap into the node kernel (may block the process)
``jump``/``branch``  control flow (labels resolved at build time)
``call``/``ret``     subroutine linkage via the process call stack
``halt``     terminate with an exit code

Operands are register names (``str``) or immediates (wrap literals in
:func:`imm` — in particular string literals).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import VosError

# ---------------------------------------------------------------------------
# operands
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Imm:
    """An immediate (literal) operand; use :func:`imm` to construct."""

    value: Any


def imm(value: Any) -> Imm:
    """Wrap a literal so it is not mistaken for a register name."""
    return Imm(value)


Operand = Any  # str (register) | Imm


# ---------------------------------------------------------------------------
# instructions
# ---------------------------------------------------------------------------

#: Instruction kinds in opcode order (``OPCODES[kind]`` is the index).  The
#: interpreter dispatches on the small-int opcode, so the order is the
#: measured execution frequency on the Fig. 5 workloads (``op`` 64 %,
#: ``branch`` 17 %, ``syscall`` 9 %, ``jump`` 9 %, ``compute`` 1 %).
KINDS: Tuple[str, ...] = (
    "op", "branch", "syscall", "jump", "compute",
    "alloc", "free", "call", "ret", "halt",
)
OPCODES: Dict[str, int] = {kind: opcode for opcode, kind in enumerate(KINDS)}

#: Base cycle cost charged per executed instruction, by kind.  COMPUTE adds
#: its operand on top.  These are coarse but sufficient: fine-grained time
#: comes from explicit ``compute`` instructions in the workloads.
INSTR_BASE_CYCLES: Dict[str, int] = {
    "op": 20,
    "compute": 5,
    "alloc": 50,
    "free": 50,
    "syscall": 0,  # syscall overhead is charged by the kernel (pods add more)
    "jump": 2,
    "branch": 4,
    "call": 10,
    "ret": 10,
    "halt": 5,
}


@dataclass(frozen=True, slots=True)
class Instr:
    """One decoded instruction; which fields are meaningful varies by kind.

    Everything the interpreter would otherwise work out per execution is
    fixed when the builder emits the instruction: the small-int ``opcode``,
    its ``base`` cycle cost, the resolved jump ``target`` and operands that
    are known to be register names (``str``) or :class:`Imm`.  None of this
    is ever serialised — an image stores ``program_name``/``params``/``pc``
    and restart rebuilds the instructions from the registry.
    """

    opcode: int
    base: int  # INSTR_BASE_CYCLES[kind]
    fn: Optional[Callable[..., Any]] = None
    dst: Optional[str] = None
    srcs: Tuple[Operand, ...] = ()
    name: Optional[str] = None  # syscall name / segment name
    target: int = -1  # resolved jump target pc
    sense: bool = True  # branch taken when truthiness == sense

    @property
    def kind(self) -> str:
        """The instruction's kind by name (see module doc)."""
        return KINDS[self.opcode]


@dataclass(frozen=True)
class Program:
    """An immutable, registry-rebuildable instruction sequence."""

    name: str
    params: Dict[str, Any]
    instrs: Tuple[Instr, ...]
    labels: Dict[str, int] = field(default_factory=dict)
    #: Bytes of working-set memory the program rewrites per CPU-second
    #: (drives the scheduler's dirty-page accounting for live migration).
    #: Not serialized — rebuilt with the program on restore.
    dirty_rate: float = 0.0

    def __len__(self) -> int:
        return len(self.instrs)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, Callable[..., None]] = {}

#: (builder function, name, frozen params) -> the one program built for
#: them.  Bounded the way the codec's memos are (DESIGN §5): insertion
#: simply stops at ``_PROGRAMS_SIZE`` programs — a 16-rank BT/NAS endpoint
#: is ~125 KB of instructions, so tens of MB at the very most — and what
#: does not fit is built per call.  Nothing is keyed by an ``id()``; the
#: builder function is in the key so that a name registered anew can
#: never return the old function's program.
_PROGRAMS: Dict[Tuple[Any, ...], Program] = {}
_PROGRAMS_SIZE = 512

_ATOMS = frozenset((type(None), bool, int, str, bytes))


def program(name: str) -> Callable[[Callable[..., None]], Callable[..., None]]:
    """Decorator registering a program-builder function under ``name``.

    The decorated function receives a fresh :class:`ProgramBuilder` plus
    the build params as keyword arguments and emits instructions::

        @program("demo.spin")
        def _build(b, *, loops):
            with b.for_range("i", imm(0), imm(loops)):
                ...
    """

    def deco(fn: Callable[..., None]) -> Callable[..., None]:
        if name in _REGISTRY:
            raise VosError(f"program {name!r} already registered")
        _REGISTRY[name] = fn
        return fn

    return deco


def _freeze(value: Any) -> Tuple[Any, ...]:
    """A hashable key that equals another's exactly when the two values
    have the same types and contents all the way down: ``1``, ``True``
    and ``1.0`` are three keys, a list is not a tuple and a dict keeps its
    order — every one of which reaches the image through
    :attr:`Program.params`.  ``TypeError`` for anything else (a subclass,
    an ndarray, an arbitrary object)."""
    tp = type(value)
    if tp in _ATOMS:
        return tp, value
    if tp is float:
        return tp, value.hex()  # 0.0 == -0.0, but their images differ
    if tp is list or tp is tuple:
        return tp, tuple(map(_freeze, value))
    if tp is dict:
        return tp, tuple((_freeze(k), _freeze(v)) for k, v in value.items())
    raise TypeError(f"a {tp.__name__} cannot key the program table")


def build_program(name: str, **params: Any) -> Program:
    """The program registered as ``name``, instantiated with ``params``.

    Built once: the first call for a (builder function, name, params)
    runs the builder, every later one — another pod's spawn, a restore,
    the next world in the same interpreter — returns that same frozen
    :class:`Program`.  That is sound because the builder is deterministic
    (the same name + params always yield the same instruction sequence,
    which is also what lets a checkpoint record just the pair) and
    because nothing that executes a program writes to it (module doc).
    Params :func:`_freeze` cannot represent are built fresh on every call
    and never kept.
    """
    builder_fn = _REGISTRY.get(name)
    if builder_fn is None:
        raise VosError(f"no program registered under {name!r}")
    try:
        key = (builder_fn, name, _freeze(params))
    except TypeError:
        key = None
    prog = _PROGRAMS.get(key)
    if prog is not None:
        return prog
    keep = key is not None and len(_PROGRAMS) < _PROGRAMS_SIZE
    if keep:
        # a kept program outlives this call: its params go into every
        # image and its immediates into every process, so neither may be
        # reachable through the caller's own lists and dicts
        params = copy.deepcopy(params)
    b = ProgramBuilder(name, params)
    builder_fn(b, **params)
    prog = b.build()
    if keep:
        _PROGRAMS[key] = prog
    return prog


def registered_programs() -> List[str]:
    """Names of all registered programs (diagnostics)."""
    return sorted(_REGISTRY)


# ---------------------------------------------------------------------------
# builder
# ---------------------------------------------------------------------------


class _Block:
    """Bookkeeping for a structured-control-flow region."""

    def __init__(self, builder: "ProgramBuilder", top: str, end: str, step: Optional[Callable[[], None]] = None):
        self._b = builder
        self.top = top
        self.end = end
        self._step = step

    def __enter__(self) -> "_Block":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            return
        if self._step is not None:
            self._step()
        if self.top:
            self._b.jump(self.top)
        self._b.label(self.end)


class ProgramBuilder:
    """Emit instructions with structured control flow, then :meth:`build`.

    All emit methods return ``self`` so short sequences can chain.
    """

    def __init__(self, name: str = "anonymous", params: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.params = dict(params or {})
        #: emitted instructions awaiting label resolution, as
        #: ``(kind, fields, target label or None)``; :meth:`build` constructs
        #: each :class:`Instr` exactly once.
        self._pending: List[Tuple[str, Dict[str, Any], Optional[str]]] = []
        self._labels: Dict[str, int] = {}
        self._gensym = 0
        self._dirty_rate = 0.0

    # -- label plumbing -------------------------------------------------
    def _fresh(self, stem: str) -> str:
        self._gensym += 1
        return f"__{stem}_{self._gensym}"

    def label(self, name: str) -> "ProgramBuilder":
        """Define label ``name`` at the current position."""
        if name in self._labels:
            raise VosError(f"duplicate label {name!r} in program {self.name!r}")
        self._labels[name] = len(self._pending)
        return self

    def _emit(self, kind: str, target_label: Optional[str] = None, **fields: Any) -> "ProgramBuilder":
        # Operands are checked here, not when the instruction first runs: the
        # interpreter relies on every operand being a register name or an Imm.
        for operand in fields.get("srcs", ()):
            if operand.__class__ is not Imm and not isinstance(operand, str):
                raise VosError(
                    f"program {self.name!r} instruction {len(self._pending)} ({kind}): "
                    f"bad operand {operand!r} (wrap literals with imm())")
        self._pending.append((kind, fields, target_label))
        return self

    # -- data & compute ---------------------------------------------------
    def op(self, dst: Optional[str], fn: Callable[..., Any], *srcs: Operand) -> "ProgramBuilder":
        """``dst = fn(*operand values)``; ``dst=None`` discards the result."""
        return self._emit("op", fn=fn, dst=dst, srcs=srcs)

    def mov(self, dst: str, src: Operand) -> "ProgramBuilder":
        """Copy an operand into a register."""
        return self.op(dst, _identity, src)

    def compute(self, cycles: Operand) -> "ProgramBuilder":
        """Burn CPU cycles (an int operand; may span scheduler quanta)."""
        return self._emit("compute", srcs=(cycles,))

    def alloc(self, nbytes: Operand, segment: str = "heap") -> "ProgramBuilder":
        """Grow an accounted memory segment."""
        return self._emit("alloc", srcs=(nbytes,), name=segment)

    def free(self, nbytes: Operand, segment: str = "heap") -> "ProgramBuilder":
        """Shrink an accounted memory segment."""
        return self._emit("free", srcs=(nbytes,), name=segment)

    # -- kernel interface -------------------------------------------------
    def syscall(self, dst: Optional[str], name: str, *args: Operand) -> "ProgramBuilder":
        """Trap into the kernel; the result lands in ``dst`` (or is dropped)."""
        return self._emit("syscall", dst=dst, srcs=args, name=name)

    def halt(self, code: Operand = Imm(0)) -> "ProgramBuilder":
        """Terminate the process with an exit code."""
        return self._emit("halt", srcs=(code,))

    # -- raw control flow ---------------------------------------------------
    def jump(self, label: str) -> "ProgramBuilder":
        """Unconditional jump to ``label``."""
        return self._emit("jump", label)

    def branch_if(self, src: Operand, label: str) -> "ProgramBuilder":
        """Jump to ``label`` when operand is truthy."""
        return self._emit("branch", label, srcs=(src,), sense=True)

    def branch_ifnot(self, src: Operand, label: str) -> "ProgramBuilder":
        """Jump to ``label`` when operand is falsy."""
        return self._emit("branch", label, srcs=(src,), sense=False)

    def call(self, label: str) -> "ProgramBuilder":
        """Push return pc on the call stack and jump to ``label``."""
        return self._emit("call", label)

    def ret(self) -> "ProgramBuilder":
        """Return to the pc on top of the call stack."""
        return self._emit("ret")

    # -- structured control flow -------------------------------------------
    def while_(self, src: Operand) -> _Block:
        """``with b.while_("cond"):`` — loop while the operand is truthy.

        The condition is re-read from the operand at the top of each
        iteration, so the body must update it.
        """
        top, end = self._fresh("while"), self._fresh("wend")
        self.label(top)
        self.branch_ifnot(src, end)
        return _Block(self, top, end)

    def if_(self, src: Operand, negate: bool = False) -> _Block:
        """``with b.if_("flag"):`` — run the body when operand is truthy."""
        end = self._fresh("fi")
        if negate:
            self.branch_if(src, end)
        else:
            self.branch_ifnot(src, end)
        return _Block(self, "", end)

    def for_range(self, var: str, start: Operand, stop: Operand, step: int = 1) -> _Block:
        """``with b.for_range("i", 0, imm(10)):`` — a counted loop.

        ``var`` holds the loop index; mutating it inside the body is
        allowed (the increment applies to whatever value it holds).
        """
        top, end = self._fresh("for"), self._fresh("rof")
        self.mov(var, start)
        self.label(top)
        if step > 0:
            self.op("__cc", _lt, var, stop)
        else:
            self.op("__cc", _gt, var, stop)
        self.branch_ifnot("__cc", end)

        def _step() -> None:
            self.op(var, _add_const(step), var)

        return _Block(self, top, end, step=_step)

    # -- memory write behavior ----------------------------------------------
    def set_dirty_rate(self, bytes_per_cpu_s: float) -> "ProgramBuilder":
        """Declare how many bytes the program rewrites per CPU-second.

        The scheduler charges this against the process's memory as dirty
        pages while it consumes cycles (live-migration working set).
        """
        if bytes_per_cpu_s < 0:
            raise VosError(f"negative dirty rate {bytes_per_cpu_s}")
        self._dirty_rate = float(bytes_per_cpu_s)
        return self

    # -- finalize -----------------------------------------------------------
    def build(self) -> Program:
        """Resolve labels, decode every instruction once and freeze the program."""
        instrs = []
        for kind, fields, label in self._pending:
            target = -1
            if label is not None:
                target = self._labels.get(label, -1)
                if target < 0:
                    raise VosError(f"undefined label {label!r} in program {self.name!r}")
            instrs.append(Instr(OPCODES[kind], INSTR_BASE_CYCLES[kind], target=target, **fields))
        return Program(self.name, dict(self.params), tuple(instrs),
                       dict(self._labels), dirty_rate=self._dirty_rate)


# ---------------------------------------------------------------------------
# tiny op library (module-level so programs stay reconstructible)
# ---------------------------------------------------------------------------


def _identity(x: Any) -> Any:
    return x


def _lt(a: Any, b: Any) -> bool:
    return a < b


def _gt(a: Any, b: Any) -> bool:
    return a > b


_ADD_CONST_CACHE: Dict[int, Callable[[Any], Any]] = {}


def _add_const(k: int) -> Callable[[Any], Any]:
    fn = _ADD_CONST_CACHE.get(k)
    if fn is None:
        def fn(x: Any, _k: int = k) -> Any:
            return x + _k

        _ADD_CONST_CACHE[k] = fn
    return fn
