"""Property-based tests on the interpreter and process images.

The checkpoint correctness story reduces to: (1) a process image
round-trips exactly at *any* interruption point, and (2) execution is
deterministic — the same program reaches the same state regardless of
how it is sliced into quanta.  Both are checked over randomized
programs and slice schedules.  A third property holds the interpreter to
the frozen pre-decoding one (``reference_interpreter``) over programs
that use every instruction kind, faults included.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import VosError
from repro.vos.process import Process, REASON_HALT, REASON_SYSCALL
from repro.vos.program import ProgramBuilder, build_program, imm, program

from . import reference_interpreter


def _mix(acc, x):
    return (acc * 1103515245 + x + 12345) % (2**31)


@program("prop.random-walk")
def _random_walk(b, *, ops, seed):
    """A deterministic arithmetic walk parameterized by (ops, seed)."""
    b.mov("acc", imm(seed))
    b.mov("mem", imm(0))
    for i, op in enumerate(ops):
        kind, arg = op
        if kind == 0:
            b.op("acc", _mix, "acc", imm(arg))
        elif kind == 1:
            b.compute(imm(arg * 100))
        elif kind == 2:
            b.alloc(imm(arg), "heap")
            b.op("mem", lambda m, a=arg: m + a, "mem")
        elif kind == 3:
            with b.for_range(f"i{i}", imm(0), imm(arg % 5)):
                b.op("acc", _mix, "acc", f"i{i}")
    b.halt(imm(0))


_ops = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),
              st.integers(min_value=0, max_value=1000)),
    min_size=1, max_size=12)


def _run_sliced(proc, slices):
    """Step a process with the given quantum schedule until halt."""
    idx = 0
    while True:
        budget = slices[idx % len(slices)]
        idx += 1
        _used, reason, payload = proc.step(budget)
        if reason == REASON_HALT:
            return payload


@settings(max_examples=80, deadline=None)
@given(ops=_ops, seed=st.integers(min_value=0, max_value=2**30),
       slices=st.lists(st.integers(min_value=50, max_value=5000), min_size=1, max_size=4))
def test_execution_is_slice_invariant(ops, seed, slices):
    """Final state is identical whether run in one slice or many."""
    big = Process(1, build_program("prop.random-walk", ops=ops, seed=seed))
    _run_sliced(big, [10**9])
    small = Process(2, build_program("prop.random-walk", ops=ops, seed=seed))
    _run_sliced(small, slices)
    assert small.regs["acc"] == big.regs["acc"]
    assert small.regs["mem"] == big.regs["mem"]
    assert small.memory.rss == big.memory.rss
    assert small.cpu_cycles == big.cpu_cycles


@settings(max_examples=80, deadline=None)
@given(ops=_ops, seed=st.integers(min_value=0, max_value=2**30),
       cut=st.integers(min_value=1, max_value=50_000))
def test_image_round_trip_at_any_interruption_point(ops, seed, cut):
    """Freeze after an arbitrary number of cycles; the restored clone
    must finish with exactly the original's final state."""
    reference = Process(1, build_program("prop.random-walk", ops=ops, seed=seed))
    _run_sliced(reference, [10**9])

    victim = Process(2, build_program("prop.random-walk", ops=ops, seed=seed))
    _used, reason, _payload = victim.step(cut)
    if reason == REASON_HALT:
        clone = victim  # finished before the cut: nothing to restore
    else:
        clone = Process(3, victim.to_image())  # type: ignore[arg-type]
        clone = Process.from_image(3, victim.to_image())
        _run_sliced(clone, [10**9])
    assert clone.regs["acc"] == reference.regs["acc"]
    assert clone.regs["mem"] == reference.regs["mem"]
    assert clone.memory.rss == reference.memory.rss


@settings(max_examples=50, deadline=None)
@given(ops=_ops, seed=st.integers(min_value=0, max_value=2**30))
def test_program_rebuild_is_stable(ops, seed):
    """Registry rebuilds produce instruction-identical programs (the
    property that lets images store only name+params)."""
    p1 = build_program("prop.random-walk", ops=ops, seed=seed)
    p2 = build_program("prop.random-walk", ops=ops, seed=seed)
    assert len(p1.instrs) == len(p2.instrs)
    for a, b in zip(p1.instrs, p2.instrs):
        assert (a.kind, a.dst, a.name, a.target, a.sense) == \
            (b.kind, b.dst, b.name, b.target, b.sense)


# ---------------------------------------------------------------------------
# differential: the live interpreter against the frozen reference
# ---------------------------------------------------------------------------

#: ``u`` is never written, so reading it is the unset-register fault.
_REGS = ("r0", "r1", "r2", "r3")
_reg = st.sampled_from(_REGS + ("u",))
_operand = st.one_of(st.sampled_from(_REGS), st.sampled_from(_REGS), _reg,
                     st.integers(min_value=-3, max_value=40).map(imm))
_amount = st.one_of(st.integers(min_value=-1, max_value=3000).map(imm), st.sampled_from(_REGS))


def _sum(*values):
    return sum(values) % 9973


def _div(a, b):
    return a // b  # raises on b == 0: a faulting op must leave pc where it is


_leaf = st.one_of(
    st.tuples(st.just("op"), st.sampled_from(_REGS + (None,)), st.lists(_operand, max_size=3)),
    st.tuples(st.just("div"), st.sampled_from(_REGS), _operand, _operand),
    st.tuples(st.just("compute"), _amount),
    st.tuples(st.just("alloc"), st.integers(min_value=0, max_value=9000).map(imm)),
    st.tuples(st.just("free"), st.integers(min_value=0, max_value=9000).map(imm)),
    st.tuples(st.just("syscall"), st.sampled_from(_REGS + (None,)), st.lists(_operand, max_size=3)),
    st.tuples(st.just("call"), st.integers(min_value=0, max_value=1)),
    st.tuples(st.just("ret")),
    st.tuples(st.just("halt"), _operand),
)
_stmt = st.recursive(
    _leaf,
    lambda inner: st.one_of(
        st.tuples(st.just("if"), _operand, st.booleans(), st.lists(inner, max_size=3)),
        st.tuples(st.just("for"), st.integers(min_value=0, max_value=3), st.lists(inner, max_size=3)),
    ),
    max_leaves=10)


def _emit(b, stmts, depth=0):
    for n, stmt in enumerate(stmts):
        kind = stmt[0]
        if kind == "op":
            b.op(stmt[1], _sum, *stmt[2])
        elif kind == "div":
            b.op(stmt[1], _div, stmt[2], stmt[3])
        elif kind == "compute":
            b.compute(stmt[1])
        elif kind == "alloc":
            b.alloc(stmt[1], "heap")
        elif kind == "free":
            b.free(stmt[1], "heap")
        elif kind == "syscall":
            b.syscall(stmt[1], "probe", *stmt[2])
        elif kind == "call":
            b.call(f"sub{stmt[1]}")
        elif kind == "ret":
            b.ret()
        elif kind == "halt":
            b.halt(stmt[1])
        elif kind == "if":  # both branch senses
            with b.if_(stmt[1], negate=stmt[2]):
                _emit(b, stmt[3], depth + 1)
        elif kind == "for":
            with b.for_range(f"i{depth}_{n}", imm(0), imm(stmt[1])):
                _emit(b, stmt[2], depth + 1)


def _build_any(main, subs, explicit_halt):
    """Main body, then (unless the program is to fall off the end or into
    its subroutines) a halt, then two subroutines reached by ``call``."""
    b = ProgramBuilder("prop.any")
    for value, reg in enumerate(_REGS):
        b.mov(reg, imm(value + 1))
    _emit(b, main)
    if explicit_halt:
        b.halt(imm(0))
    for k, body in enumerate(subs):
        b.label(f"sub{k}")
        _emit(b, [s for s in body if s[0] != "call"], depth=10 + k)  # no recursion
        b.ret()
    return b.build()


def _slice(step, proc, budget):
    try:
        return step(proc, budget)
    except (VosError, ZeroDivisionError) as err:
        return ("fault", str(err))


def _state(proc):
    return (proc.pc, proc.regs, proc.callstack, proc.compute_remaining,
            proc.cpu_cycles, proc.syscalls_made)


@settings(max_examples=300, deadline=None)
@given(main=st.lists(_stmt, max_size=8), subs=st.tuples(st.lists(_leaf, max_size=3), st.lists(_leaf, max_size=3)),
       explicit_halt=st.booleans(),
       budgets=st.lists(st.integers(min_value=0, max_value=4000), min_size=1, max_size=5))
def test_interpreter_matches_frozen_reference(main, subs, explicit_halt, budgets):
    """Slice by slice, under any quantum schedule, the interpreter returns
    what the pre-decoding one returns and leaves the same process behind —
    or faults with the same message at the same pc."""
    prog = _build_any(main, subs, explicit_halt)
    live, ref = Process(7, prog), Process(7, prog)
    for n in range(400):
        budget = budgets[n % len(budgets)]
        got = _slice(Process.step, live, budget)
        want = _slice(reference_interpreter.step, ref, budget)
        assert got == want
        assert _state(live) == _state(ref)
        if got[0] == "fault" or got[1] == REASON_HALT:
            break
        if got[1] == REASON_SYSCALL and got[2].dst is not None:
            for proc in (live, ref):  # the kernel would deliver a result
                proc.regs[got[2].dst] = n
    assert live.memory.to_image() == ref.memory.to_image()
    assert live.to_image() == ref.to_image()


def test_unset_register_fault_names_the_faulting_pc():
    b = ProgramBuilder("faulty")
    b.mov("x", imm(1)).mov("y", imm(2))
    b.op("z", _sum, "x", "nope")
    proc = Process(9, b.build())
    with pytest.raises(VosError) as err:
        proc.step(1_000)
    assert str(err.value) == "pid 9 (faulty) pc=2: unset register 'nope'"
    assert proc.pc == 2 and proc.cpu_cycles == 0
