"""Property-based tests on the interpreter and process images.

The checkpoint correctness story reduces to: (1) a process image
round-trips exactly at *any* interruption point, and (2) execution is
deterministic — the same program reaches the same state regardless of
how it is sliced into quanta.  Both are checked over randomized
programs and slice schedules.  A third property holds the interpreter to
the frozen pre-decoding one (``reference_interpreter``) over programs
that use every instruction kind, faults included, under budgets drawn to
land exactly on the edges of the compiled blocks; restored at every pc a
program reaches, and with two processes sharing one program.  Each way
the block path could go wrong by hand is a mutation the differential
must catch.
"""

import contextlib
import sys

import pytest
from hypothesis import Phase, example, given, settings, strategies as st
from hypothesis.errors import InvalidArgument

from repro.errors import VosError
from repro.vos.process import Process, REASON_HALT, REASON_QUANTUM, REASON_SYSCALL
from repro.vos.program import ProgramBuilder, build_program, imm, program

from ..mutation import mutant
from . import reference_interpreter

#: ``repro.vos`` exports the ``program`` decorator under its module's name
program_module = sys.modules["repro.vos.program"]
process_module = sys.modules["repro.vos.process"]


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
#: Operands are drawn as data — a register name, or an int that becomes an
#: immediate — so a drawn program's params can key the program table.
_REGS = ("r0", "r1", "r2", "r3")
_reg = st.sampled_from(_REGS + ("u",))
_operand = st.one_of(st.sampled_from(_REGS), st.sampled_from(_REGS), _reg,
                     st.integers(min_value=-3, max_value=40))
_amount = st.one_of(st.integers(min_value=-1, max_value=3000), st.sampled_from(_REGS))


def _val(operand):
    return imm(operand) if isinstance(operand, int) else operand


def _sum(*values):
    return sum(values) % 9973


def _div(a, b):
    return a // b  # raises on b == 0: a faulting op must leave pc where it is


#: even keys only, so ``_pick`` of most values raises ``KeyError`` from
#: inside the op: the op's own fault, which must not pass for an unset
#: register
_PICKS = {n: n * 7 % 41 for n in range(0, 40, 2)}


def _pick(x):
    return _PICKS[x]


class Opaque(Exception):
    """What asking a :class:`_Murky` for its truth raises."""


class _Murky(int):
    """An int whose truthiness raises: a branch on it faults."""

    def __bool__(self):
        raise Opaque(f"truth of {int(self)}")


def _murk(x):
    return _Murky(x)


_leaf = st.one_of(
    st.tuples(st.just("op"), st.sampled_from(_REGS + (None,)), st.lists(_operand, max_size=3)),
    st.tuples(st.just("div"), st.sampled_from(_REGS), _operand, _operand),
    st.tuples(st.just("pick"), st.sampled_from(_REGS), _operand),
    st.tuples(st.just("murk"), st.sampled_from(_REGS), _operand),
    st.tuples(st.just("compute"), _amount),
    st.tuples(st.just("alloc"), st.integers(min_value=0, max_value=9000)),
    st.tuples(st.just("free"), st.integers(min_value=0, max_value=9000)),
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
        st.tuples(st.just("down"), st.integers(min_value=0, max_value=3), st.lists(inner, max_size=3)),
    ),
    max_leaves=10)


def _emit(b, stmts, depth=0):
    for n, stmt in enumerate(stmts):
        kind = stmt[0]
        if kind == "op":
            b.op(stmt[1], _sum, *map(_val, stmt[2]))
        elif kind == "div":
            b.op(stmt[1], _div, _val(stmt[2]), _val(stmt[3]))
        elif kind == "pick":
            b.op(stmt[1], _pick, _val(stmt[2]))
        elif kind == "murk":
            b.op(stmt[1], _murk, _val(stmt[2]))
        elif kind == "compute":
            b.compute(_val(stmt[1]))
        elif kind == "alloc":
            b.alloc(imm(stmt[1]), "heap")
        elif kind == "free":
            b.free(imm(stmt[1]), "heap")
        elif kind == "syscall":
            b.syscall(stmt[1], "probe", *map(_val, stmt[2]))
        elif kind == "call":
            b.call(f"sub{stmt[1]}")
        elif kind == "ret":
            b.ret()
        elif kind == "halt":
            b.halt(_val(stmt[1]))
        elif kind == "if":  # both branch senses
            with b.if_(_val(stmt[1]), negate=stmt[2]):
                _emit(b, stmt[3], depth + 1)
        elif kind == "for":
            with b.for_range(f"i{depth}_{n}", imm(0), imm(stmt[1])):
                _emit(b, stmt[2], depth + 1)
        elif kind == "down":  # counts down: the loop test is ``_gt``
            with b.for_range(f"d{depth}_{n}", imm(stmt[1]), imm(0), step=-1):
                _emit(b, stmt[2], depth + 1)


def _fill(b, main, subs, explicit_halt):
    """Main body, then (unless the program is to fall off the end or into
    its subroutines) a halt, then two subroutines reached by ``call``."""
    for value, reg in enumerate(_REGS):
        b.mov(reg, imm(value + 1))
    _emit(b, main)
    if explicit_halt:
        b.halt(imm(0))
    for k, body in enumerate(subs):
        b.label(f"sub{k}")
        _emit(b, [s for s in body if s[0] != "call"], depth=10 + k)  # no recursion
        b.ret()


@program("prop.any")
def _any(b, *, main, subs, explicit_halt):
    """A drawn program in the program table, where a restore finds it."""
    _fill(b, main, subs, explicit_halt)


def _build_any(main, subs, explicit_halt):
    """A drawn program of its own: never kept, its block table empty."""
    b = ProgramBuilder("prop.any")
    _fill(b, main, subs, explicit_halt)
    return b.build()


_programs = dict(main=st.lists(_stmt, max_size=8),
                 subs=st.tuples(st.lists(_leaf, max_size=3), st.lists(_leaf, max_size=3)),
                 explicit_halt=st.booleans())

#: A slice's budget: cycles, or ``(k, delta)`` — the cost of the first ``k``
#: instructions of the straight-line run at the process's pc (all of them
#: when ``k`` is large), plus ``delta``: the budgets at which a block just
#: fits, or just does not (at least 1, so a run always moves on).
_budget = st.one_of(st.integers(min_value=0, max_value=4000),
                    st.tuples(st.integers(min_value=0, max_value=64),
                              st.integers(min_value=-1, max_value=1)))
_budgets = st.lists(_budget, min_size=1, max_size=5)


def _run_costs(prog, pc):
    """Cumulative base costs along the straight-line run from ``pc``, by
    the rule a block follows: ops and jumps, through a closing branch or
    syscall, at most 64 instructions and no pc twice."""
    costs, seen = [0], set()
    while pc < len(prog.instrs) and pc not in seen and len(seen) < 64:
        instr = prog.instrs[pc]
        if instr.kind not in ("op", "jump", "branch", "syscall"):
            break
        seen.add(pc)
        costs.append(costs[-1] + instr.base)
        if instr.kind in ("branch", "syscall"):
            break
        pc = instr.target if instr.kind == "jump" else pc + 1
    return costs


def _cycles(budget, proc):
    if isinstance(budget, int):
        return budget
    k, delta = budget
    costs = _run_costs(proc.program, proc.pc)
    return max(1, costs[min(k, len(costs) - 1)] + delta)


def _slice(step, proc, budget):
    try:
        return step(proc, budget)
    except (VosError, ZeroDivisionError, KeyError, Opaque) as err:
        return ("fault", type(err).__name__, str(err))


def _state(proc):
    return (proc.pc, proc.regs, proc.callstack, proc.compute_remaining,
            proc.cpu_cycles, proc.syscalls_made)


def _slice_both(step, live, ref, budget, n):
    """One slice of each under one budget, compared; True when over."""
    cycles = _cycles(budget, ref)
    got = _slice(step, live, cycles)
    want = _slice(reference_interpreter.step, ref, cycles)
    assert got == want
    assert _state(live) == _state(ref)
    if got[0] == "fault" or got[1] == REASON_HALT:
        return True
    if got[1] == REASON_SYSCALL and got[2].dst is not None:
        for proc in (live, ref):  # the kernel would deliver a result
            proc.regs[got[2].dst] = n
    return False


def _run_both(step, live, ref, budgets):
    for n in range(400):
        if _slice_both(step, live, ref, budgets[n % len(budgets)], n):
            break
    assert live.memory.to_image() == ref.memory.to_image()
    assert live.to_image() == ref.to_image()


#: Four ``mov``\ s then a ``syscall``: one 80-cycle block, which a budget of
#: exactly 80 must not run — the reference has spent it before the syscall
#: — and 81 must.
_EXAMPLES = [dict(main=[("syscall", None, ["r0"])], subs=([], []), explicit_halt=True,
                  budgets=[(64, delta)]) for delta in (0, 1)]


def _differential(step, **config):
    """Slice by slice, under any quantum schedule, ``step`` returns what the
    pre-decoding interpreter returns and leaves the same process behind —
    or faults the same way, with the same message, at the same pc."""
    def differential(main, subs, explicit_halt, budgets):
        prog = _build_any(main, subs, explicit_halt)
        _run_both(step, Process(7, prog), Process(7, prog), budgets)

    for case in _EXAMPLES:
        differential = example(**case)(differential)
    return settings(deadline=None, **config)(given(budgets=_budgets, **_programs)(differential))


test_interpreter_matches_frozen_reference = _differential(Process.step, max_examples=300)


@settings(max_examples=60, deadline=None)
@given(budgets=_budgets, **_programs)
def test_a_restore_at_any_pc_runs_on_as_the_reference(main, subs, explicit_halt, budgets):
    """Walk a kept program one instruction at a time, imaging the process
    at each pc it reaches; a process restored from each image through
    ``Process.from_image`` — the shared program, its block table filled by
    whatever entered it before — runs on as the reference does."""
    with _own_table():
        walker = Process(7, build_program("prop.any", main=main, subs=subs,
                                          explicit_halt=explicit_halt))
        images = {}
        for n in range(400):
            images.setdefault(walker.pc, walker.to_image())
            got = _slice(reference_interpreter.step, walker, max(1, walker.compute_remaining))
            if got[0] == "fault" or got[1] == REASON_HALT:
                break
            if got[1] == REASON_SYSCALL and got[2].dst is not None:
                walker.regs[got[2].dst] = n
        for image in images.values():
            live, ref = Process.from_image(7, image), Process.from_image(7, image)
            assert live.program is walker.program
            _run_both(Process.step, live, ref, budgets)


@contextlib.contextmanager
def _own_table():
    """A program table with room, whatever the suite before kept; what it
    kept is put back after."""
    saved = dict(program_module._PROGRAMS)
    program_module._PROGRAMS.clear()
    try:
        yield
    finally:
        program_module._PROGRAMS.clear()
        program_module._PROGRAMS.update(saved)


@settings(max_examples=50, deadline=None)
@given(budgets=st.tuples(_budgets, _budgets), turns=st.lists(st.booleans(), min_size=1, max_size=6),
       **_programs)
def test_two_processes_sharing_a_program_interleave_as_the_reference(main, subs, explicit_halt,
                                                                     budgets, turns):
    """Two processes of one program, stepped in a drawn interleaving,
    each match their own reference: blocks hold no process's state."""
    prog = _build_any(main, subs, explicit_halt)
    pairs = [(Process(7, prog), Process(7, prog)), (Process(8, prog), Process(8, prog))]
    done = [False, False]
    for n in range(800):
        who = turns[n % len(turns)]
        if done[who]:
            who = not who
            if done[who]:
                break
        live, ref = pairs[who]
        done[who] = _slice_both(Process.step, live, ref, budgets[who][n % len(budgets[who])], n)
    for live, ref in pairs:
        assert live.to_image() == ref.to_image()


def _one_slice(prog, budget):
    live, ref = Process(9, prog), Process(9, prog)
    got = _slice(Process.step, live, budget)
    assert got == _slice(reference_interpreter.step, ref, budget)
    assert _state(live) == _state(ref)
    return got, live


def test_a_syscall_block_needs_a_cycle_left_after_its_cost():
    b = ProgramBuilder("edge")
    b.mov("r0", imm(1)).syscall(None, "probe", "r0")
    got, proc = _one_slice(b.build(), 20)
    assert got == (20, REASON_QUANTUM, None) and proc.pc == 1 and proc.syscalls_made == 0
    got, proc = _one_slice(b.build(), 21)
    assert got[:2] == (20, REASON_SYSCALL) and proc.pc == 2 and proc.syscalls_made == 1


def _lookup(key):
    return {}[key]


def test_a_key_error_an_op_raises_itself_stays_raw():
    """Even one naming a register that is set."""
    b = ProgramBuilder("raw")
    b.mov("r0", imm("r0")).mov("r1", imm(2)).op("r2", _lookup, "r0")
    got, proc = _one_slice(b.build(), 1_000)
    assert got == ("fault", "KeyError", "'r0'")
    assert proc.pc == 2 and proc.cpu_cycles == 0 and proc.regs == {"r0": "r0", "r1": 2}


def test_unset_register_fault_names_the_faulting_pc():
    b = ProgramBuilder("faulty")
    b.mov("x", imm(1)).mov("y", imm(2))
    b.op("z", _sum, "x", "nope")
    proc = Process(9, b.build())
    with pytest.raises(VosError) as err:
        proc.step(1_000)
    assert str(err.value) == "pid 9 (faulty) pc=2: unset register 'nope'"
    assert proc.pc == 2 and proc.cpu_cycles == 0


# ---------------------------------------------------------------------------
# hand mutations of the block path: the differential must catch each
# ---------------------------------------------------------------------------

#: what goes wrong -> (the live text in ``repro.vos.process``, the broken text)
MUTATIONS = {
    "a syscall block runs with its cost as the whole budget": (
        "need = max(need, cost + max(instr.base, 1))", "need = max(need, cost + instr.base)"),
    "a fault is mapped to the line before": (
        "[line - _FIRST_LINE]", "[line - _FIRST_LINE - 1]"),
    "_lt inlined as <=": (
        "{'<' if fn is _lt else '>'}", "{'<=' if fn is _lt else '>'}"),
    "a syscall block does not count the syscall": (
        "                            self.syscalls_made += 1\n"
        "                            reason, payload = REASON_SYSCALL, result\n",
        "                            reason, payload = REASON_SYSCALL, result\n"),
    "constants bound per shape, not per (program, pc)": (
        'fn = FunctionType(code, globals(), "block", tuple(consts))',
        'fn = globals().setdefault("_FNS", {}).setdefault(\n'
        '        source, FunctionType(code, globals(), "block", tuple(consts)))'),
}


#: the differential as the mutation tests run it: the same draws every
#: time, and no shrinking of what it finds
_SEARCH = dict(max_examples=100, derandomize=True, database=None,
               phases=[Phase.explicit, Phase.generate])


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_mutated_block_path_is_caught(name):
    twin = mutant(process_module, *MUTATIONS[name])
    twin.SyscallRequest = process_module.SyscallRequest  # payloads compare with the reference's
    with pytest.raises(Exception) as caught:  # whatever the broken path got wrong, or raised
        _differential(twin.Process.step, **_SEARCH)()
    assert not isinstance(caught.value, InvalidArgument)
