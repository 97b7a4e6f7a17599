"""Unit tests for the mini-ISA builder and program registry."""

import pytest

from repro.errors import VosError
from repro.vos.program import (
    INSTR_BASE_CYCLES,
    OPCODES,
    Imm,
    ProgramBuilder,
    build_program,
    imm,
    program,
    registered_programs,
)


def _add(a, b):
    return a + b


def test_builder_emits_and_resolves_labels():
    b = ProgramBuilder("t")
    b.mov("x", imm(0))
    b.label("top")
    b.op("x", _add, "x", imm(1))
    b.op("cc", lambda x: x < 3, "x")
    b.branch_if("cc", "top")
    b.halt(imm(0))
    prog = b.build()
    assert prog.labels["top"] == 1
    branch = prog.instrs[3]
    assert branch.kind == "branch" and branch.target == 1


def test_undefined_label_rejected():
    b = ProgramBuilder("t")
    b.jump("nowhere")
    with pytest.raises(VosError, match="nowhere"):
        b.build()


def test_duplicate_label_rejected():
    b = ProgramBuilder("t")
    b.label("a")
    with pytest.raises(VosError):
        b.label("a")


@pytest.mark.parametrize("emit", [
    lambda b: b.op("x", _add, "x", 5),
    lambda b: b.compute(100),
    lambda b: b.syscall(None, "sleep", 1.5),
    lambda b: b.branch_if(None, "top"),
    lambda b: b.for_range("i", 0, imm(3)),
    lambda b: b.halt(0),
])
def test_bad_operand_rejected_when_emitted(emit):
    """Not when the instruction first runs: a program with a bare literal
    where an operand belongs never gets built."""
    b = ProgramBuilder("t")
    b.mov("x", imm(0))
    with pytest.raises(VosError, match=r"'t' instruction 1 .*bad operand .* \(wrap literals with imm\(\)\)"):
        emit(b)


def test_instructions_are_decoded_once_at_build_time():
    b = ProgramBuilder("t")
    b.label("top")
    b.op("x", _add, "x", imm(1))
    b.branch_ifnot("x", "top")
    op, branch = b.build().instrs
    assert (op.kind, op.base, op.srcs) == ("op", INSTR_BASE_CYCLES["op"], ("x", imm(1)))
    assert (branch.kind, branch.base, branch.target, branch.sense) == \
        ("branch", INSTR_BASE_CYCLES["branch"], 0, False)
    assert op.opcode == OPCODES["op"] != branch.opcode
    assert not hasattr(op, "__dict__")  # slots: ~20 k instructions per run
    with pytest.raises(AttributeError):
        op.target = 3  # frozen


def test_registry_build_and_params():
    @program("test.registry-demo")
    def _build(b, *, n):
        b.mov("n", imm(n))
        b.halt()

    prog = build_program("test.registry-demo", n=7)
    assert prog.name == "test.registry-demo"
    assert prog.params == {"n": 7}
    assert "test.registry-demo" in registered_programs()


def test_registry_rejects_duplicates():
    @program("test.registry-dup")
    def _build(b):
        b.halt()

    with pytest.raises(VosError):
        @program("test.registry-dup")
        def _build2(b):
            b.halt()


def test_registry_unknown_program():
    with pytest.raises(VosError):
        build_program("test.does-not-exist")


def test_registry_rebuild_is_deterministic():
    @program("test.registry-det")
    def _build(b, *, loops):
        with b.for_range("i", imm(0), imm(loops)):
            b.compute(imm(10))
        b.halt()

    p1 = build_program("test.registry-det", loops=4)
    p2 = build_program("test.registry-det", loops=4)
    assert len(p1.instrs) == len(p2.instrs)
    assert [i.kind for i in p1.instrs] == [i.kind for i in p2.instrs]
    assert [i.target for i in p1.instrs] == [i.target for i in p2.instrs]


def test_imm_wrapper():
    assert imm(5) == Imm(5)
    assert imm("literal").value == "literal"
