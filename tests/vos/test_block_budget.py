"""A compile budget for the interpreter's blocks, counted, not timed.

Like ``test_build_budget.py``: ``process._compile_block`` is wrapped to
note each (program, entry pc) it compiles for, and the Fig. 5 worlds —
BT/NAS, PETSc and CPI on 16 pods each (``harness.run_fig5_cell``) — run
to a verified answer.  Each (program, entry pc) may compile once, a
second set of worlds in the same interpreter compiles none (the blocks
hang off the shared programs), and the blocks of all three applications
come from at most 64 distinct sources (one per block *shape*).  Past the
bound of the shape memo, and for a program the program table does not
keep, blocks still compile and run correctly.
"""

import sys
from collections import Counter

import numpy as np

from repro.harness import run_fig5_cell
from repro.vos.process import Process
from repro.vos.program import build_program, imm, program

from . import reference_interpreter

program_module = sys.modules["repro.vos.program"]
process_module = sys.modules["repro.vos.process"]

APPS = ("BT/NAS", "PETSc", "CPI")
SCALE = 0.3


def _counting(monkeypatch):
    """Fresh program and shape tables, and a tally of compiles keyed by
    (program instructions, entry pc) — the kept programs stay alive, so
    their ids are theirs alone."""
    compiles = Counter()
    real = process_module._compile_block

    def counted(instrs, pc):
        compiles[id(instrs), pc] += 1
        return real(instrs, pc)

    monkeypatch.setattr(program_module, "_PROGRAMS", {})
    monkeypatch.setattr(process_module, "_SHAPES", {})
    monkeypatch.setattr(process_module, "_compile_block", counted)
    return compiles


def test_fig5_worlds_compile_each_entry_once(monkeypatch):
    compiles = _counting(monkeypatch)
    for app in APPS:
        assert run_fig5_cell(app, 16, "zapc", scale=SCALE) > 0
    assert compiles and set(compiles.values()) == {1}
    assert len(process_module._SHAPES) <= 64

    cold = sum(compiles.values())
    for app in APPS:
        run_fig5_cell(app, 16, "zapc", scale=SCALE)
    assert sum(compiles.values()) == cold


def test_programs_run_correctly_with_the_shape_memo_full(monkeypatch):
    _counting(monkeypatch)
    monkeypatch.setattr(process_module, "_SHAPES_SIZE", 0)
    assert run_fig5_cell("CPI", 4, "zapc", scale=0.2) > 0  # raises on a wrong answer
    assert not process_module._SHAPES


@program("blocks.array-sum")
def _array_sum(b, *, values):
    """Sum an array param's items in a loop: a block per iteration."""
    b.mov("acc", imm(0))
    with b.for_range("i", imm(0), imm(len(values))):
        b.op("acc", lambda acc, i, vs=values: acc + int(vs[i]), "acc", "i")
    b.halt(imm(0))


def test_a_program_the_table_does_not_keep_runs_its_own_blocks():
    values = np.arange(40)
    prog = build_program("blocks.array-sum", values=values)
    assert build_program("blocks.array-sum", values=values) is not prog  # never kept
    live, ref = Process(1, prog), Process(1, prog)
    for budget in (50, 101, 7, 1_000):
        assert live.step(budget) == reference_interpreter.step(ref, budget)
    while True:
        got = live.step(333)
        assert got == reference_interpreter.step(ref, 333)
        if got[1] == "halt":
            break
    assert live.regs == ref.regs and live.regs["acc"] == sum(range(40))
    assert live.cpu_cycles == ref.cpu_cycles
    assert prog.blocks
