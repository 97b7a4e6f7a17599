"""``build_program`` as it stood before the program table, frozen verbatim
as a test-only oracle.

:func:`build_program` below is ``repro.vos.program.build_program`` exactly
as the parent commit shipped it: look the builder function up, run it over
a fresh :class:`~repro.vos.program.ProgramBuilder`, freeze the result —
every call, for every process.  It reads the live registry and the live
builder class on purpose: what is frozen is *how often a program is
derived* (always), not how instructions are emitted, so whatever the live
``build_program`` hands out must be instruction for instruction what this
one derives from scratch at that moment.

``tests/vos/test_program_table.py`` holds the live function to it.  Do not
"fix" anything here.
"""

from __future__ import annotations

from typing import Any

from repro.errors import VosError
from repro.vos.program import _REGISTRY, Program, ProgramBuilder


def build_program(name: str, **params: Any) -> Program:
    """Instantiate registered program ``name`` with ``params``.

    Deterministic: the same name+params always yield the same instruction
    sequence, which is what lets a checkpoint record just the pair.
    """
    builder_fn = _REGISTRY.get(name)
    if builder_fn is None:
        raise VosError(f"no program registered under {name!r}")
    b = ProgramBuilder(name, params)
    builder_fn(b, **params)
    return b.build()
