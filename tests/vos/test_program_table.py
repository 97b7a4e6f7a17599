"""The program table against building from scratch.

``build_program`` keeps the one ``Program`` each (builder function, name,
params) built and hands it to every later caller.  ``reference_build`` is
the parent's ``build_program`` — the builder runs on every call — frozen
verbatim, and the rule is that a caller can never tell the two apart
except by the clock:

* for every program ``src/repro`` registers and drawn params, what the
  table returns is instruction for instruction what a fresh build yields
  (opcode, base cost, destination, operands, syscall name, jump target,
  branch sense, and the ``op`` function by its code, defaults and closure
  contents — a lambda is a new object per build), with the same labels,
  params and dirty rate, all compared without conflating ``1``, ``True``
  and ``1.0``;
* running BT/NAS, PETSc, CPI, ``harness.writer`` and the per-pod daemons
  to completion leaves every immediate and every param of every shared
  program encoding to the bytes it encoded to before — the rule that
  makes sharing sound, "an ``op`` never mutates an operand in place", held
  to the applications that ship;
* each way the table could hand out the wrong program is a named test,
  and the table broken by hand in that way must fail it.
"""

import contextlib
import copy
import dataclasses
import enum
import sys
import types
from collections import Counter
from typing import NamedTuple

import numpy as np
import pytest

import repro.harness  # noqa: F401 - registers harness.writer
import repro.probes  # noqa: F401 - registers the scenario.* programs
from repro.apps import btnas, cpi, petsc_bratu
from repro.cluster import Cluster
from repro.cluster import chaos  # noqa: F401 - registers the chaos.* programs
from repro.core import codec
from repro.errors import CodecError
from repro.fleet import world as fleet_world
from repro.middleware import launch_spmd
from repro.vos import DEAD
from repro.vos.program import Imm, Instr, Program, imm, program

from ..mutation import first_difference, mutant
from . import reference_build as reference

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

#: ``repro.vos`` exports the ``program`` decorator under the module's name
program_module = sys.modules["repro.vos.program"]

fleet_world._register_idle_program()


# ---------------------------------------------------------------------------
# what a program is, in a form ``==`` can compare
# ---------------------------------------------------------------------------


def canon(value):
    """``value`` so that ``==`` neither conflates types (``1 == True ==
    1.0``) nor trips over an array: image bytes where the codec can write
    it, a Python function by what it would compute."""
    if isinstance(value, types.FunctionType):
        return (value.__code__, canon(value.__defaults__), canon(value.__kwdefaults__),
                [canon(cell.cell_contents) for cell in value.__closure__ or ()])
    try:
        return codec.encode(value)
    except CodecError:
        pass
    if isinstance(value, (list, tuple)):
        return type(value), [canon(item) for item in value]
    if isinstance(value, dict):
        return dict, [(canon(key), canon(item)) for key, item in value.items()]
    return value    # a builtin (``dict``, ``len``) or a class: itself


def operands(instr):
    return [("imm", canon(src.value)) if src.__class__ is Imm else src for src in instr.srcs]


def describe(prog):
    """Everything execution or an image can see of ``prog``."""
    return {
        "name": prog.name, "params": canon(prog.params), "labels": prog.labels,
        "dirty_rate": canon(prog.dirty_rate),
        "instrs": [(i.opcode, i.base, i.dst, operands(i), i.name, i.target, i.sense, canon(i.fn))
                   for i in prog.instrs],
    }


@contextlib.contextmanager
def empty_table(table=program_module):
    """Run with nothing remembered (the suite before this test may have
    filled the table), then put back what was."""
    saved = dict(table._PROGRAMS)
    table._PROGRAMS.clear()
    try:
        yield table._PROGRAMS
    finally:
        table._PROGRAMS.clear()
        table._PROGRAMS.update(saved)


# ---------------------------------------------------------------------------
# every program src/repro registers x drawn params
# ---------------------------------------------------------------------------


def _some(rnd, **choices):
    """A drawn subset of optional params, each with a drawn value."""
    return {name: rnd.choice(values) for name, values in choices.items() if rnd.random() < 0.5}


def _spmd(rnd, sizes):
    nprocs = rnd.choice(sizes)
    return {"rank": rnd.randrange(nprocs), "nprocs": nprocs,
            "vips": [f"10.77.{rnd.randrange(4)}.{i + 1}" for i in range(nprocs)]}


def _btnas(rnd):
    return {**_spmd(rnd, (1, 4, 9, 16)),
            **_some(rnd, grid=(24, 48), iters=(1, 8, 30), cycles_per_point=(1, 20_000),
                    face_pad=(0, 4096, 32_768))}


def _bratu(rnd):
    return {**_spmd(rnd, (1, 2, 3, 8, 16)),
            **_some(rnd, grid=(16, 32), lam=(1.0, 6.0), outer=(1, 4), sweeps=(1, 10),
                    cycles_per_point=(1, 5_000))}


def _cpi(rnd):
    return {**_spmd(rnd, (1, 2, 5, 16)),
            **_some(rnd, intervals=(1, 200_000), cycles_per_interval=(1, 2_000))}


def _daemon(rnd):
    app = rnd.choice(("apps.btnas", "apps.petsc_bratu", "apps.cpi"))
    return {"app": app, "params": DRAWS[app](rnd)}


_PORT = (1, 9100, 65_535)
_VIP = ("10.0.0.1", "10.77.3.9")

#: name -> params for it, drawn from a ``random.Random``
DRAWS = {
    "apps.btnas": _btnas,
    "apps.petsc_bratu": _bratu,
    "apps.cpi": _cpi,
    "apps.povray_master": lambda rnd: {
        "nworkers": rnd.randint(1, 8),
        **_some(rnd, width=(32, 64), height=(16, 48), tile=(8, 16))},
    "apps.povray_worker": lambda rnd: {
        "task_id": rnd.randint(1, 8), "master_vip": rnd.choice(_VIP),
        **_some(rnd, width=(32, 64), height=(16, 48), cycles_per_pixel=(1, 900))},
    "middleware.daemon": _daemon,
    "harness.writer": lambda rnd: {
        "ballast": rnd.choice((0, 1_000_000)), "dirty_rate": rnd.choice((0, 0.0, 4e6, 4_000_000)),
        "chunk_cycles": rnd.choice((1, 10**6)), "chunks": rnd.randint(0, 5)},
    "scenario.oob-receiver": lambda rnd: {
        "port": rnd.choice(_PORT), **_some(rnd, pause=(0.0, 2.0, 2))},
    "scenario.oob-sender": lambda rnd: {
        "peer": rnd.choice(_VIP), "port": rnd.choice(_PORT), **_some(rnd, linger=(1.0, 60.0))},
    "scenario.heartbeat": lambda rnd: {
        "threshold": rnd.choice((1.0, 5.0, 5)), **_some(rnd, work=(0.5, 3.0))},
    "scenario.timer-user": lambda rnd: {"delay": rnd.choice((0.0, 4.0, 4))},
    "scenario.ring-node": lambda rnd: {
        "my_port": rnd.choice(_PORT), "next_vip": rnd.choice(_VIP),
        "next_port": rnd.choice(_PORT), "laps": rnd.randint(1, 9),
        "starter": rnd.choice((True, False, 1, 0)), **_some(rnd, compute=(1, 2_000_000))},
    "scenario.queue-sender": lambda rnd: {
        "peer": rnd.choice(_VIP), "port": rnd.choice(_PORT), "chunks": rnd.randint(1, 9),
        "chunk_bytes": rnd.choice((1, 4096)), **_some(rnd, compute_per_chunk=(1, 1_500_000))},
    "scenario.queue-receiver": lambda rnd: {
        "port": rnd.choice(_PORT), "total_bytes": rnd.choice((1, 36_864)),
        **_some(rnd, compute_per_read=(1, 3_000_000), rcvbuf=(4096, 32_768))},
    "chaos.pp-server": lambda rnd: {
        "port": rnd.choice(_PORT), "rounds": rnd.randint(1, 900),
        **_some(rnd, compute=(1, 150_000), dirty_rate=(0, 0.0, 2e6))},
    "chaos.pp-client": lambda rnd: {
        "server": rnd.choice(_VIP), "port": rnd.choice(_PORT), "rounds": rnd.randint(1, 900),
        **_some(rnd, compute=(1, 150_000), dirty_rate=(0, 0.0, 2e6))},
    "fleet.idle": lambda rnd: _some(rnd, port=_PORT, ballast=(0, 1_000_000)),
}


def test_every_program_the_library_registers_has_a_draw():
    shipped = {name for name, fn in program_module._REGISTRY.items()
               if fn.__module__.startswith("repro.")}
    assert shipped == set(DRAWS)


@settings(max_examples=150, deadline=None)
@given(rnd=st.randoms(use_true_random=False))
def test_a_table_hit_is_instruction_for_instruction_a_fresh_build(rnd):
    name = rnd.choice(sorted(DRAWS))
    params = DRAWS[name](rnd)
    with empty_table() as table:
        first = program_module.build_program(name, **copy.deepcopy(params))
        again = program_module.build_program(name, **copy.deepcopy(params))
        # what a restore passes: the params as an image brings them back
        restored = program_module.build_program(name, **codec.decode(codec.encode(params)))
        assert again is first and restored is first and len(table) == 1
    assert first_difference(describe(reference.build_program(name, **params)),
                            describe(first)) is None


# ---------------------------------------------------------------------------
# the applications that ship never write to a shared program
# ---------------------------------------------------------------------------

SMALL = {
    "apps.btnas": (4, lambda rank, vips: btnas.params_of(
        rank, vips, nprocs=4, grid=24, iters=8, cycles_per_point=20_000, face_pad=4096)),
    "apps.petsc_bratu": (3, lambda rank, vips: petsc_bratu.params_of(
        rank, vips, nprocs=3, grid=16, outer=3, sweeps=4, cycles_per_point=5_000)),
    "apps.cpi": (4, lambda rank, vips: cpi.params_of(
        rank, vips, nprocs=4, intervals=200_000, cycles_per_interval=2_000)),
}


def immediates(prog):
    return [canon(src.value) for instr in prog.instrs for src in instr.srcs
            if src.__class__ is Imm] + [canon(prog.params)]


class Snapshots(dict):
    """A program table that notes what a program's immediates and params
    encode to as it is kept — before any process has run it."""

    def __init__(self):
        super().__init__()
        self.before = {}

    def __setitem__(self, key, prog):
        super().__setitem__(key, prog)
        self.before[key] = immediates(prog)

    def after(self):
        return {key: immediates(prog) for key, prog in self.items()}


@pytest.mark.parametrize("app", list(SMALL))
def test_running_an_application_leaves_its_shared_programs_as_they_were(app, monkeypatch):
    nprocs, params_of = SMALL[app]
    table = Snapshots()
    monkeypatch.setattr(program_module, "_PROGRAMS", table)
    cluster = Cluster.build(nprocs, seed=17)
    handle = launch_spmd(cluster, app, nprocs, params_of, name="shared")
    cluster.node(0).kernel.spawn(program_module.build_program(
        "harness.writer", ballast=1_000_000, dirty_rate=4e6, chunk_cycles=10**6, chunks=5))
    cluster.engine.run(until=600.0)
    assert handle.ok(cluster)
    assert all(proc.state == DEAD and proc.exit_code == 0
               for node in cluster.nodes for proc in node.kernel.procs.values())
    assert Counter(prog.name for prog in table.values()) == {
        app: nprocs, "middleware.daemon": nprocs, "harness.writer": 1}
    assert table.after() == table.before


@program("table.scribbler")
def _scribbler(b):
    """Breaks the rule: appends to its operand, which is the immediate."""
    b.mov("seen", imm([]))
    b.op("seen", lambda seen: seen.append(1) or seen, "seen")
    b.halt(imm(0))


def test_an_op_that_wrote_to_its_operand_would_be_seen(monkeypatch):
    table = Snapshots()
    monkeypatch.setattr(program_module, "_PROGRAMS", table)
    cluster = Cluster.build(1, seed=17)
    proc = cluster.node(0).kernel.spawn(program_module.build_program("table.scribbler"))
    cluster.engine.run(until=1.0)
    assert proc.state == DEAD and proc.exit_code == 0
    assert table.after() != table.before


def test_programs_instructions_and_immediates_are_frozen():
    prog = program_module.build_program("harness.writer", ballast=1, dirty_rate=0,
                                        chunk_cycles=1, chunks=1)
    assert isinstance(prog.instrs, tuple) and isinstance(prog.instrs[0].srcs, tuple)
    for obj, cls, field in ((prog, Program, "instrs"), (prog.instrs[0], Instr, "srcs"),
                            (prog.instrs[0].srcs[0], Imm, "value")):
        assert type(obj) is cls
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, None)


# ---------------------------------------------------------------------------
# each way to hand out the wrong program, as a named test
# ---------------------------------------------------------------------------

BUILDS = []


@program("table.echo")
def _echo(b, **params):
    """Every param shows in an instruction, so a wrong program shows."""
    BUILDS.append(params)
    for name, value in params.items():
        b.mov(name, imm(value))
    b.halt(imm(0))


def agrees(table, name, **params):
    """``table``'s program for (name, params) is what a fresh build is."""
    expected = describe(reference.build_program(name, **copy.deepcopy(params)))
    return first_difference(expected, describe(table.build_program(name, **params))) is None


def test_a_later_call_returns_the_program_the_first_one_built(table=program_module):
    with empty_table(table):
        del BUILDS[:]
        first = table.build_program("table.echo", rank=3, vips=["a", "b"], opts={"k": (1, 2.5)})
        later = table.build_program("table.echo", rank=3, vips=["a", "b"], opts={"k": (1, 2.5)})
        assert later is first and len(BUILDS) == 1


def test_programs_differing_in_one_param_are_told_apart(table=program_module):
    base = {"p": 1, "q": "x", "r": [1, 2]}
    with empty_table(table):
        assert agrees(table, "table.echo", **base)
        for name, other in (("p", 2), ("q", "y"), ("r", [1, 3]), ("r", [1, 2, 3])):
            assert agrees(table, "table.echo", **{**base, name: other}), (name, other)
        assert agrees(table, "table.echo", **base, s=None)
        assert agrees(table, "table.echo", p=1, q="x")


def test_equal_values_of_different_types_are_different_programs(table=program_module):
    families = (
        (1, True, 1.0), (0, False, 0.0, -0.0), ([1, 2], (1, 2)), ("a", b"a"),
        ({"x": 1, "y": 2}, {"y": 2, "x": 1}), ([], (), {}, None, ""),
    )
    with empty_table(table):
        for family in families:
            for value in family + family[::-1]:
                assert agrees(table, "table.echo", v=value), value
                assert agrees(table, "table.echo", v=[value]), [value]
                assert agrees(table, "table.echo", v={"k": value}), {"k": value}
                assert agrees(table, "table.echo", v={"k": (value, [value])}), value
    with empty_table(table):
        # the order of the params themselves reaches the image too
        assert agrees(table, "table.echo", p=1, q=2)
        assert agrees(table, "table.echo", q=2, p=1)


def test_a_name_registered_anew_builds_with_the_new_function(table=program_module):
    def old_builder(b, *, n):
        b.mov("old", imm(n))
        b.halt(imm(0))

    def new_builder(b, *, n):
        b.mov("new", imm(n))
        b.halt(imm(1))

    registry = program_module._REGISTRY
    with empty_table(table):
        try:
            program("table.reborn")(old_builder)
            assert agrees(table, "table.reborn", n=5)
            del registry["table.reborn"]
            program("table.reborn")(new_builder)
            assert agrees(table, "table.reborn", n=5)
        finally:
            registry.pop("table.reborn", None)


def test_a_caller_changing_its_params_afterwards_does_not_reach_the_program(table=program_module):
    with empty_table(table):
        vips, opts = ["a", "b"], {"k": [1]}
        prog = table.build_program("table.echo", vips=vips, opts=opts)
        before = describe(prog)
        vips.append("c")
        opts["k"].append(2)
        opts["new"] = 0
        assert describe(prog) == before
        assert table.build_program("table.echo", vips=["a", "b"], opts={"k": [1]}) is prog
        assert agrees(table, "table.echo", vips=["a", "b"], opts={"k": [1]})
        assert agrees(table, "table.echo", vips=vips, opts=opts)


class _Pair(NamedTuple):
    left: int
    right: int


class _Level(enum.IntEnum):
    LOW = 1


class _Name(str):
    pass


#: what the key must not represent: an image brings each back as another
#: type (or not at all), and some change under their owner's hands
UNREPRESENTABLE = (np.arange(3), np.int64(1), np.float64(1.0), _Pair(1, 2), _Level.LOW,
                   _Name("a"), object(), {1, 2}, bytearray(b"a"), [np.arange(2)],
                   {"k": _Pair(1, 2)})


def test_params_the_key_cannot_represent_build_fresh_and_are_never_kept(table=program_module):
    with empty_table(table) as kept:
        for value in UNREPRESENTABLE:
            first = table.build_program("table.echo", v=value)
            second = table.build_program("table.echo", v=value)
            assert second is not first, value
            assert first.params["v"] is value
        # two arrays that differ: the second is not the first's program
        assert table.build_program("table.echo", v=np.arange(3)).params["v"].tolist() == [0, 1, 2]
        assert table.build_program("table.echo", v=np.arange(4)).params["v"].tolist() == [0, 1, 2, 3]
        assert not kept


def test_the_table_stops_growing_when_it_is_full(monkeypatch):
    monkeypatch.setattr(program_module, "_PROGRAMS_SIZE", 3)
    with empty_table() as kept:
        first = [program_module.build_program("table.echo", n=n) for n in range(5)]
        again = [program_module.build_program("table.echo", n=n) for n in range(5)]
        assert len(kept) == 3
        assert [a is b for a, b in zip(first, again)] == [True, True, True, False, False]
        assert all(agrees(program_module, "table.echo", n=n) for n in range(5))


def test_an_unknown_name_and_a_refusing_builder_raise_and_keep_nothing():
    with empty_table() as kept:
        with pytest.raises(program_module.VosError):
            program_module.build_program("table.no-such-program")
        with pytest.raises(ValueError):
            program_module.build_program("apps.btnas", **btnas.params_of(0, ["v"] * 3, nprocs=3))
        with pytest.raises(TypeError):
            program_module.build_program("harness.writer", ballast=1)
        assert not kept


# ---------------------------------------------------------------------------
# hand mutations of the table: each must fail the test named beside it
# ---------------------------------------------------------------------------

#: what goes wrong -> (the live text, the broken text, the test that must fail)
MUTATIONS = {
    "the key drops one param": (
        "key = (builder_fn, name, _freeze(params))",
        "key = (builder_fn, name, _freeze(dict(list(params.items())[1:])))",
        test_programs_differing_in_one_param_are_told_apart),
    "the key conflates 1, True and 1.0": (
        "    tp = type(value)\n    if tp in _ATOMS:",
        "    tp = type(value)\n    if tp in (bool, int, float):\n        return (value,)\n"
        "    if tp in _ATOMS:",
        test_equal_values_of_different_types_are_different_programs),
    "the key takes a list for a tuple": (
        "return tp, tuple(map(_freeze, value))", "return tuple(map(_freeze, value))",
        test_equal_values_of_different_types_are_different_programs),
    "the key forgets the order of a dict": (
        "return tp, tuple((_freeze(k), _freeze(v)) for k, v in value.items())",
        "return tp, frozenset((_freeze(k), _freeze(v)) for k, v in value.items())",
        test_equal_values_of_different_types_are_different_programs),
    "the key omits the builder function": (
        "key = (builder_fn, name, _freeze(params))", "key = (name, _freeze(params))",
        test_a_name_registered_anew_builds_with_the_new_function),
    "the kept params are the caller's own lists": (
        "params = copy.deepcopy(params)", "params = dict(params)",
        test_a_caller_changing_its_params_afterwards_does_not_reach_the_program),
    "a param the key cannot represent is kept anyway": (
        "    except TypeError:\n        key = None",
        "    except TypeError:\n        key = (builder_fn, name, tuple(params))",
        test_params_the_key_cannot_represent_build_fresh_and_are_never_kept),
    "nothing is ever kept": (
        "    if keep:\n        _PROGRAMS[key] = prog\n", "",
        test_a_later_call_returns_the_program_the_first_one_built),
}


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_mutated_table_is_caught(name):
    old, new, check = MUTATIONS[name]
    twin = mutant(program_module, old, new)
    # the twin keeps its own table and key; registrations, the builder and
    # the instruction classes are the live module's
    twin._REGISTRY = program_module._REGISTRY
    twin.ProgramBuilder = program_module.ProgramBuilder
    with pytest.raises(AssertionError):
        check(twin)
    check()     # and the live table passes it
