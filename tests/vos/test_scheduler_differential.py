"""The direct scheduler↔kernel hand-off against the frozen parent one.

``reference_scheduler`` is the parent's ``Scheduler`` (every enqueue goes
through the run queue and a kick) and its ``Kernel._run_handler`` /
``complete_syscall`` (the ``isinstance`` chains), verbatim.  A drawn set
of processes — compute bursts, sleeps, syscall loops, a TCP conversation
between a pair of them, a memory-dirtying rate, SIGSTOP / SIGCONT /
SIGKILL at drawn times, one or two CPUs — runs once in each world, and
who ran on which CPU, when, and why each slice ended must be the same
list, with the same cycle accounts, dirty bytes, register contents and
event count at the end.

Then the hand-off is broken by hand; each mutant must disagree with the
oracle on a fixed corpus of such worlds.
"""

import functools
import random

import pytest

from repro.errors import NoSuchProcessError
from repro.net import Fabric, NetStack
from repro.sim import Engine
from repro.vos import Kernel, Memory, SIGCONT, SIGKILL, SIGSTOP, imm
from repro.vos import kernel as kernel_module
from repro.vos import scheduler as scheduler_module
from repro.vos.program import ProgramBuilder

from ..mutation import first_difference, mutant
from . import reference_scheduler as reference

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

IP, PORT = "10.0.0.1", 7000
HZ = 1e9        # 1 ms quantum = 10^6 cycles


def draw_world(rnd):
    """``(ncpus, [(role, dirty rate, steps)], [(time, proc index, signal)])``;
    processes 0 and 1 may be the two ends of a TCP conversation."""
    ncpus = rnd.choice((1, 2))
    nprocs = rnd.randint(2, 6)
    talking = rnd.random() < 0.6
    procs = []
    for index in range(nprocs):
        role = ("server", "client")[index] if talking and index < 2 else "loner"
        kinds = ("compute", "compute", "sleep", "spin") + (("send", "recv") * (role != "loner"))
        steps = []
        for _ in range(rnd.randint(1, 6)):
            kind = rnd.choice(kinds)
            if kind == "compute":
                steps.append((kind, rnd.choice((1, 50_000, 1_000_000, 3_500_000, 400_000_000))))
            elif kind == "sleep":
                steps.append((kind, rnd.choice((0.0, 1e-4, 2e-3, 0.3))))
            elif kind == "spin":
                steps.append((kind, rnd.randint(1, 20)))
            elif kind == "send":
                steps.append((kind, rnd.choice((1, 2_000, 40_000))))
            else:
                steps.append((kind, rnd.choice((1, 4096, 65536))))
        procs.append((role, rnd.choice((0.0, 0.0, 50e6)), tuple(steps)))
    signals = sorted((rnd.choice((1e-4, 3e-3, 0.05, 0.5)) * rnd.random(), rnd.randrange(nprocs),
                      rnd.choice((SIGSTOP, SIGSTOP, SIGCONT, SIGCONT, SIGKILL)))
                     for _ in range(rnd.randint(0, 5)))
    return ncpus, tuple(procs), tuple(signals)


def _first(pair):
    return pair[0]


def _program(role, dirty_rate, steps):
    b = ProgramBuilder(role)
    b.set_dirty_rate(dirty_rate)
    if role == "server":
        b.syscall("lfd", "socket", imm("tcp"))
        b.syscall(None, "bind", "lfd", imm((IP, PORT)))
        b.syscall(None, "listen", "lfd", imm(8))
        b.syscall("accepted", "accept", "lfd")
        b.op("fd", _first, "accepted")
    elif role == "client":
        b.syscall("fd", "socket", imm("tcp"))
        b.syscall("rc", "connect", "fd", imm((IP, PORT)))
    for step, (kind, arg) in enumerate(steps):
        if kind == "compute":
            b.compute(imm(arg))
        elif kind == "sleep":
            b.syscall(None, "sleep", imm(arg))
        elif kind == "spin":
            with b.for_range("i", imm(0), imm(arg)):
                b.syscall("pid", "getpid")
        elif kind == "send":
            b.syscall(f"sent{step}", "send", "fd", imm(bytes([step]) * arg), imm(0))
        else:
            b.syscall(f"got{step}", "recv", "fd", imm(arg), imm(0))
    b.halt(imm(0))
    return b.build()


def run_world(world, install=None):
    """Everything the two implementations must agree on."""
    ncpus, procs, signals = world
    with pytest.MonkeyPatch.context() as patch:
        if install is not None:
            install(patch)
        log = []
        scheduler = kernel_module.Scheduler     # whichever is installed
        dispatch, slice_done = scheduler._dispatch, scheduler._slice_done

        def logged_dispatch(self, cpu, proc):
            log.append((self.kernel.engine.now, proc.pid, cpu, "run"))
            dispatch(self, cpu, proc)

        def logged_slice_done(self, cpu, proc, reason, payload):
            log.append((self.kernel.engine.now, proc.pid, cpu, reason))
            slice_done(self, cpu, proc, reason, payload)

        patch.setattr(scheduler, "_dispatch", logged_dispatch)
        patch.setattr(scheduler, "_slice_done", logged_slice_done)

        engine = Engine(seed=7)
        kernel = Kernel(engine, "n", ncpus=ncpus, hz=HZ)
        NetStack(kernel, Fabric(engine), IP)
        spawned = []
        for role, dirty_rate, steps in procs:
            proc = kernel.spawn(_program(role, dirty_rate, steps),
                                memory=Memory(text=1 << 16, stack=1 << 16, heap=32 << 20))
            proc.memory.clear_dirty("ckpt")
            spawned.append(proc)

        def signal(index, sig):
            try:
                kernel.send_signal(spawned[index].pid, sig)
            except NoSuchProcessError:
                pass    # already dead: nothing to signal

        for at, index, sig in signals:
            engine.schedule(at, signal, index, sig)
        engine.run(until=30.0)
        return {
            "log": log, "events": engine.events_executed, "clock": engine.now,
            "busy": list(kernel.scheduler.busy_cycles), "cpus": list(kernel.scheduler.cpus),
            "queued": [p.pid for p in kernel.scheduler.runq],
            "procs": [(p.state, p.stopped, p.cpu_cycles, p.syscalls_made, p.pc, p.exit_code,
                       p.exit_time, p.compute_remaining, p.memory.dirty_table("ckpt"),
                       {name: value for name, value in p.regs.items() if name != "accepted"},
                       p.blocked_on.name if p.blocked_on else None, p.pending_result)
                      for p in spawned],
        }


@functools.lru_cache(maxsize=None)
def corpus():
    """``(world, what the reference observed)`` for fixed seeds."""
    worlds = [draw_world(random.Random(seed)) for seed in range(40)]
    return [(world, run_world(world, reference.install)) for world in worlds]


@settings(max_examples=100, deadline=None)
@given(rnd=st.randoms(use_true_random=False))
def test_drawn_processes_are_dispatched_the_same_in_both_worlds(rnd):
    world = draw_world(rnd)
    assert first_difference(run_world(world, reference.install), run_world(world)) is None


def test_the_corpus_reaches_what_it_is_there_for():
    seen = [observation for _world, observation in corpus()]
    reasons = {entry[3] for observation in seen for entry in observation["log"]}
    assert reasons == {"run", "quantum", "syscall", "halt"}
    worlds = [world for world, _seen in corpus()]
    assert {world[0] for world in worlds} == {1, 2}
    assert {sig for world in worlds for _at, _index, sig in world[2]} == {SIGSTOP, SIGCONT, SIGKILL}
    # a queue formed (more runnable processes than CPUs) and a process was
    # left stopped, blocked or killed somewhere; bytes crossed a socket
    assert any(len({e[1] for e in obs["log"]}) > len(obs["cpus"]) for obs in seen)
    states = {proc[0] for obs in seen for proc in obs["procs"]}
    assert {"dead", "blocked"} <= states
    assert any(proc[1] for obs in seen for proc in obs["procs"])
    assert any(proc[5] == -9 for obs in seen for proc in obs["procs"])
    assert any(isinstance(value, bytes) and value for obs in seen for proc in obs["procs"]
               for value in proc[9].values())
    assert any(dirty["heap"] for obs in seen for proc in obs["procs"] for dirty in [proc[8]])


# ---------------------------------------------------------------------------
# hand mutations of the hand-off: each must be caught
# ---------------------------------------------------------------------------

_swap_scheduler = lambda patch, twin: patch.setattr(kernel_module, "Scheduler", twin.Scheduler)  # noqa: E731

#: name -> (module, the live text, the broken text, how to install the twin)
MUTATIONS = {
    "direct dispatch taken with a non-empty run queue": (
        scheduler_module, "if not self.runq and None in self.cpus:", "if None in self.cpus:",
        _swap_scheduler),
    "no kick after a slice end with a queued process": (
        scheduler_module, "        if self.runq:\n            self.kick()\n", "",
        _swap_scheduler),
    "dirty charging skipped at every rate": (
        scheduler_module, "if proc.program.dirty_rate > 0.0:", "if proc.program.dirty_rate > 1e12:",
        _swap_scheduler),
    "a delayed completion delivered at once": (
        kernel_module, "if kind is Complete:", "if kind is Complete or kind is CompleteAfter:",
        lambda patch, twin: patch.setattr(kernel_module.Kernel, "_run_handler",
                                          twin.Kernel._run_handler)),
}


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_mutated_hand_off_is_caught(name):
    module, old, new, install = MUTATIONS[name]
    twin = mutant(module, old, new)
    caught = next((i for i, (world, expected) in enumerate(corpus())
                   if first_difference(expected, run_world(world, lambda patch: install(patch, twin)))),
                  None)
    assert caught is not None, f"no corpus world tells {name!r} from the real hand-off"
