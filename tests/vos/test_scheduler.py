"""Scheduler tests: fairness, burn slices, exact preemption."""

import pytest

from repro.errors import VosError
from repro.vos import Kernel, SIGCONT, SIGKILL, SIGSTOP, imm
from repro.vos.process import DEAD
from repro.vos.program import ProgramBuilder
from repro.vos.scheduler import BURN_SLICE_S


def _spin(seconds, hz):
    b = ProgramBuilder("spin")
    b.compute(imm(int(seconds * hz)))
    b.halt(imm(0))
    return b.build()


def test_sub_cycle_quantum_rejected(engine):
    """A quantum that rounds to zero cycles would dispatch ``step(0)``, which
    executes nothing, at delay 0 forever (the run only ended at max_events)."""
    with pytest.raises(VosError, match="quantum"):
        Kernel(engine, "n", hz=1e6, quantum_s=1e-7)
    kernel = Kernel(engine, "n", hz=1e6, quantum_s=1e-6)  # exactly one cycle is fine
    proc = kernel.spawn(_spin(1e-4, kernel.hz))
    engine.run(max_events=10_000)
    assert proc.state == DEAD


def test_burn_slices_keep_event_counts_low(engine):
    """A long solo computation must not generate per-quantum events."""
    kernel = Kernel(engine, "n", ncpus=1)
    kernel.spawn(_spin(10.0, kernel.hz))
    engine.run()
    assert engine.now == pytest.approx(10.0, rel=0.01)
    # ~10s / 0.25s burns ≈ 40 slices, far below 10_000 quantum events
    assert engine.events_executed < 200


def test_competition_shrinks_slices_for_fairness(engine):
    """With a contender on the run queue, burns shrink to the quantum so
    round-robin interleaving is preserved."""
    kernel = Kernel(engine, "n", ncpus=1)
    a = kernel.spawn(_spin(0.5, kernel.hz))
    b = kernel.spawn(_spin(0.5, kernel.hz))
    engine.run()
    # serialized total ~1s; both must finish near the end (interleaved),
    # not one at 0.5s and the other at 1.0s
    assert a.exit_time == pytest.approx(1.0, abs=0.3)
    assert b.exit_time == pytest.approx(1.0, abs=0.05)
    assert abs(a.exit_time - b.exit_time) < 0.3


def test_sigstop_preempts_a_burn_exactly(engine):
    """Stopping a burning process freezes it at the signal instant, not
    at the end of the (long) burn slice."""
    kernel = Kernel(engine, "n", ncpus=1)
    proc = kernel.spawn(_spin(10.0, kernel.hz))
    engine.schedule(1.0, kernel.send_signal, proc.pid, SIGSTOP)
    engine.run(until=2.0)  # the queue drains right after the preemption
    assert proc.stopped
    burned = proc.cpu_cycles / kernel.hz
    assert burned == pytest.approx(1.0, abs=0.01)  # not 1.25 (burn cap)
    resumed_at = engine.now
    kernel.send_signal(proc.pid, SIGCONT)
    engine.run()
    assert proc.state == DEAD
    # exactly the 9 unburned seconds remain after the resume
    assert engine.now == pytest.approx(resumed_at + 9.0, abs=0.05)


def test_sigkill_preempts_a_burn(engine):
    kernel = Kernel(engine, "n", ncpus=1)
    proc = kernel.spawn(_spin(10.0, kernel.hz))
    engine.schedule(0.7, kernel.send_signal, proc.pid, SIGKILL)
    engine.run(until=5.0)
    assert proc.state == DEAD and proc.exit_code == -9
    # the CPU freed immediately: another process can use it
    other = kernel.spawn(_spin(0.5, kernel.hz))
    engine.run()
    assert other.state == DEAD
    assert engine.now == pytest.approx(0.7 + 0.5, abs=0.05)


def test_burn_cap_matches_constant(engine):
    """A solo burn runs in BURN_SLICE_S chunks (observable via events)."""
    kernel = Kernel(engine, "n", ncpus=1)
    kernel.spawn(_spin(BURN_SLICE_S * 4, kernel.hz))
    before = engine.events_executed
    engine.run()
    # 4 burn completions + dispatch bookkeeping: an order of ten events
    assert engine.events_executed - before < 40


def test_smp_runs_burns_in_parallel(engine):
    kernel = Kernel(engine, "smp", ncpus=4)
    for _ in range(4):
        kernel.spawn(_spin(2.0, kernel.hz))
    engine.run()
    assert engine.now == pytest.approx(2.0, rel=0.02)
    assert sum(kernel.scheduler.busy_cycles) == pytest.approx(8.0 * kernel.hz, rel=0.02)
