"""Machine-speed calibration for the host-clock metrics.

The sandbox is a small VM on a shared host.  Its speed drifts by tens of
percent over minutes and has bursts on top (README, "Measured noise"),
and ``process_time`` drifts with ``perf_counter``: the noise is CPU
speed, not descheduling.  A fixed pure-Python kernel run right before
and after each repetition slows down with it (correlation 0.7–0.8), so
each repetition's host time is scaled to a reference machine speed:

    wall_s = measured seconds * REFERENCE_S / (calibration seconds nearby)

That removes what the machine did and keeps what the program did; the
kernel never touches ``repro``, so no change to the system under test
can move it.  Raw seconds are kept beside the scaled ones in the full
report.
"""

from __future__ import annotations

import gc
import heapq
import time

#: what :func:`calibrate` takes on the sandbox this benchmark was written
#: on when it is quiet; scaled times read as seconds on that machine.
REFERENCE_S = 0.08
ITERATIONS = 100_000


class _Cell:
    __slots__ = ("a",)

    def __init__(self, a: int) -> None:
        self.a = a

    def step(self, x: int) -> int:
        return (self.a + x) % 1009


def _counter():
    i = 0
    while True:
        i += 1
        yield i


def calibrate() -> float:
    """Seconds the fixed kernel takes now.  It does what the simulator's
    hot loops do: heap push/pop, dict stores with tuple keys, a method
    call and a generator resume per iteration."""
    # the kernel allocates tuples; a cyclic collection triggered here
    # would walk the simulated worlds still alive in this process and
    # charge their size to the machine's speed
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        heap: list = []
        table: dict = {}
        cell = _Cell(1)
        ticks = _counter()
        x = 0
        for i in range(ITERATIONS):
            x = cell.step(x)
            heapq.heappush(heap, (x, i))
            if len(heap) > 512:     # small footprint: peak RSS is a metric
                heapq.heappop(heap)
            table[(x, i & 15)] = i
            next(ticks)
        return time.perf_counter() - t0
    finally:
        if gc_was_on:
            gc.enable()


def scaled(seconds: float, calibration_s: float) -> float:
    """``seconds`` at the reference machine speed."""
    return seconds * REFERENCE_S / calibration_s
