"""Pure wave-scheduling primitives for fleet campaigns.

Everything here is deliberately free of the simulator: wave planning,
load-based target selection, and the bounded-concurrency gate's
accounting are plain functions over plain data, which is what makes
them property-testable (tests/fleet/test_scheduler_properties.py sweeps
arbitrary layouts with hypothesis).  The :class:`Campaign` engine in
:mod:`repro.fleet.campaign` composes these with the Manager's op
primitives; nothing in this module talks to a cluster.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..sim.tasks import Future

#: one campaign unit: (node, pod, arg) — the arg is a checkpoint URI or
#: a migration destination ("" = pick by load at launch time).
Unit = Tuple[str, str, str]


def plan_waves(units: Sequence[Unit], wave_size: int) -> List[List[Unit]]:
    """Partition ``units`` into waves of at most ``wave_size``, in order.

    The partition is journaled verbatim at campaign begin, so it must be
    a pure function of its inputs: no reordering, no balancing — chunk
    ``units`` as given.  ``wave_size`` < 1 degenerates to one wave.
    """
    if wave_size < 1:
        return [list(units)] if units else []
    return [list(units[i:i + wave_size])
            for i in range(0, len(units), wave_size)]


def pick_target(load: Dict[str, int], exclude: Iterable[str] = (),
                order: Optional[Dict[str, int]] = None) -> Optional[str]:
    """Least-loaded eligible node, deterministically tie-broken.

    ``load`` maps node name to its effective pod count (live pods plus
    in-flight reservations); ``exclude`` removes evacuating or crashed
    nodes from the draw.  Ties break by ``order`` (node index) when
    given, else by name — never by dict iteration order, which is what
    keeps same-seed campaigns byte-identical.
    """
    banned: Set[str] = set(exclude)
    eligible = [n for n in load if n not in banned]
    if not eligible:
        return None
    if order is not None:
        return min(eligible, key=lambda n: (load[n], order.get(n, 0), n))
    return min(eligible, key=lambda n: (load[n], n))


class InflightGate:
    """Counting gate bounding concurrent in-flight units.

    ``yield from gate.acquire()`` parks the caller on a FIFO of futures
    until a slot frees; :meth:`release` wakes exactly one waiter.  FIFO
    hand-off keeps the launch order a pure function of completion order,
    which the chaos determinism oracle depends on.
    """

    def __init__(self, limit: int) -> None:
        self.limit = max(1, int(limit))
        self.active = 0
        #: high-water mark of concurrently held slots, for audits.
        self.peak = 0
        self._waiters: deque = deque()

    def acquire(self):
        while self.active >= self.limit:
            fut = Future("gate-wait")
            self._waiters.append(fut)
            yield fut
        self.active += 1
        self.peak = max(self.peak, self.active)

    def release(self) -> None:
        self.active -= 1
        if self._waiters:
            self._waiters.popleft().set_result(None)
