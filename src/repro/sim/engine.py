"""The discrete-event simulation engine.

One :class:`Engine` simulates the whole cluster: every node's kernel,
every NIC, every pod process and every host task shares the single event
queue, so causality across nodes is exact.  Events at equal timestamps
run in scheduling order (FIFO), which keeps runs deterministic.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from ..errors import DeadlockError, SimError
from .clock import Clock
from .rng import RngHub
from .tasks import Future, Task, TaskGen


#: A time / count no run reaches: the value of an absent ``until`` / ``max_events``.
_NEVER = float("inf")


class EventHandle:
    """Cancellable reference to a scheduled event."""

    __slots__ = ("time", "cancelled")

    def __init__(self, time: float) -> None:
        self.time = time
        #: whether :meth:`cancel` has been called (read by the run loop).
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event's callback from running (idempotent)."""
        self.cancelled = True


class Engine:
    """Event loop + clock + RNG hub for a simulated cluster.

    Typical use::

        eng = Engine(seed=42)
        eng.spawn(manager_task(...), name="manager")
        eng.run()

    The engine stops when the queue drains, when ``until`` is reached, or
    when ``stop()`` is called from inside an event.
    """

    def __init__(self, seed: int = 0) -> None:
        self.clock = Clock()
        self.rng = RngHub(seed)
        self._heap: List[Tuple[float, int, EventHandle, Callable[..., None], tuple]] = []
        self._seq = itertools.count()
        self._stopped = False
        self._events_executed = 0
        #: every spawned host task, pruned of finished ones lazily; lets
        #: failure tooling assert that no protocol task was orphaned.
        self._tasks: List[Task] = []
        #: Registered "is anything still blocked?" probes used for
        #: deadlock detection when the queue drains (kernels register one).
        self.blocked_probes: List[Callable[[], List[str]]] = []

    # ------------------------------------------------------------------
    # time & scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.clock.now

    @property
    def events_executed(self) -> int:
        """Total number of events executed (profiling aid).

        Settled whenever :meth:`run` returns or raises; while a run is in
        progress it does not yet include that run's events.
        """
        return self._events_executed

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Run ``fn(*args)`` after ``delay`` seconds of simulated time."""
        if not delay >= 0:  # written so that NaN is rejected too
            raise SimError(f"negative or NaN delay {delay}")
        at = self.clock.now + delay
        handle = EventHandle(at)
        heappush(self._heap, (at, next(self._seq), handle, fn, args))
        return handle

    def schedule_at(self, at: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Run ``fn(*args)`` at absolute simulated time ``at``."""
        now = self.clock.now
        if not at >= now:  # written so that NaN is rejected too
            raise SimError(f"cannot schedule in the past: {at} < {now}")
        handle = EventHandle(at)
        heappush(self._heap, (at, next(self._seq), handle, fn, args))
        return handle

    def sleep(self, delay: float) -> Future:
        """Future that resolves after ``delay`` seconds (for host tasks)."""
        fut = Future(f"sleep({delay})")
        self.schedule(delay, fut.set_result, None)
        return fut

    def timeout(self, future: Future, delay: float) -> Future:
        """Wrap ``future`` so it resolves with ``None`` after ``delay``.

        Resolves with ``(True, result)`` if the inner future finished in
        time and ``(False, None)`` on timeout — host tasks use this for
        failure detection (e.g. the Manager noticing a dead Agent).
        """
        wrapped = Future(f"timeout({future.name})")

        def on_inner(fut: Future) -> None:
            if not wrapped.done:
                if fut.exception is not None:
                    wrapped.set_exception(fut.exception)
                else:
                    wrapped.set_result((True, fut._result))

        def on_timer(_: Any) -> None:
            if not wrapped.done:
                wrapped.set_result((False, None))

        future.add_done_callback(on_inner)
        self.schedule(delay, on_timer, None)
        return wrapped

    # ------------------------------------------------------------------
    # tasks
    # ------------------------------------------------------------------
    def spawn(self, gen: TaskGen, name: str = "task") -> Task:
        """Start a host task driving generator ``gen``; returns its Task."""
        task = Task(self, gen, name)
        if len(self._tasks) > 512:
            self._tasks = [t for t in self._tasks if not t.done]
        self._tasks.append(task)
        self.schedule(0.0, task._step, None)
        return task

    def live_tasks(self) -> List[Task]:
        """Host tasks spawned on this engine that have not finished.

        The Manager's abort path must leave no protocol task behind;
        tests assert that through this registry.
        """
        self._tasks = [t for t in self._tasks if not t.done]
        return list(self._tasks)

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Stop the run loop after the current event returns."""
        self._stopped = True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        check_deadlock: bool = False,
    ) -> float:
        """Execute events until the queue drains (or a limit hits).

        Parameters
        ----------
        until:
            Stop once the clock would pass this time (events exactly at
            ``until`` still run).
        max_events:
            Safety valve against runaway simulations.
        check_deadlock:
            When the queue drains, poll :attr:`blocked_probes`; if any
            process/task is still blocked, raise :class:`DeadlockError`
            listing the stuck parties.

        Returns the simulated time at which the loop stopped.
        """
        self._stopped = False
        heap = self._heap
        clock = self.clock
        advance = clock.advance_to
        if until is not None and heap and until < clock.now:
            raise SimError(f"cannot run until t={until}: the clock is already at {clock.now}")
        # The limits become plain comparisons: an absent one never trips.
        horizon = _NEVER if until is None else until
        limit = _NEVER if max_events is None else max_events
        executed = 0
        try:
            while heap and not self._stopped:
                if heap[0][0] > horizon:
                    advance(until)
                    return clock.now
                at, _seq, handle, fn, args = heappop(heap)
                if handle.cancelled:
                    continue
                advance(at)
                fn(*args)
                executed += 1
                if executed >= limit:
                    raise SimError(f"exceeded max_events={max_events} at t={clock.now}")
        finally:
            # one store per run, not per event; a nested run adds its own
            self._events_executed += executed
        if check_deadlock and not self._stopped:
            stuck: List[str] = []
            for probe in self.blocked_probes:
                stuck.extend(probe())
            if stuck:
                raise DeadlockError("event queue drained with blocked parties: " + ", ".join(sorted(stuck)))
        return self.now

    def run_task(self, gen: TaskGen, name: str = "main", until: Optional[float] = None) -> Any:
        """Spawn ``gen`` and run the loop until it finishes; return its value.

        Convenience wrapper used heavily by tests and the harness.
        """
        task = self.spawn(gen, name)
        task.finished.add_done_callback(lambda _f: self.stop())
        self.run(until=until)
        if not task.done:
            raise SimError(f"task {name!r} did not finish by t={self.now}")
        return task.finished.result
