"""Simulated wall-clock time.

All durations in the simulator are expressed in *seconds* of simulated
time as ``float``.  The clock only moves forward, and only the event
engine may advance it.  Helper constants are provided so cost models read
naturally (``5 * MILLISECONDS`` instead of ``5e-3``).
"""

from __future__ import annotations

#: One second of simulated time (the base unit).
SECONDS = 1.0
#: One millisecond of simulated time.
MILLISECONDS = 1e-3
#: One microsecond of simulated time.
MICROSECONDS = 1e-6
#: One nanosecond of simulated time.
NANOSECONDS = 1e-9

#: One *tick* — the smallest distinguishable unit of exported simulated
#: time.  Trace timestamps (Chrome ``ts``) are expressed in ticks, and
#: phase-accounting reconciliation allows ±1 tick of float slack.
TICK = MICROSECONDS


def to_ticks(t: float) -> float:
    """Simulated seconds → ticks (µs), rounded for stable export."""
    return round(t / TICK, 3)


class Clock:
    """Monotonic simulated clock owned by an :class:`~repro.sim.engine.Engine`.

    The clock starts at ``0.0``.  Only :meth:`advance_to` may write
    :attr:`now`, and it refuses to move backwards — a regression guard for
    the event loop.  ``now`` is a plain attribute because it is read several
    times per event.
    """

    __slots__ = ("now",)

    def __init__(self) -> None:
        #: current simulated time in seconds.
        self.now = 0.0

    def advance_to(self, t: float) -> None:
        """Move the clock forward to time ``t``.

        Raises :class:`ValueError` if ``t`` is in the past; equal times
        are permitted (many events share a timestamp).
        """
        if t < self.now:
            raise ValueError(f"clock cannot run backwards: {t} < {self.now}")
        self.now = t

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Clock(now={self.now:.9f})"
