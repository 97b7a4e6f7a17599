"""Accounted process memory.

A simulated process's resident set is *accounted*, not materialized: the
image records how many bytes each segment holds, and checkpoint sizes and
serialization times are derived from those byte counts.  Small amounts of
*real* data (the register file) live outside this class.  This mirrors
how the paper reports checkpoint image sizes that are dominated by
application memory (hundreds of MB) without us allocating hundreds of MB
per simulated process.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..errors import VosError

#: Segment names every process starts with.
DEFAULT_SEGMENTS = ("text", "data", "stack", "heap")


class Memory:
    """Byte-accounted address space of one process.

    Segments are named (``text``, ``data``, ``stack``, ``heap`` by
    default, apps may add more, e.g. ``grid``).  ``alloc``/``free``
    adjust a segment; the total drives checkpoint image size.

    Alongside each segment's size the class keeps *generational dirty
    counters*: bytes modified since a named **consumer** last cleared its
    baseline.  Consumers are independent — incremental checkpoints
    (``"ckpt"``) and live-migration pre-copy rounds (``"precopy"``) each
    see the writes since *their own* last generation, so one clearing its
    baseline cannot make the other undercount.  A consumer that has never
    cleared sees everything dirty (nothing was ever copied on its
    behalf); that is also why no consumer table is materialized until the
    first :meth:`clear_dirty` — absence *is* the fully-dirty baseline.

    Counters are runtime-only bookkeeping: each is clamped to the segment
    size (a byte can only be dirty once per generation) and none is ever
    serialized, so checkpoint images are byte-identical whether or not
    anything tracks writes.

    Baseline clears can be *transactional* (:meth:`begin_clear` /
    :meth:`commit_clear` / :meth:`abort_clear`): a copy round stages the
    clear when it starts — writes landing mid-flight accrue to the next
    generation — and only an acknowledged round commits it.  An aborted
    round folds the staged dirtiness back in, so bytes the destination
    never acknowledged stay dirty.
    """

    __slots__ = ("_segments", "_dirty", "_staged", "_largest")

    def __init__(self, text: int = 0, data: int = 0, stack: int = 0, heap: int = 0) -> None:
        self._segments: Dict[str, int] = {
            "text": int(text),
            "data": int(data),
            "stack": int(stack),
            "heap": int(heap),
        }
        # no consumer has cleared yet: every baseline is the implicit
        # fully-dirty one (a fresh address space was never copied anywhere)
        self._dirty: Dict[str, Dict[str, int]] = {}
        #: staged (uncommitted) clears: consumer -> dirty table at stage time.
        self._staged: Dict[str, Dict[str, int]] = {}
        #: the largest segment, remembered between size changes
        #: (None: not known — recomputed by the next anonymous touch).
        self._largest: Optional[str] = None

    @property
    def rss(self) -> int:
        """Total resident bytes across all segments."""
        return sum(self._segments.values())

    def dirty_in(self, consumer: str) -> int:
        """Total bytes written since ``consumer`` last cleared its baseline."""
        return sum(self.dirty_table(consumer).values())

    def segment(self, name: str) -> int:
        """Bytes currently accounted to segment ``name`` (0 if absent)."""
        return self._segments.get(name, 0)

    def dirty_table(self, consumer: str) -> Dict[str, int]:
        """Per-segment dirty byte counts for ``consumer`` (a copy; zero
        entries included).  A consumer that never cleared sees every
        segment fully dirty."""
        table = self._dirty.get(consumer)
        if table is None:
            return dict(self._segments)
        return {name: table.get(name, 0) for name in self._segments}

    def clear_dirty(self, consumer: str) -> None:
        """Mark every segment clean for ``consumer`` — call when that
        consumer's copy round starts (unconditional form; see
        :meth:`begin_clear` for the ack-gated variant)."""
        self._dirty[consumer] = {name: 0 for name in self._segments}
        self._staged.pop(consumer, None)

    # -- transactional (ack-gated) clears ------------------------------
    def begin_clear(self, consumer: str) -> int:
        """Stage a baseline clear for ``consumer``; returns the dirty
        byte total being staged.  Writes from here on accrue to the new
        generation; :meth:`commit_clear` makes the clear final,
        :meth:`abort_clear` folds the staged dirtiness back in."""
        staged = self.dirty_table(consumer)
        self._staged[consumer] = staged
        self._dirty[consumer] = {name: 0 for name in self._segments}
        return sum(staged.values())

    def commit_clear(self, consumer: str) -> None:
        """The copy round was acknowledged: drop the staged dirtiness."""
        self._staged.pop(consumer, None)

    def abort_clear(self, consumer: str) -> None:
        """The copy round failed: bytes the destination never
        acknowledged are still dirty — merge the staged table back
        (saturating at segment size, like any write)."""
        staged = self._staged.pop(consumer, None)
        if staged is None:
            return
        table = self._dirty.setdefault(consumer, {})
        for name, size in self._segments.items():
            merged = table.get(name, 0) + staged.get(name, 0)
            table[name] = min(size, merged)

    def reset_dirty(self, consumer: str) -> None:
        """Forget ``consumer``'s baseline entirely — back to fully dirty.

        The conservative rollback for a *committed* clear that later has
        to be undone (a garbage-collected checkpoint after local commit):
        the exact pre-clear counters are gone, so the next generation
        charges everything rather than undercounting."""
        self._dirty.pop(consumer, None)
        self._staged.pop(consumer, None)

    def touch(self, nbytes: int, segment: Optional[str] = None) -> None:
        """Record ``nbytes`` of in-place writes to ``segment``.

        With ``segment=None`` the writes land on the largest segment —
        the working set of a program that never named one (the scheduler's
        dirty-rate charging uses this).  Dirtiness saturates at the
        segment size; touching an absent or empty segment is a no-op
        (there is nothing to re-copy).  Every materialized consumer
        baseline advances; implicit (never-cleared) baselines are already
        fully dirty.
        """
        if nbytes <= 0:
            return
        if segment is None:
            segment = self._largest
            if segment is None:
                if not self._segments:
                    return
                segment = self._largest = max(
                    self._segments, key=lambda k: (self._segments[k], k))
        size = self._segments.get(segment, 0)
        if size <= 0:
            return
        for table in self._dirty.values():
            table[segment] = min(size, table.get(segment, 0) + int(nbytes))

    def alloc(self, nbytes: int, segment: str = "heap") -> None:
        """Grow ``segment`` by ``nbytes`` (must be >= 0)."""
        if nbytes < 0:
            raise VosError(f"alloc of negative size {nbytes}")
        size = self._segments.get(segment, 0) + int(nbytes)
        self._segments[segment] = size
        self._largest = None
        # new pages are dirty for every consumer: they exist only here
        for table in self._dirty.values():
            table[segment] = min(size, table.get(segment, 0) + int(nbytes))

    def free(self, nbytes: int, segment: str = "heap") -> None:
        """Shrink ``segment`` by ``nbytes``; cannot go below zero."""
        current = self._segments.get(segment, 0)
        if nbytes < 0 or nbytes > current:
            raise VosError(f"free({nbytes}) from segment {segment!r} holding {current}")
        size = current - int(nbytes)
        self._segments[segment] = size
        self._largest = None
        # released pages need no copy; keep the invariant dirty <= size
        for table in self._dirty.values():
            table[segment] = min(size, table.get(segment, 0))

    def resize(self, nbytes: int, segment: str = "heap") -> None:
        """Set ``segment`` to exactly ``nbytes``."""
        if nbytes < 0:
            raise VosError(f"resize to negative size {nbytes}")
        old = self._segments.get(segment, 0)
        size = int(nbytes)
        self._segments[segment] = size
        self._largest = None
        # a resize rewrites the delta in place (grow maps new pages,
        # shrink is covered by the clamp)
        delta = abs(size - old)
        for table in self._dirty.values():
            table[segment] = min(size, table.get(segment, 0) + delta)

    # -- checkpoint support -------------------------------------------
    def to_image(self) -> Dict[str, int]:
        """Serializable snapshot of the segment table."""
        return dict(self._segments)

    @classmethod
    def from_image(cls, image: Dict[str, int]) -> "Memory":
        """Rebuild a Memory from :meth:`to_image` output."""
        mem = cls()
        mem._segments = {str(k): int(v) for k, v in image.items()}
        mem._largest = None
        # a restored address space is fully dirty relative to every
        # consumer — no round has copied it anywhere yet (the empty
        # consumer map *is* the implicit fully-dirty baseline)
        mem._dirty = {}
        mem._staged = {}
        return mem

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Memory(rss={self.rss})"
