"""File-system snapshots.

ZapC pairs its process checkpoints with "already available file system
snapshot functionality" (NetApp-style) rather than copying file data
into the image: "a file-system snapshot (if desired) may be taken
immediately prior to reactivating the pod".  This module provides that
functionality for the simulated file systems: cheap point-in-time
captures that can later be rolled back to.  A file written whole (a
sink's image container) is captured and restored by sharing its
immutable fragments; only a file written piecewise is copied.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..errors import ReproError
from ..vos.filesystem import File, FileSystem, frozen


class Snapshot:
    """A point-in-time copy of one file system's contents: each file as
    the immutable fragments whose join is its bytes."""

    def __init__(self, fs_name: str, files: Dict[str, Tuple[bytes, ...]], dirs: Set[str],
                 taken_at: float) -> None:
        self.fs_name = fs_name
        self.files = files
        self.dirs = dirs
        self.taken_at = taken_at

    @property
    def total_bytes(self) -> int:
        """Bytes captured (drives snapshot-flush cost accounting)."""
        return sum(len(part) for parts in self.files.values() for part in parts)


class SnapshotManager:
    """Takes and restores snapshots of simulated file systems."""

    def __init__(self) -> None:
        self._snaps: List[Snapshot] = []

    def take(self, fs: FileSystem, now: float = 0.0) -> Snapshot:
        """Capture ``fs`` as of ``now`` and remember it."""
        snap = Snapshot(
            fs.name,
            {path: frozen(f.fragments) for path, f in fs.files.items()},
            set(fs.dirs),
            now,
        )
        self._snaps.append(snap)
        return snap

    def restore(self, fs: FileSystem, snap: Snapshot) -> None:
        """Roll ``fs`` back to ``snap`` (names must match)."""
        if fs.name != snap.fs_name:
            raise ReproError(f"snapshot of {snap.fs_name!r} cannot restore {fs.name!r}")
        fs.files = {path: File(parts=parts) for path, parts in snap.files.items()}
        fs.dirs = set(snap.dirs)

    def latest(self, fs_name: str) -> Snapshot:
        """Most recent snapshot taken of ``fs_name``."""
        for snap in reversed(self._snaps):
            if snap.fs_name == fs_name:
                return snap
        raise ReproError(f"no snapshot of {fs_name!r}")

    def __len__(self) -> int:
        return len(self._snaps)
