"""The flush path as it stood before it was made to touch each byte once,
frozen verbatim as a test-only oracle.

Four functions of the parent commit, bodies unchanged:

* :func:`control_nbytes` — ``repro.core.netckpt.control_nbytes``: size
  every record's ``options`` and ``pcb`` by walking them;
* :func:`stage` / :func:`load` — ``FileSink.stage`` / ``FileSink.load``:
  join the whole container, then write it; ``bytes()`` the whole file, then
  decode it;
* :func:`write` — ``OpenFile.write``: one slice assignment, which appends
  when the position is past the end (the hole bug lives on here: the
  differential uses this function up to end-of-file only).

They call the live codec and the live container helpers on purpose: what
is frozen is *how often* the flush encodes, joins and copies (and where a
truncated write is cut), not the image format — ``reference_codec`` and
its differential hold that.  The one edit: :func:`stage` writes through
:func:`write` below instead of ``handle.write``, so the frozen sink also
runs the frozen file write.

``tests/core/test_flush_differential.py`` holds the live functions to
these.  Do not "fix" anything here.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core import codec
from repro.core.image import PodImage
from repro.core.pipeline import (
    chain_entry,
    image_extends_chain,
    image_from_entry,
    restorable_chain,
)
from repro.errors import CodecError, RestartError, SyscallError

_ENDPOINT_OVERHEAD = 48


def control_nbytes(records: List[Dict[str, Any]]) -> int:
    """Socket parameters and protocol control blocks of one capture,
    measured exactly in the intermediate format, plus the fixed endpoint
    share per record."""
    return sum(codec.encoded_size(rec["options"]) + codec.encoded_size(rec["pcb"])
               + _ENDPOINT_OVERHEAD for rec in records)


def write(self, data: bytes) -> int:
    """Write at the current position (overwrites then extends)."""
    if "w" not in self.mode and "a" not in self.mode and "+" not in self.mode:
        raise SyscallError("EBADF", f"{self.path} not open for writing")
    if "a" in self.mode:
        self.pos = len(self.file.data)
    end = self.pos + len(data)
    self.file.data[self.pos:end] = data
    self.pos = end
    return len(data)


def stage(self, image: PodImage, op_id: int = 0,
          truncate: Optional[float] = None) -> None:
    """Write the image container (truncated: only that prefix of it
    reaches the SAN, which the read-back validation in :meth:`load`
    must then reject)."""
    if not image.filters:
        container = codec.encode({
            "data": image.data,
            "accounted": image.accounted_bytes,
            "netstate": image.netstate_bytes,
        })
    else:
        entries: List[Dict[str, Any]] = []
        if image_extends_chain(image):
            try:
                handle = self.vfs.open(self.path, "r")
                existing = codec.decode(bytes(handle.file.data))
                entries = list(existing.get("chain", []))
            except Exception:
                entries = []
        entries.append(chain_entry(image))
        container = codec.encode({"chain": entries})
    if truncate is not None:
        container = container[:max(1, int(len(container) * float(truncate)))]
    handle = self.vfs.open(self.path, "w")
    write(handle, container)


def load(self, pod_id: str) -> List[PodImage]:
    """Load and validate the image chain at this path."""
    try:
        handle = self.vfs.open(self.path, "r")
    except Exception:
        raise RestartError(f"no image at {self.path!r}") from None
    try:
        container = codec.decode(bytes(handle.file.data))
        # the historic single-image container is one bare entry
        entries = container.get("chain", [container])
        return restorable_chain(
            [image_from_entry(pod_id, entry) for entry in entries],
            self.path)
    except (CodecError, AttributeError, KeyError, TypeError,
            ValueError) as err:
        raise RestartError(
            f"partial or corrupt image at {self.path!r}: {err}") from None
