"""Checkpoint image assembly.

One :class:`PodImage` per pod per checkpoint, carrying the standalone
state, the network-state records, and the fd links between them, all in
the portable intermediate format of :mod:`repro.core.codec`.

Size accounting distinguishes the *encoded* bytes (registers, queues,
metadata — what this process actually serialized) from the *accounted*
resident-set bytes (application memory the simulation tracks by count);
their sum is the image size the paper's Figure 6(c) plots, and the
network-state share is tracked separately (the "few kilobytes" claim).

Images come in two shapes: **v1** (:data:`FORMAT_VERSION`), the raw
codec payload written when no filters are configured, and **v2**
(:data:`PIPELINE_FORMAT_VERSION`), the self-describing envelope
:mod:`repro.core.pipeline` wraps around a filtered payload and its chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..errors import CheckpointError
from . import codec
from .devckpt import device_state_nbytes
from .netckpt import netstate_nbytes

#: unfiltered (raw payload) image format version stamp.
FORMAT_VERSION = 1
#: filtered (pipeline envelope) image format version stamp.
PIPELINE_FORMAT_VERSION = 2


@dataclass
class PodImage:
    """One pod's checkpoint: payload bytes plus size breakdown.

    ``data`` is ``bytes`` or a :class:`~repro.core.codec.Blob`: an
    unfiltered image holds the registers' large ``bytes`` payloads by
    reference (DESIGN §5).  ``encoded_bytes``/``accounted_bytes`` are
    *post-filter* sizes (what a write to storage costs); for an
    unfiltered image they equal the raw sizes.  ``filters`` is the
    applied chain (empty for v1 images), ``epoch`` the position in a
    delta chain, and ``stage_costs`` the per-stage cost breakdown
    recorded at pack time.
    """

    pod_id: str
    data: Any
    encoded_bytes: int
    accounted_bytes: int
    netstate_bytes: int
    filters: List[Dict[str, Any]] = field(default_factory=list)
    epoch: int = 0
    raw_encoded_bytes: Optional[int] = None
    raw_accounted_bytes: Optional[int] = None
    stage_costs: List[Dict[str, Any]] = field(default_factory=list)
    #: accounted bytes the pod dirtied since its last committed
    #: checkpoint (counted at suspend), when dirty tracking was on at
    #: capture time — the content-addressed store's dedup model reads
    #: this to tell changed blocks from clean ones.
    acct_dirty_bytes: Optional[int] = None

    @property
    def total_bytes(self) -> int:
        """Full image size: what a write to storage would cost."""
        return self.encoded_bytes + self.accounted_bytes

    @property
    def raw_total_bytes(self) -> int:
        """Pre-filter image size — what restore rebuilds in memory."""
        encoded = self.raw_encoded_bytes if self.raw_encoded_bytes is not None \
            else self.encoded_bytes
        accounted = self.raw_accounted_bytes if self.raw_accounted_bytes is not None \
            else self.accounted_bytes
        return encoded + accounted

    def unpack(self) -> Dict[str, Any]:
        """Decode the payload back into its sections.

        Works directly on v1 (unfiltered) images and on self-contained
        v2 images; a delta image that depends on an earlier epoch must go
        through :meth:`repro.core.pipeline.ImagePipeline.reassemble` with
        the rest of its chain.
        """
        payload = codec.decode(self.data)
        version = payload.get("format") if isinstance(payload, dict) else None
        if version == FORMAT_VERSION:
            return payload
        if version == PIPELINE_FORMAT_VERSION:
            from .pipeline import ImagePipeline, image_extends_chain

            if image_extends_chain(self):
                raise CheckpointError(
                    f"pod {self.pod_id!r} epoch {self.epoch} is a delta image; "
                    "reassemble its chain via ImagePipeline.reassemble")
            return ImagePipeline.reassemble([self]).payload
        raise CheckpointError(f"unsupported image format {version!r}")


def build_payload(
    standalone: Dict[str, Any],
    socket_records: List[Dict[str, Any]],
    socket_fd_rows: List[Dict[str, Any]],
    devices: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The codec-ready payload of one pod checkpoint.

    ``devices`` optionally carries kernel-bypass device state (the GM
    extension): ``{"states": [...], "fd_rows": [...]}``.
    """
    # records may carry Endpoint NamedTuples: the codec writes any tuple
    # subclass as a plain ``t``, so nothing is normalized (or copied) here
    return {
        "format": FORMAT_VERSION,
        "standalone": standalone,
        "sockets": socket_records,
        "socket_fds": socket_fd_rows,
        "devices": devices or {"states": [], "fd_rows": []},
    }


def image_netstate_bytes(
    socket_records: List[Dict[str, Any]],
    devices: Optional[Dict[str, Any]],
) -> int:
    """An image's network-state share: sockets plus bypass devices."""
    return (netstate_nbytes(socket_records)
            + device_state_nbytes(devices["states"] if devices else []))
