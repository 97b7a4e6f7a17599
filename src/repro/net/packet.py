"""Wire formats: datagrams and TCP segments.

Packets carry *virtual* endpoints end-to-end (what the communicating
sockets believe) plus *real* routing addresses stamped at egress by the
address-translation layer — the simulated form of ZapC transparently
remapping pod virtual addresses onto whatever node currently hosts the
pod.

Both classes are slotted: one segment and one packet are the only
objects a TCP transmission allocates, and nothing about them is derived
later (``size`` is fixed when the packet is built).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, FrozenSet, Optional

from .addr import Endpoint

if TYPE_CHECKING:  # pragma: no cover
    from .tcp import TcpConn

#: Per-packet header overhead charged against link bandwidth (bytes).
HEADER_BYTES = 66  # Ethernet + IP + TCP, roughly

# The flag sets the protocol sends, built once (flags ⊆ {SYN, ACK, FIN,
# RST, URG}).  Receivers test membership, never identity: a segment built
# elsewhere with an equal set is the same segment.
NO_FLAGS: FrozenSet[str] = frozenset()
ACK: FrozenSet[str] = frozenset({"ACK"})
SYN: FrozenSet[str] = frozenset({"SYN"})
SYN_ACK: FrozenSet[str] = frozenset({"SYN", "ACK"})
FIN_ACK: FrozenSet[str] = frozenset({"FIN", "ACK"})
URG_ACK: FrozenSet[str] = frozenset({"URG", "ACK"})
RST_ACK: FrozenSet[str] = frozenset({"RST", "ACK"})


@dataclass(slots=True)
class Segment:
    """A TCP segment (also reused for the SYN/FIN/RST control packets)."""

    seq: int = 0
    ack: int = 0
    flags: FrozenSet[str] = NO_FLAGS
    data: bytes = b""
    wnd: int = 0

    def has(self, flag: str) -> bool:
        """Whether ``flag`` is set."""
        return flag in self.flags

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        fl = ",".join(sorted(self.flags)) or "-"
        return f"Segment(seq={self.seq}, ack={self.ack}, [{fl}], len={len(self.data)})"


@dataclass(slots=True, init=False)
class Packet:
    """One unit in flight on the fabric."""

    proto: str  # "tcp" | "udp" | "raw"
    src: Endpoint  # virtual source
    dst: Endpoint  # virtual destination
    payload: bytes  # udp/raw data
    segment: Optional[Segment]  # tcp
    real_src: str  # routing addresses, stamped at egress
    real_dst: str
    #: Bytes charged against link bandwidth: header plus body, as built.
    size: int
    #: the TCP end that sent it (an RST: the end whose SYN it answers),
    #: counted on the wire until the packet is delivered or dropped
    #: (``None``: not a connection's segment).
    conn: Optional["TcpConn"]

    def __init__(self, proto: str, src: Endpoint, dst: Endpoint, payload: bytes = b"",
                 segment: Optional[Segment] = None, real_src: str = "",
                 real_dst: str = "") -> None:
        self.proto = proto
        self.src = src
        self.dst = dst
        self.payload = payload
        self.segment = segment
        self.real_src = real_src
        self.real_dst = real_dst
        self.size = HEADER_BYTES + len(segment.data if segment is not None else payload)
        self.conn = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        core = repr(self.segment) if self.segment else f"len={len(self.payload)}"
        return f"Packet({self.proto} {self.src}->{self.dst} {core})"
