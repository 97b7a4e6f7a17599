"""The cluster interconnect: a switched gigabit-Ethernet-like fabric.

Each node attaches one :class:`Nic`.  Transmission occupies the sender's
egress link at line rate (packets serialize behind each other), then a
propagation/switching latency elapses before the destination NIC's
ingress runs.  The fabric supports random loss (for retransmission
tests) and partitions (for the fault-injection experiments).

Defaults follow the paper's testbed: Gigabit Ethernet, ~100 µs one-way
latency through the switch.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set, Tuple

from ..errors import NetError
from ..sim.engine import Engine
from .packet import Packet

#: Gigabit Ethernet payload rate, bytes/second.
DEFAULT_BANDWIDTH = 125e6
#: One-way latency, seconds.
DEFAULT_LATENCY = 100e-6


class Nic:
    """One node's network interface.

    A NIC owns a set of *real* addresses (the primary node address plus
    any aliases) and an ingress callback supplied by the node's network
    stack.  Egress is serialized: consecutive sends queue behind each
    other at line rate.
    """

    def __init__(self, fabric: "Fabric", primary_ip: str) -> None:
        self.fabric = fabric
        self.primary_ip = primary_ip
        self.addresses: Set[str] = {primary_ip}
        self.ingress: Optional[Callable[[Packet], None]] = None
        self._egress_free_at = 0.0
        self.tx_packets = 0
        self.rx_packets = 0
        self.tx_bytes = 0

    def add_address(self, ip: str) -> None:
        """Attach an alias address (used when a pod lands on this node)."""
        self.addresses.add(ip)

    def drop_address(self, ip: str) -> None:
        """Detach an alias (pod left the node)."""
        if ip == self.primary_ip:
            raise NetError("cannot drop the primary address")
        self.addresses.discard(ip)

    def send(self, packet: Packet) -> None:
        """Queue a packet for transmission."""
        self.fabric.transmit(self, packet)

    def deliver(self, packet: Packet) -> None:
        """Fabric-side entry point for an arriving packet."""
        self.rx_packets += 1
        if self.ingress is not None:
            self.ingress(packet)


class Fabric:
    """The switch connecting all NICs, addressed by real IP."""

    def __init__(
        self,
        engine: Engine,
        bandwidth: float = DEFAULT_BANDWIDTH,
        latency: float = DEFAULT_LATENCY,
        loss_rate: float = 0.0,
    ) -> None:
        self.engine = engine
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self.loss_rate = float(loss_rate)
        self._nics: Dict[str, Nic] = {}
        self._partitions: Set[Tuple[str, str]] = set()
        #: per-direction extra propagation delay (fault injection).
        self._extra_latency: Dict[Tuple[str, str], float] = {}
        #: extra propagation delay applied to every link (fault injection).
        self.global_extra_latency = 0.0
        self._rng = engine.rng.stream("fabric.loss")
        self.dropped_packets = 0

    # ------------------------------------------------------------------
    def attach(self, primary_ip: str) -> Nic:
        """Create and register a NIC with the given primary address."""
        if primary_ip in self._nics:
            raise NetError(f"address {primary_ip} already attached")
        nic = Nic(self, primary_ip)
        self._nics[primary_ip] = nic
        return nic

    def nic_for(self, real_ip: str) -> Optional[Nic]:
        """Find the NIC currently owning ``real_ip`` (primary or alias)."""
        nic = self._nics.get(real_ip)
        if nic is not None:
            return nic
        for candidate in self._nics.values():
            if real_ip in candidate.addresses:
                return candidate
        return None

    # ------------------------------------------------------------------
    def partition(self, ip_a: str, ip_b: str) -> None:
        """Block traffic between two real addresses (both directions)."""
        self._partitions.add((ip_a, ip_b))
        self._partitions.add((ip_b, ip_a))

    def heal(self, ip_a: str, ip_b: str) -> None:
        """Remove a partition."""
        self._partitions.discard((ip_a, ip_b))
        self._partitions.discard((ip_b, ip_a))

    def is_partitioned(self, ip_a: str, ip_b: str) -> bool:
        """Whether traffic from ``ip_a`` to ``ip_b`` is currently blocked."""
        return (ip_a, ip_b) in self._partitions

    def delay_link(self, ip_a: str, ip_b: str, extra: float) -> None:
        """Add ``extra`` seconds of one-way latency between two addresses
        (both directions) — the message-delay fault."""
        self._extra_latency[(ip_a, ip_b)] = float(extra)
        self._extra_latency[(ip_b, ip_a)] = float(extra)

    def clear_link_delay(self, ip_a: str, ip_b: str) -> None:
        """Undo :meth:`delay_link`."""
        self._extra_latency.pop((ip_a, ip_b), None)
        self._extra_latency.pop((ip_b, ip_a), None)

    # ------------------------------------------------------------------
    def transmit(self, src_nic: Nic, packet: Packet) -> None:
        """Serialize a packet onto the sender's egress link.

        Delays, partitions, the loss rate and the destination's owner are
        all read when the packet passes them, never earlier: fault
        injection and migration change them between any two packets.
        """
        real_dst = packet.real_dst
        if not real_dst:
            raise NetError(f"packet without routing address: {packet!r}")
        size = packet.size
        start = self.engine.now
        if src_nic._egress_free_at > start:
            start = src_nic._egress_free_at
        tx_time = size / self.bandwidth
        src_nic._egress_free_at = start + tx_time
        src_nic.tx_packets += 1
        src_nic.tx_bytes += size
        extra = self.global_extra_latency
        if self._extra_latency:
            extra += self._extra_latency.get((packet.real_src, real_dst), 0.0)
        arrival = start + tx_time + self.latency + extra
        self.engine.schedule_at(arrival, self._arrive, src_nic, packet)

    def _arrive(self, src_nic: Nic, packet: Packet) -> None:
        real_dst = packet.real_dst
        if self._partitions and (packet.real_src, real_dst) in self._partitions:
            self._drop(packet)
            return
        if self.loss_rate > 0 and self._rng.random() < self.loss_rate:
            self._drop(packet)
            return
        dst_nic = self._nics.get(real_dst)  # a primary address; aliases need the scan
        if dst_nic is None:
            dst_nic = self.nic_for(real_dst)
            if dst_nic is None:
                self._drop(packet)  # address currently unowned (mid-migration)
                return
        # Nic.deliver, in line
        dst_nic.rx_packets += 1
        ingress = dst_nic.ingress
        if ingress is not None:
            ingress(packet)
        elif packet.conn is not None:  # a dark NIC swallows it
            packet.conn.landed()

    def _drop(self, packet: Packet) -> None:
        self.dropped_packets += 1
        if packet.conn is not None:
            packet.conn.landed()
