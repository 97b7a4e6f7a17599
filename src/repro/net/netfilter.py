"""Per-node packet filtering (the simulated Netfilter).

The ZapC Agent "disables all network activity to and from the pod ...
by leveraging a standard network filtering service to block the links
listed in the table; Netfilter comes standard with Linux".  This module
is that service: DROP rules keyed by virtual address (all ports) or by
exact endpoint, checked on both ingress and egress by the node's network
stack.

Silently dropping (rather than erroring) is essential to the checkpoint
algorithm's correctness argument: in-flight data "will either be dropped
(for incoming packets) or blocked (for outgoing packets) ... reliable
protocols will eventually detect the loss and retransmit".
"""

from __future__ import annotations

from typing import Set, Tuple

from .packet import Packet


class Netfilter:
    """DROP-rule table for one node."""

    def __init__(self) -> None:
        #: virtual addresses fully blocked (any port, both directions).
        self._blocked_ips: Set[str] = set()
        #: exact (ip, port) endpoints blocked.
        self._blocked_endpoints: Set[Tuple[str, int]] = set()
        self.dropped = 0

    # ------------------------------------------------------------------
    def block_ip(self, ip: str) -> None:
        """Drop every packet to or from ``ip``."""
        self._blocked_ips.add(ip)

    def unblock_ip(self, ip: str) -> None:
        """Remove a full-address rule."""
        self._blocked_ips.discard(ip)

    def block_endpoint(self, ip: str, port: int) -> None:
        """Drop every packet to or from one endpoint."""
        self._blocked_endpoints.add((ip, port))

    def unblock_endpoint(self, ip: str, port: int) -> None:
        """Remove an endpoint rule."""
        self._blocked_endpoints.discard((ip, port))

    def clear(self) -> None:
        """Remove all rules."""
        self._blocked_ips.clear()
        self._blocked_endpoints.clear()

    @property
    def active(self) -> bool:
        """Whether any rule is installed."""
        return bool(self._blocked_ips or self._blocked_endpoints)

    # ------------------------------------------------------------------
    def permits(self, packet: Packet) -> bool:
        """True when ``packet`` passes the rule table."""
        blocked_ips = self._blocked_ips
        blocked_endpoints = self._blocked_endpoints
        if not blocked_ips and not blocked_endpoints:
            return True  # no rule installed: the state outside a checkpoint
        for ep in (packet.src, packet.dst):
            if ep.ip in blocked_ips or (ep.ip, ep.port) in blocked_endpoints:
                self.dropped += 1
                return False
        return True
