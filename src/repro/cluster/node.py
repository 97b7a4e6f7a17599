"""Cluster node (blade) model and the simulation cost constants.

The defaults mirror the paper's testbed: IBM HS20 blades with dual
3.06 GHz Xeons and 2.5 GB RAM on Gigabit Ethernet with a Fibre-Channel
SAN.  The one free parameter with no hardware analogue is
``memcpy_bandwidth`` — the rate at which checkpoint code serializes
process images to memory — which calibrates Figure 6(a)'s absolute
scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..net.fabric import Fabric
from ..net.sockets import NetStack
from ..sim.engine import Engine
from ..storage.san import SAN_MOUNT, SharedStorage
from ..vos.kernel import DEFAULT_HZ, DEFAULT_QUANTUM_S, DEFAULT_SYSCALL_CYCLES, Kernel


@dataclass
class NodeSpec:
    """Hardware/OS parameters for one blade."""

    ncpus: int = 1
    hz: float = DEFAULT_HZ
    quantum_s: float = DEFAULT_QUANTUM_S
    syscall_overhead_cycles: int = DEFAULT_SYSCALL_CYCLES
    ram_bytes: int = int(2.5 * 2**30)
    #: checkpoint serialization rate, bytes of image per second.
    memcpy_bandwidth: float = 2e9
    #: image reconstruction rate on restart (page faults make restore
    #: slower than capture), bytes per second.
    restore_bandwidth: float = 1e9
    #: fixed per-pod kernel work per checkpoint (process freezing, page
    #: table and descriptor walks), seconds.
    ckpt_fixed_s: float = 0.08
    #: the slice of ``ckpt_fixed_s`` that must run while the pod is
    #: suspended on the zero-stall path: freeze plus the write-protect
    #: walk that arms copy-on-write.  The remainder (descriptor walks,
    #: serialization prep) runs post-resume against the frozen tables.
    capture_fixed_s: float = 0.015
    #: fixed per-pod kernel work per restart (pod creation, address
    #: space rebuild), seconds.
    restart_fixed_s: float = 0.15


class Node:
    """One blade: kernel + network stack + SAN mount."""

    def __init__(
        self,
        engine: Engine,
        index: int,
        name: str,
        real_ip: str,
        fabric: Fabric,
        vnet: Any,
        san: Optional[SharedStorage] = None,
        spec: Optional[NodeSpec] = None,
    ) -> None:
        self.engine = engine
        self.index = index
        self.name = name
        self.ip = real_ip
        self.spec = spec if spec is not None else NodeSpec()
        self.kernel = Kernel(
            engine,
            name,
            ncpus=self.spec.ncpus,
            hz=self.spec.hz,
            quantum_s=self.spec.quantum_s,
            syscall_overhead_cycles=self.spec.syscall_overhead_cycles,
        )
        self.stack = NetStack(self.kernel, fabric, real_ip, vnet=vnet)
        self.crashed = False
        if san is not None:
            self.kernel.vfs.mount(SAN_MOUNT, san)

    def serialize_delay(self, nbytes: int) -> float:
        """Simulated seconds to serialize ``nbytes`` of checkpoint image
        to memory (the dominant term of per-pod checkpoint latency)."""
        return nbytes / self.spec.memcpy_bandwidth

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Node({self.name!r}, ip={self.ip}, cpus={self.spec.ncpus})"
