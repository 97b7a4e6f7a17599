"""ZapC core: coordinated, transparent checkpoint-restart.

The paper's contribution, on top of the substrates: the intermediate
image format (:mod:`~repro.core.codec`), per-pod standalone
checkpoint-restart (:mod:`~repro.core.standalone`), the
transport-protocol-independent network-state mechanism
(:mod:`~repro.core.netckpt`, :mod:`~repro.core.altqueue`), time
virtualization (:mod:`~repro.core.timevirt`), and the Manager/Agent
coordination protocol (:mod:`~repro.core.manager`,
:mod:`~repro.core.agent`) with direct node-to-node migration
(:mod:`~repro.core.streaming`).
"""

from .agent import AGENT_PORT, Agent, deploy_agents
from .altqueue import AltQueue, active_altqueue, install
from .image import PodImage
from .manager import Manager, OpResult
from .meta import build_pod_meta, derive_restart_plan
from .netckpt import capture_pod_network, capture_socket, netstate_nbytes, restore_socket_state
from .standalone import activate_pod, capture_pod_standalone, restore_pod_standalone
from .streaming import MigrationResult, migrate, migrate_task
from .timevirt import apply_clock, capture_timers, restore_timers

__all__ = [
    "AGENT_PORT",
    "Agent",
    "AltQueue",
    "Manager",
    "MigrationResult",
    "OpResult",
    "PodImage",
    "activate_pod",
    "active_altqueue",
    "apply_clock",
    "build_pod_meta",
    "capture_pod_network",
    "capture_pod_standalone",
    "capture_socket",
    "capture_timers",
    "deploy_agents",
    "derive_restart_plan",
    "install",
    "migrate",
    "migrate_task",
    "netstate_nbytes",
    "restore_pod_standalone",
    "restore_socket_state",
    "restore_timers",
]
